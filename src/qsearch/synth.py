"""Gate synthesis: diffusers, phase oracles, multi-controlled Z lowering.

Conventions
-----------
rz(theta) is the phase gate diag(1, e^{i theta}); all equivalence contracts
are modulo global phase.  A "fold" computes the AND of up to three live
control wires into a fresh ancilla with a relative-phase gate; because the
payload between a fold and its mirror image is diagonal, the relative
phases cancel exactly and the sandwich implements the multi-controlled Z
with no error.  The diffuser on k qubits is realized as
H^k . C^{k-1}Z(polarity 0...0) . H^k which equals -(2|s><s| - I).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import pi

from .circuit import (
    Circuit,
    CircuitTemplate,
    Gate,
    Hole,
    Instruction,
    _cancel_flags,
    cx,
    cz,
    h,
    measure,
    rz,
    x,
    z,
)
from .errors import (
    BadArity,
    BadMask,
    MethodArityMismatch,
    MissingAncilla,
    ValidationError,
)

METHODS = (
    "exact-recursive",
    "exact-one-ancilla",
    "margolus",
    "relphase-maslov",
    "measurement-assisted",
)

ORACLE_STYLES = (
    "plain-mcz",
    "ancilla-relphase",
    "measurement-assisted",
)


@dataclass(frozen=True)
class OracleSpec:
    """Marked bit pattern of width n plus the synthesis style."""

    n: int
    mask: str
    style: str = "plain-mcz"

    def __post_init__(self):
        if len(self.mask) != self.n or any(ch not in "01" for ch in self.mask):
            raise BadMask(f"mask {self.mask!r} is not a pattern of {self.n} bits")
        if self.style not in ORACLE_STYLES:
            raise BadMask(f"oracle_style: unknown style {self.style!r}")

    @property
    def index(self) -> int:
        return int(self.mask, 2)


def _instr(gates) -> list[Instruction]:
    return [g if isinstance(g, Instruction) else Instruction(g) for g in gates]


def _adjoint(gates: list[Instruction]) -> list[Instruction]:
    out = []
    for instr in reversed(gates):
        g = instr.gate
        if g.name == "rz":
            g = rz(-g.angle, g.qubits[0])
        # h, x, z, cx, cz are self-inverse
        out.append(Instruction(g, instr.condition))
    return out


def relphase_ccx(a: int, b: int, c: int, inverse: bool = False) -> list[Instruction]:
    """3-CX relative-phase Toffoli (Margolus class) on controls a, b."""
    t, tdg = rz(pi / 4, c), rz(-pi / 4, c)
    frag = _instr([h(c), t, cx(b, c), tdg, cx(a, c), t, cx(b, c), tdg, h(c)])
    return _adjoint(frag) if inverse else frag


def relphase_cccx(a: int, b: int, c: int, d: int, inverse: bool = False) -> list[Instruction]:
    """6-CX relative-phase triple-controlled X on controls a, b, c."""
    t, tdg = rz(pi / 4, d), rz(-pi / 4, d)
    frag = _instr(
        [
            h(d), t, cx(c, d), tdg, h(d),
            cx(a, d), t, cx(b, d), tdg, cx(a, d), t, cx(b, d), tdg,
            h(d), t, cx(c, d), tdg, h(d),
        ]
    )
    return _adjoint(frag) if inverse else frag


def _ry(theta: float, q: int) -> list[Gate]:
    # Ry(theta) = P(pi/2) H P(theta) H P(-pi/2) up to e^{-i theta/2}
    return [rz(-pi / 2, q), h(q), rz(theta, q), h(q), rz(pi / 2, q)]


def margolus_ccx(a: int, b: int, c: int, inverse: bool = False) -> list[Instruction]:
    """The Ry-based Margolus gate, a 3-CX relative-phase Toffoli."""
    frag = _instr(
        _ry(pi / 4, c)
        + [cx(b, c)]
        + _ry(pi / 4, c)
        + [cx(a, c)]
        + _ry(-pi / 4, c)
        + [cx(b, c)]
        + _ry(-pi / 4, c)
    )
    return _adjoint(frag) if inverse else frag


def exact_ccz(a: int, b: int, c: int) -> list[Instruction]:
    """Standard 6-CX network for the exact doubly-controlled Z."""
    t = pi / 4
    return _instr(
        [
            cx(b, c), rz(-t, c), cx(a, c), rz(t, c), cx(b, c), rz(-t, c), cx(a, c),
            rz(t, b), rz(t, c), cx(a, b), rz(t, a), rz(-t, b), cx(a, b),
        ]
    )


def _tof(a: int, b: int, c: int) -> list[Instruction]:
    """Exact Toffoli on target c: the exact CCZ between H gates, 6 CX."""
    wrap = _instr([h(c)])
    return wrap + exact_ccz(a, b, c) + wrap


def _mcx_chain(
    controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> list[Instruction]:
    """C^mX with m - 2 borrowed wires in any state, each restored (Barenco Lemma 7.2).

    The chain is top . V . top . V, where top is the exact Toffoli onto the
    target and V runs a ladder of Toffolis down the borrowed wires to the
    one on the first two controls, and back up.  The Toffolis aimed at
    borrowed wires are relative-phase ones (Maslov 2016): each going down
    is undone by its inverse coming back, and the bottom one is inverted
    in the second V.
    Their phases are diagonal on wires that top only reads, so they cancel
    and the chain is an exact C^mX.  Two-qubit count: 12m - 18 for m >= 2.
    """
    m = len(controls)
    if m == 1:
        return _instr([cx(controls[0], target)])
    if m == 2:
        return _tof(*controls, target)
    anc = ancillas[: m - 2]
    top = _tof(controls[-1], anc[-1], target)
    down = [
        g for i in range(m - 3, 0, -1) for g in relphase_ccx(controls[i + 1], anc[i - 1], anc[i])
    ]
    back = _adjoint(down)
    bottom = relphase_ccx(controls[0], controls[1], anc[0])
    return top + down + bottom + back + top + down + _adjoint(bottom) + back


def _mcx_dirty(controls: tuple[int, ...], target: int, borrowed: int) -> list[Instruction]:
    """C^mX(controls -> target) borrowing one idle wire in any state (Barenco Lemma 7.3).

    The controls split in halves c1, c2; g1 = C^{|c1|}X(c1 -> borrowed)
    borrows c2 and the target, g2 = C^{|c2|+1}X(c2 + borrowed -> target)
    borrows c1, and g1 g2 g1 g2 flips the target by AND(c1) AND(c2) while
    the borrowed wire ends as it began.  Linear in m: 24m - 48 two-qubit
    gates for m >= 3.
    """
    half = (len(controls) + 1) // 2
    c1, c2 = controls[:half], controls[half:]
    g1 = _mcx_chain(c1, borrowed, c2 + (target,))
    g2 = _mcx_chain(c2 + (borrowed,), target, c1)
    return g1 + g2 + g1 + g2


def _chain_twoq(m: int) -> int:
    return 1 if m == 1 else 12 * m - 18


def _dirty_twoq(m: int) -> int:
    half = (m + 1) // 2
    return 2 * _chain_twoq(half) + 2 * _chain_twoq(m - half + 1)


# mcp borrows for flips on this many controls or more: at 3 the two forms tie
# at 24 and below it the ancilla-free one is smaller, so C^kZ for k <= 4 stays.
_BORROW_MIN_CONTROLS = 4


@lru_cache(maxsize=None)
def mcz_twoq(k: int) -> int:
    """Lowered two-qubit count of C^kZ on k controls, which C^kX shares.

    A closed form over the recursion of mcp, so no circuit is built:
    T(k) = 4 + 2 F(k-1) + P(k-1), where P(m) is mcp's count on m controls
    and the flip F(m) is _mcx_dirty's 24m - 48 from 4 controls on, T(m)
    below that.
    """
    if k < 3:
        return (0, 1, 6)[k]
    return _mcp_twoq(k)


@lru_cache(maxsize=None)
def _mcp_twoq(k: int) -> int:
    if k < 2:
        return 2 * k
    m = k - 1
    flip = _dirty_twoq(m) if m >= _BORROW_MIN_CONTROLS else mcz_twoq(m)
    return 4 + 2 * flip + _mcp_twoq(m)


def mcp(theta: float, controls: tuple[int, ...], target: int) -> list[Instruction]:
    """Multi-controlled phase gate with no ancilla (Barenco Lemma 7.5).

    C^kP(theta) = CP(theta/2)(last, target) . C^{k-1}X(rest -> last) .
    CP(-theta/2)(last, target) . C^{k-1}X(rest -> last) .
    C^{k-1}P(theta/2)(rest, target).  The target is idle during each
    C^{k-1}X flip, so from 4 controls on, where it is smaller, the flip
    borrows it by _mcx_dirty; below that the flip is the ancilla-free
    C^{k-1}X.  The two-qubit count grows quadratically in k (mcz_twoq).
    """
    controls = tuple(controls)
    if not controls:
        return _instr([rz(theta, target)])
    if len(controls) == 1:
        c = controls[0]
        return _instr(
            [rz(theta / 2, c), cx(c, target), rz(-theta / 2, target), cx(c, target), rz(theta / 2, target)]
        )
    rest, last = controls[:-1], controls[-1]
    if len(rest) >= _BORROW_MIN_CONTROLS:
        flip = _mcx_dirty(rest, last, target)
    else:
        flip = _lower_gate(cx(*rest, last))
    out = mcp(theta / 2, (last,), target)
    out += flip
    out += mcp(-theta / 2, (last,), target)
    out += flip
    out += mcp(theta / 2, rest, target)
    return out


def mcz_recursive(qubits: tuple[int, ...]) -> list[Instruction]:
    """Exact C^{k-1}Z lowering with no ancilla.

    Up to three qubits: Z, CZ, the 6-CX exact CCZ; wider, mcp(pi) on the
    last qubit, whose inner flips on 4 or more controls borrow that qubit.
    mcz_twoq gives the two-qubit count without building it.
    """
    qubits = tuple(qubits)
    if len(qubits) == 1:
        return _instr([z(qubits[0])])
    if len(qubits) == 2:
        return _instr([cz(*qubits)])
    if len(qubits) == 3:
        return exact_ccz(*qubits)
    return mcp(pi, qubits[:-1], qubits[-1])


# phase-clean AND computes (for measurement-assisted uncomputation) ---------

# On ancilla-|0> inputs relphase_ccx leaves phase i exactly on the AND=1
# branch; relphase_cccx leaves i^(ab) * i^(abc) (verified numerically).

def and_compute(controls: tuple[int, ...], target: int) -> list[Instruction]:
    """Map |x, 0> -> |x, AND(x)> with zero relative phase (2 or 3 controls)."""
    controls = tuple(controls)
    if len(controls) == 2:
        return relphase_ccx(controls[0], controls[1], target) + _instr(
            [rz(-pi / 2, target)]
        )
    if len(controls) == 3:
        a, b, _ = controls
        return (
            relphase_cccx(*controls, target)
            + _instr([rz(-pi / 2, target)])
            + mcp(-pi / 2, (a,), b)
        )
    raise BadArity("phase-clean AND supports 2 or 3 controls")


def measurement_assisted_uncompute(
    ancilla: int, controls: tuple[int, ...], clbit: int
) -> list[Instruction]:
    """X-basis measurement of a computed AND ancilla plus phase correction.

    Replaces the unitary uncompute: H on the ancilla, measure, and when the
    outcome is 1 apply C^{k-1}Z on the (2 or 3) controls to cancel the
    kicked-back phase.
    """
    return _instr([h(ancilla), measure(ancilla, clbit)]) + [
        Instruction(cz(*controls), condition=(clbit, 1))
    ]


# multi-controlled Z synthesis ----------------------------------------------

def fold_plan(n_live: int, keep: int = 1, pair_only: bool = False) -> list[int]:
    """Fold sizes that AND live wires into fresh ancillas, left-deep.

    Each fold replaces the first 2 (pair_only) or up to 3 live wires by one
    ancilla holding their AND, until at most `keep` live wires remain; the
    plan uses one ancilla per fold.
    """
    folds: list[int] = []
    while n_live > keep:
        take = 2 if pair_only else min(3, n_live)
        folds.append(take)
        n_live -= take - 1
    return folds


def _core_keep(n_controls: int, have_ancilla: bool = True) -> int:
    """Live controls an ancilla-folded C^kZ leaves for its exact core.

    Two, so the core is at most an exact CCZ; a two-control gate with an
    ancilla to spare is still folded, leaving a plain CZ core.
    """
    return 1 if n_controls <= 2 and have_ancilla else 2


def and_fold_tree(
    controls: tuple[int, ...],
    ancillas: tuple[int, ...],
    kind: str = "maslov",
    keep: int = 1,
) -> tuple[list[Instruction], tuple[int, ...], list[tuple[tuple[int, ...], int]]]:
    """Fold controls into at most `keep` wires holding their AND.

    Returns (instructions, live wires, folds) where folds lists
    (fold controls, ancilla) in compute order.  kind "maslov" uses
    relative-phase gates (valid inside compute/uncompute sandwiches around
    diagonal payloads), "margolus" uses pair folds, "clean" uses the
    phase-exact AND computes.
    """
    plan = fold_plan(len(controls), keep, pair_only=kind == "margolus")
    if len(plan) > len(ancillas):
        raise MissingAncilla(
            f"folding {len(controls)} controls needs {len(plan)} ancillas, got {len(ancillas)}"
        )
    live = list(controls)
    out: list[Instruction] = []
    folds: list[tuple[tuple[int, ...], int]] = []
    for take, anc in zip(plan, ancillas):
        taken = tuple(live[:take])
        if kind == "clean":
            out += and_compute(taken, anc)
        elif kind == "margolus":
            out += margolus_ccx(*taken, anc)
        elif take == 2:
            out += relphase_ccx(*taken, anc)
        else:
            out += relphase_cccx(*taken, anc)
        folds.append((taken, anc))
        live = [anc] + live[take:]
    return out, tuple(live), folds


def uncompute_folds(
    fold: list[Instruction],
    folds: list[tuple[tuple[int, ...], int]],
    clbits: tuple[int, ...] | None = None,
) -> list[Instruction]:
    """Undo an and_fold_tree: its adjoint, or measure the ancillas out.

    With clbits (one per fold) each ancilla gets the measurement-assisted
    uncompute, then a conditioned X resets it to |0> for reuse.
    """
    if clbits is None:
        return _adjoint(fold)
    out: list[Instruction] = []
    for (taken, anc), bit in reversed(list(zip(folds, clbits))):
        out += measurement_assisted_uncompute(anc, taken, bit)
        out.append(Instruction(x(anc), condition=(bit, 1)))
    return out


def mcz_fragment(
    qubits: tuple[int, ...],
    method: str = "exact-recursive",
    ancillas: tuple[int, ...] = (),
    polarity: tuple[int, ...] | None = None,
    clbits: tuple[int, ...] = (),
) -> list[Instruction]:
    """Exact C^{k-1}Z on the qubits (up to global phase), ancillas in/out |0>.

    The polarity selects which basis state receives the -1 phase.  With
    method "measurement-assisted" the ancillas are measured instead of
    unitarily uncomputed; one classical bit per fold is required.
    """
    qubits = tuple(qubits)
    ancillas = tuple(ancillas)
    k = len(qubits)
    if k < 1:
        raise BadArity("mcz needs at least one qubit")
    if method not in METHODS + ("plain",):
        raise MethodArityMismatch(f"unknown method {method!r}")
    if polarity is not None and len(polarity) != k:
        raise ValidationError("polarity must cover every qubit")

    if k == 2 or (method == "plain" and k > 1):
        # symbolic gate; lower() expands it by the ancilla-free recursion
        return _instr([cz(*qubits, polarity=polarity)])
    conj = _instr([x(q) for q, p in zip(qubits, polarity or ()) if p == 0])
    if k == 1 or method in ("plain", "exact-recursive"):
        return conj + mcz_recursive(qubits) + conj

    controls, target = qubits[:-1], qubits[-1]
    if method == "exact-one-ancilla":
        if not ancillas:
            raise MissingAncilla("exact-one-ancilla needs one ancilla")
        keep, ancillas = max(1, len(controls) - 2), ancillas[:1]
    else:
        keep = _core_keep(len(controls), bool(ancillas))
    measured = method == "measurement-assisted"
    kind = "clean" if measured else "margolus" if method == "margolus" else "maslov"
    fold, live, folds = and_fold_tree(controls, ancillas, kind, keep)
    if measured and len(clbits) < len(folds):
        raise MissingAncilla(
            f"measurement-assisted uncompute needs {len(folds)} classical bits"
        )
    core = mcz_recursive(live + (target,))
    unfold = uncompute_folds(fold, folds, tuple(clbits) if measured else None)
    return conj + fold + core + unfold + conj


# diffusers and oracles ------------------------------------------------------

def diffuser(
    k: int,
    targets: tuple[int, ...],
    method: str = "exact-recursive",
    ancillas: tuple[int, ...] = (),
) -> list[Instruction]:
    """Grover diffuser on the targets, equal to -(2|s><s| - I).

    Realized as H-wall, C^{k-1}Z with all-zero polarity, H-wall; the global
    phase -1 relative to the textbook reflection is part of the contract.
    """
    targets = tuple(targets)
    if k < 1 or len(targets) != k:
        raise BadArity(f"diffuser needs k={k} target qubits")
    if k == 1:
        q = targets[0]
        return _instr([h(q), x(q), z(q), x(q), h(q)])
    wall = _instr([h(q) for q in targets])
    core = mcz_fragment(targets, method=method, ancillas=ancillas, polarity=(0,) * k)
    return wall + core + list(reversed(wall))


def oracle(
    spec: OracleSpec, ancillas: tuple[int, ...] = (), clbits: tuple[int, ...] = ()
) -> list[Instruction]:
    """Phase oracle on wires 0..n-1: -1 exactly on |mask>, +1 elsewhere, for every style."""
    qubits = tuple(range(spec.n))
    polarity = tuple(int(ch) for ch in spec.mask)
    if spec.style == "plain-mcz":
        if spec.n == 1:
            return mcz_fragment(qubits, polarity=polarity)
        return _instr([cz(*qubits, polarity=polarity)])
    method = {
        "ancilla-relphase": "relphase-maslov",
        "measurement-assisted": "measurement-assisted",
    }[spec.style]
    return mcz_fragment(
        qubits, method=method, ancillas=ancillas, polarity=polarity, clbits=clbits
    )


def oracle_ancillas_needed(n: int, style: str) -> int:
    """Ancillas one oracle call (or relative-phase diffuser) on n wires folds into."""
    if style == "plain-mcz":
        return 0
    return len(fold_plan(n - 1, _core_keep(n - 1)))


# lowering --------------------------------------------------------------------

_UNLOWERED = frozenset({"h", "x", "z", "rz", "measure", "barrier"})  # each lowers to itself


def _lower_gate(gate: Gate) -> list[Instruction]:
    name = gate.name
    if name in _UNLOWERED:
        return [Instruction(gate)]
    if name in ("cx", "cz"):
        # polarity-0 controls become X conjugation around the all-ones gate
        pol = gate.effective_polarity()
        conj = _instr([x(q) for q, p in zip(gate.controls(), pol) if p == 0])
        if len(gate.qubits) == 2:
            core = [Instruction(replace(gate, polarity=None))]
        elif name == "cz":
            core = mcz_recursive(gate.qubits)
        else:
            wrap = _instr([h(gate.qubits[-1])])
            core = wrap + mcz_recursive(gate.qubits) + wrap
        return conj + core + conj
    raise ValidationError(f"cannot lower gate {name!r}")


def _lowered(instrs, cache: dict) -> list[Instruction]:
    """The instructions lowered to 1q/2q, each distinct gate expanded once per
    cache: an unconditioned instruction gets the shared expansion as it is,
    a conditioned one copies of it under its condition."""
    out: list[Instruction] = []
    for instr in instrs:
        gate = instr.gate
        if gate.name in _UNLOWERED:
            out.append(instr)
            continue
        subs = cache.get(gate)
        if subs is None:
            subs = cache[gate] = _lower_gate(gate)
        out += subs if instr.condition is None else [Instruction(i.gate, instr.condition) for i in subs]
    return out


def lower(circuit: Circuit) -> Circuit:
    """Expand polarities and wide gates to 1q/2q, each distinct gate once
    (_lowered); a valid input gives a valid output, which is not checked
    again."""
    out = tuple(_lowered(circuit.instructions, {}))
    return Circuit._trusted(circuit.n_qubits, circuit.n_clbits, out, dict(circuit.metadata))


def compile(circuit: Circuit) -> Circuit:  # noqa: A001 - the pipeline's name
    """The compile pipeline, lower to 1q/2q gates and then peephole-cancel:
    compile_template's case without holes."""
    return compile_template(CircuitTemplate.of(circuit)).fill("", dict(circuit.metadata))


def compile_template(template: CircuitTemplate) -> CircuitTemplate:
    """The template whose fill for each key is compile(template.fill(key)).

    Its fixed parts are lowered through one cache, and a fill keeps, by
    position, what peephole_cancel keeps.  An x hole lowers to itself.  lower
    makes of a cx or cz X gates on its 0-polarity controls around the
    all-ones expansion, so each cx or cz hole becomes an x hole per marked
    control, in the gate's control order, that expansion as a fixed part,
    and the same x holes again.
    """
    return _CompiledTemplate(template)


class _CompiledTemplate(CircuitTemplate):
    """compile_template's result."""

    def __init__(self, source: CircuitTemplate):
        self.n_qubits, self.n_clbits = source.n_qubits, source.n_clbits
        self.key_width = source.key_width
        cache: dict = {}
        self._fixed, self._holes = [_lowered(source._fixed[0], cache)], []
        for hole, after in zip(source._holes, source._fixed[1:]):
            if hole.name == "x":
                layout = [hole]
            else:
                bit = dict(zip(hole.qubits, hole.bits))
                xs = [Hole("x", (q,), (bit[q],), hole.condition)
                      for q in hole.instruction.gate.controls() if bit[q] is not None]
                layout = [*xs, _lowered([hole.instruction], cache), *xs]
            for part in layout + [_lowered(after, cache)]:
                if isinstance(part, Hole):
                    self._holes.append(part)
                    self._fixed.append([])
                else:
                    self._fixed[-1] += part
        self._fixed = [tuple(part) for part in self._fixed]
        self._last = None  # the last key _kept answered, and its answer

    def _kept(self, key) -> tuple[list[bool], list[tuple[Instruction, ...]]]:
        # a sampled run asks for its first key twice: for the census, then to
        # plan its walk; one key, not all, as a set may hold 2^16 of them
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        made = self._made(key)
        kept = _cancel_flags(self._assemble(None, made), self.n_qubits, self.n_clbits)
        flags, slots, at = [], [], 0
        for part, hole in zip(self._fixed, made):
            flags += kept[at:at + len(part)]
            at += len(part) + len(hole)
            slots.append(hole if all(kept[at - len(hole):at]) else ())
        self._last = key, (flags + kept[at:], slots)
        return self._last[1]
