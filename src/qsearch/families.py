"""Builders for the experiment circuit families.

`build_masks(request, masks)` makes one option set's circuit for each
mask of a run, and `build(request)` is its one-mask case.  The circuits of
one option set differ only in the X conjugation of a block's zero bits, a
few polarities and the `mask` metadata, so each family describes its
circuit once, as a `CircuitTemplate`: the mask-independent fragments
(H-wall, diffusers, fold trees and their uncompute, exact cores,
measurements) are made and checked once per call, and each mask fills
only the holes that hold its conjugation and its polarized gates.

Every family but wielomianer is one skeleton, `_search_template`: an
H-wall on search qubits 0..n-1, a family body, then search qubit q
measured into classical bit q, with family, n, mask, data bits and
diffuser phase in the metadata (values stay JSON-representable).
Ancillas follow the search qubits, auxiliary classical bits the data
bits.  `_grover_round`, one full-register oracle call and then a
diffuser, serves grover, partial and the wojter-aa closing round, and
alone picks the diffuser method.

The block families interleave full-mask oracle calls with block-local
diffusers in the order `_SCHEDULES` gives.  Each oracle call is emitted
self-contained (ancilla compute, polarized multi-controlled Z on ancilla +
trailing block, ancilla uncompute); with the partial-uncompute option,
peephole cancellation merges adjacent uncompute/recompute pairs across
support-disjoint diffusers, and trailing-uncompute elimination drops the
final fold uncompute that no measurement can observe, yielding the compact
interleaved layouts the gate-count targets refer to.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from . import synth
from .circuit import (
    Circuit,
    CircuitTemplate,
    Instruction,
    cx,
    cz,
    h,
    measure,
    peephole_cancel,
    strip_trailing_uncompute,
    x,
)
from .errors import (
    BadDiffuserSize,
    BadWidth,
    UnsupportedPartition,
    ValidationError,
)
from .synth import OracleSpec

FAMILIES = (
    "grover",
    "partial",
    "wojter",
    "wojter-aa",
    "drzewker",
    "partial-drzewker",
    "wielomianer",
)

UNCOMPUTE_MODES = ("full", "partial", "measurement-assisted")


@dataclass(frozen=True)
class Partition:
    """Ordered split of the search register into diffuser blocks."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise UnsupportedPartition(f"bad partition {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)


@dataclass
class FamilyRequest:
    family: str
    oracle: OracleSpec
    iterations: int = 1
    partition: Partition | None = None
    diffuser_size: int | None = None
    uncompute: str = "partial"
    fused: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.uncompute not in UNCOMPUTE_MODES:
            raise ValidationError(f"unknown uncompute mode {self.uncompute!r}")


def build(request: FamilyRequest) -> Circuit:
    """The circuit for request's own mask: build_masks of that one mask."""
    (circuit,) = build_masks(request, [request.oracle.mask])
    return circuit


def build_masks(request: FamilyRequest, masks: Iterable[str]) -> Iterator[Circuit]:
    """Each mask's circuit under request's options, in mask order.

    request.oracle gives the width and the style; its own mask is not
    used.  Every mask is checked, and the family's template made, before
    the first circuit: each mask-independent fragment is made and checked
    once per call, against this call's register sizes, so a bad option or
    a bad fragment is refused there.  Each mask then adds only its
    conjugation and polarized gates, checked for that mask, and gets its
    own metadata dict and lists.  With partial uncompute, peephole_cancel
    and strip_trailing_uncompute run on each circuit, as what they remove
    depends on the mask.
    """
    n, style = request.oracle.n, request.oracle.style
    specs = [OracleSpec(n, mask, style) for mask in masks]
    plan = _plan(request)
    for spec in specs:
        metadata = {k: list(v) if isinstance(v, list) else v for k, v in plan.metadata.items()}
        circuit = plan.template.fill(spec.mask, {**metadata, "mask": spec.mask})
        yield strip_trailing_uncompute(peephole_cancel(circuit)) if plan.tidy else circuit


class _Plan(NamedTuple):
    """One option set's circuits: the template, every metadata entry but the
    mask, and whether each circuit gets the partial-uncompute passes."""

    template: CircuitTemplate
    metadata: dict
    tidy: bool = False


def _plan(request: FamilyRequest) -> _Plan:
    fam, n, style = request.family, request.oracle.n, request.oracle.style
    if fam == "grover":
        return _grover(n, style, request.iterations)
    if fam == "partial":
        return _partial(n, style, request.diffuser_size)
    if fam == "wielomianer":
        return _wielomianer(n)
    if fam == "wojter" and request.fused:
        return _wojter_fused(n, style, request.partition)
    return _block_family(fam, n, style, request.partition, request.uncompute)


# template holes: the gates that follow the mask ------------------------------

def _zeros(qubits) -> Callable[[str], list]:
    """X on each of the qubits whose mask bit is 0."""
    qubits = tuple(qubits)
    return lambda mask: [x(q) for q in qubits if mask[q] == "0"]


def _marked_cz(held, qubits) -> Callable[[str], list]:
    """cz on the held wires, marked at 1, and on the search qubits, each
    marked at its mask bit."""
    wires, ones = tuple(held) + tuple(qubits), (1,) * len(held)
    return lambda mask: [cz(*wires, polarity=ones + tuple(int(mask[q]) for q in qubits))]


def _marked(qubits: tuple[int, ...], core: list) -> list:
    """Template parts for -1 on the mask's bits of the qubits, from core, the
    all-ones form: a lone symbolic cz takes the mask as its polarity, and any
    other core gets X on the mask's zero bits on each side, as
    synth.mcz_fragment conjugates it."""
    if len(core) == 1 and core[0].gate.name == "cz":
        return [_marked_cz((), qubits)]
    conj = _zeros(qubits)
    return [conj, core, conj]


def _search_template(
    family: str, n: int, n_anc: int, n_clbits: int, body: list, **metadata
) -> _Plan:
    """The H-wall, the body's parts, then search wire q measured into bit q."""
    parts = [[h(q) for q in range(n)], *body, [measure(q, q) for q in range(n)]]
    return _Plan(
        CircuitTemplate(n + n_anc, n_clbits, parts),
        dict(family=family, n=n, data_clbits=list(range(n)), diffuser_phase="-1", **metadata),
    )


def _grover_round(
    n: int, style: str, k: int, ancillas: tuple[int, ...], clbits: tuple[int, ...] = ()
) -> list:
    """One full-register oracle call, then the diffuser on wires 0..k-1."""
    method = "plain" if style == "plain-mcz" else "relphase-maslov"
    ones = synth.oracle(OracleSpec(n, "1" * n, style), ancillas=ancillas, clbits=clbits)
    diffuser = synth.diffuser(k, tuple(range(k)), method=method, ancillas=ancillas)
    return _marked(tuple(range(n)), ones) + [diffuser]


def _oracle_wiring(n: int, style: str) -> tuple[int, int]:
    """(ancilla count, auxiliary classical bit count) one oracle call needs."""
    n_anc = synth.oracle_ancillas_needed(n, style)
    n_aux = n_anc if style == "measurement-assisted" else 0
    return n_anc, n_aux


def _grover(n: int, style: str, iterations: int) -> _Plan:
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    n_anc, aux = _oracle_wiring(n, style)
    ancillas = tuple(range(n, n + n_anc))
    body = []
    for it in range(iterations):
        body += _grover_round(n, style, n, ancillas, tuple(range(n + it * aux, n + (it + 1) * aux)))
    return _search_template(
        "grover", n, n_anc, n + aux * iterations, body,
        oracle_style=style,
        oracle_calls=iterations,
        iterations=iterations,
        ancillas=list(ancillas),
    )


def _partial(n: int, style: str, diffuser_size: int | None) -> _Plan:
    k = diffuser_size if diffuser_size is not None else min(3, n)
    if not 1 <= k <= n:
        raise BadDiffuserSize(f"diffuser size {k} outside 1..{n}")
    n_anc, aux = _oracle_wiring(n, style)
    body = _grover_round(n, style, k, tuple(range(n, n + n_anc)), tuple(range(n, n + aux)))
    return _search_template(
        "partial", n, n_anc, n + aux, body,
        oracle_style=style,
        diffuser_size=k,
        diffuser_qubits=list(range(k)),
        oracle_calls=1,
    )


# block families -------------------------------------------------------------

def _split_blocks(
    family: str, partition: Partition | None, n: int
) -> tuple[list[int], list[int]]:
    if partition is None:
        raise UnsupportedPartition(f"{family} needs a partition")
    if partition.n != n:
        raise UnsupportedPartition(
            f"partition {list(partition.parts)} does not sum to n={n}"
        )
    if len(partition.parts) == 1:
        return list(range(n)), []
    if len(partition.parts) != 2:
        raise UnsupportedPartition(
            "only two-block partitions (and the degenerate single block) are supported"
        )
    k1, k2 = partition.parts
    if k2 not in (1, 2):
        raise UnsupportedPartition(
            "trailing block must have 1 or 2 qubits (exact block search)"
        )
    return list(range(k1)), list(range(k1, k1 + k2))


def _block_oracle(style: str, block1: list[int], block2: list[int],
                  ancillas: tuple[int, ...], clbits: tuple[int, ...] | None) -> list:
    """Template parts of one self-contained full-mask oracle call.

    Folds block 1 (X-conjugated to the mask) into an AND wire, applies the
    polarized multi-controlled Z on that wire plus block 2, and uncomputes
    the fold (measurement-assisted when clbits are given).  With the
    plain-mcz style the call is one symbolic polarized multi-controlled Z
    over the whole register instead.
    """
    if style == "plain-mcz":
        return [_marked_cz((), block1 + block2)]
    fold, live, folds = synth.and_fold_tree(
        tuple(block1), ancillas, kind="clean" if clbits is not None else "maslov"
    )
    conj = _zeros(block1)
    return [conj, fold, _marked_cz(live, block2), synth.uncompute_folds(fold, folds, clbits), conj]


_WOJTER = ["oracle", "g2", "oracle", "g2", "oracle", "g3", "oracle", "g2"]
_SCHEDULES = {
    "wojter": _WOJTER,
    "wojter-aa": _WOJTER,
    "drzewker": ["oracle", "g2", "oracle", "g3", "oracle", "g2"],
    "partial-drzewker": ["oracle", "g2", "oracle", "g3"],
}
BLOCK_FAMILIES = tuple(_SCHEDULES)  # the families that read a partition


def _block_family(
    family: str, n: int, style: str, partition: Partition | None, uncompute: str
) -> _Plan:
    """Oracle calls and block diffusers in the order _SCHEDULES[family] gives;
    wojter-aa closes with one full-register Grover round."""
    block1, block2 = _split_blocks(family, partition, n)
    aa = family == "wojter-aa"
    if not block2:  # degenerate single block: Grover, plus wojter-aa's closing round
        plan = _grover(n, "ancilla-relphase" if n >= 4 else "plain-mcz", 2 if aa else 1)
        plan.metadata.update(family=family, partition=list(partition.parts), degenerate=True)
        return plan

    schedule = _SCHEDULES[family]
    plain = style == "plain-mcz"
    n_folds = 0 if plain else len(synth.fold_plan(len(block1)))
    n_anc = max(n_folds, synth.oracle_ancillas_needed(n, style) if aa else 0)
    ancillas = tuple(range(n, n + n_anc))
    measured = uncompute == "measurement-assisted"
    aux = n_folds if measured else 0
    n_clbits = n + aux * schedule.count("oracle")

    body = []
    call_no = 0
    for step in schedule:
        if step == "oracle":
            start = n + call_no * aux
            clbits = tuple(range(start, start + aux)) if measured else None
            body += _block_oracle(style, block1, block2, ancillas, clbits)
            call_no += 1
        else:
            block = tuple(block2 if step == "g2" else block1)
            body.append(synth.diffuser(len(block), block))
    if aa:
        body += _grover_round(n, "plain-mcz" if plain else "ancilla-relphase", n, ancillas)

    plan = _search_template(
        family, n, n_anc, n_clbits, body,
        partition=list(partition.parts),
        uncompute=uncompute,
        oracle_calls=call_no + aa,
        schedule=list(schedule),
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
    )
    # with partial uncompute, uncompute/recompute pairs across disjoint
    # diffusers cancel, and uncompute that no measurement can see falls away
    return plan._replace(tidy=uncompute == "partial")


def _wojter_fused(n: int, style: str, partition: Partition | None) -> _Plan:
    block1, block2 = _split_blocks("wojter", partition, n)
    if not block2:
        plan = _grover(n, style, 1)
        plan.metadata.update(family="wojter", fused=True)
        return plan
    n_anc = len(synth.fold_plan(len(block1)))
    ancillas = tuple(range(n, n + n_anc))
    # block-1 phase oracle (the collapsed sub-iteration body), then diffuser
    body = _marked(tuple(block1), synth.mcz_fragment(tuple(block1), method="exact-recursive"))
    body.append(synth.diffuser(len(block1), tuple(block1)))
    # final block-2 grover step needs the mask AND of block 1 on an ancilla
    fold, live, folds = synth.and_fold_tree(tuple(block1), ancillas)
    if folds:
        conj = _zeros(block1)
        body += [conj, fold, conj, _marked_cz(live, block2)]
    else:  # the one block-1 wire is marked at its own mask bit
        body.append(_marked_cz((), block1 + block2))
    body.append(synth.diffuser(len(block2), tuple(block2)))
    return _search_template(
        "wojter", n, n_anc, n, body,
        partition=list(partition.parts),
        fused=True,
        oracle_calls=4,
        ancillas=list(ancillas),
        oracle_tree="fold3-left-deep",
    )


def _under(condition: tuple[int, int], gates) -> list[Instruction]:
    return [Instruction(g.gate if isinstance(g, Instruction) else g, condition) for g in gates]


def _wielomianer(n: int) -> _Plan:
    """The machine-generated 4-qubit circuit with one mid-circuit measurement.

    Wire order (q1, q2, a, q3, q4, extra) = indices 0..5; the four search
    qubits are 0, 1, 3, 4 and land in classical bits 0..3; the extra wire
    is measured mid-circuit into bit 4 and the remaining gates fire on
    outcome 0 (open classical controls).
    """
    if n != 4:
        raise BadWidth("the wielomianer circuit is defined for n=4")
    q1, q2, a, q3, q4, extra = range(6)
    cond = (4, 0)

    def pol34(m):
        return (1, int(m[2]), int(m[3]))

    def call(m):
        return [cx(q1, q2, a, polarity=(int(m[0]), int(m[1]))), cz(a, q3, q4, polarity=pol34(m))]

    parts = [
        [h(q) for q in (q1, q2, q3, q4)],
        call,
        synth.diffuser(2, (q3, q4)),
        lambda m: [cx(a, q3, q4, extra, polarity=pol34(m))],
        [measure(extra, 4)],
        _under(cond, synth.diffuser(2, (q1, q2))),
        lambda m: _under(cond, call(m)),
        _under(cond, synth.diffuser(2, (q3, q4))),
        [measure(q, c) for q, c in ((q1, 0), (q2, 1), (q3, 2), (q4, 3))],
    ]
    return _Plan(
        CircuitTemplate(6, 5, parts),
        dict(
            family="wielomianer",
            n=4,
            oracle_calls=1,
            data_clbits=[0, 1, 2, 3],
            aux_clbits=[4],
            wires="q1,q2,a,q3,q4,extra",
            diffuser_phase="-1",
        ),
    )


# one builder per family, each the one-mask case of build_masks -------------

def build_grover(spec: OracleSpec, iterations: int = 1) -> Circuit:
    """H-wall, then (oracle; full diffuser) repeated, then measurement."""
    return build(FamilyRequest("grover", spec, iterations=iterations))


def build_partial(spec: OracleSpec, diffuser_size: int | None) -> Circuit:
    """Single oracle call followed by a diffuser on the first k of the n qubits."""
    return build(FamilyRequest("partial", spec, diffuser_size=diffuser_size))


def build_wojter(
    spec: OracleSpec, partition: Partition | None, uncompute: str = "partial", fused: bool = False
) -> Circuit:
    """Block-search circuit: block-2 sub-iterations build a block-1 oracle.

    The default layout interleaves four oracle calls with block diffusers;
    with fused=True the exact algebraic collapse is emitted instead (the
    three-call sub-iteration body equals a single polarized reflection on
    block 1), trading the query structure for a much lower 2-qubit count.
    """
    return build(
        FamilyRequest("wojter", spec, partition=partition, uncompute=uncompute, fused=fused)
    )


def build_wojter_aa(
    spec: OracleSpec, partition: Partition | None, uncompute: str = "partial"
) -> Circuit:
    """Wojter followed by one full oracle + full-register diffuser round."""
    return build(FamilyRequest("wojter-aa", spec, partition=partition, uncompute=uncompute))


def build_drzewker(
    spec: OracleSpec, partition: Partition | None, uncompute: str = "partial"
) -> Circuit:
    """Same block structure as wojter with one sub-iteration group fewer."""
    return build(FamilyRequest("drzewker", spec, partition=partition, uncompute=uncompute))


def build_partial_drzewker(
    spec: OracleSpec, partition: Partition | None, uncompute: str = "partial"
) -> Circuit:
    """Drzewker truncated after its first two diffusers; ancilla uncomputed."""
    return build(FamilyRequest("partial-drzewker", spec, partition=partition, uncompute=uncompute))


def build_wielomianer_p43(spec: OracleSpec) -> Circuit:
    """The machine-generated 4-qubit circuit with one mid-circuit measurement (_wielomianer)."""
    return build(FamilyRequest("wielomianer", spec))
