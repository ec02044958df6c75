"""Circuit intermediate representation.

Gates carry control polarity directly (1 = control on |1>, 0 = control on
|0>); a later lowering step expands polarities into X conjugation so that
adjacent X pairs can be cancelled.  Circuits are immutable values; use
CircuitBuilder for incremental construction.

Bit-order convention: qubit 0 is the most significant bit of a pattern
string, so pattern "10110" marks q0=1, q1=0, q2=1, q3=1, q4=0 and the
corresponding basis index is int("10110", 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from .errors import (
    IndexOutOfRange,
    InternalError,
    NotLowered,
    RewrittenClassicalBit,
    UnwrittenClassicalBit,
    ValidationError,
)

# Gate names understood by the IR.  'cx' covers 1..k controls (target last),
# 'cz' is the symmetric multi-controlled Z on >= 2 qubits.
GATE_NAMES = frozenset({"h", "x", "z", "rz", "cx", "cz", "measure", "barrier"})
_SELF_INVERSE = frozenset({"h", "x", "z", "cx", "cz"})


@dataclass(frozen=True)
class Gate:
    """One primitive operation on named qubit wires."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None  # rz only
    polarity: tuple[int, ...] | None = None  # cx: per control; cz: per qubit
    clbit: int | None = None  # measure only

    def controls(self) -> tuple[int, ...]:
        if self.name == "cx":
            return self.qubits[:-1]
        if self.name == "cz":
            return self.qubits
        return ()

    def effective_polarity(self) -> tuple[int, ...]:
        if self.polarity is not None:
            return self.polarity
        return (1,) * len(self.controls())


def _check_distinct(qubits: tuple[int, ...]) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValidationError(f"duplicate qubit in gate operands {qubits}")


def h(q: int) -> Gate:
    return Gate("h", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def z(q: int) -> Gate:
    return Gate("z", (q,))


def rz(angle: float, q: int) -> Gate:
    return Gate("rz", (q,), angle=float(angle))


def cx(*qubits: int, polarity: tuple[int, ...] | None = None) -> Gate:
    """Multi-controlled X; last operand is the target."""
    if len(qubits) < 2:
        raise ValidationError("cx needs at least one control and a target")
    _check_distinct(qubits)
    if polarity is not None:
        polarity = tuple(polarity)
        if len(polarity) != len(qubits) - 1:
            raise ValidationError("cx polarity must cover the controls")
        if any(p not in (0, 1) for p in polarity):
            raise ValidationError("polarity entries must be 0 or 1")
        if all(p == 1 for p in polarity):
            polarity = None
    return Gate("cx", tuple(qubits), polarity=polarity)


def cz(*qubits: int, polarity: tuple[int, ...] | None = None) -> Gate:
    """Symmetric C^{k-1}Z: -1 on the basis state matching all polarities."""
    if len(qubits) < 2:
        raise ValidationError("cz needs at least two qubits")
    _check_distinct(qubits)
    if polarity is None:
        order = sorted(qubits)
        return Gate("cz", tuple(order))
    polarity = tuple(polarity)
    if len(polarity) != len(qubits):
        raise ValidationError("cz polarity must cover every qubit")
    if any(p not in (0, 1) for p in polarity):
        raise ValidationError("polarity entries must be 0 or 1")
    pairs = sorted(zip(qubits, polarity))
    qs = tuple(q for q, _ in pairs)
    pol = tuple(p for _, p in pairs)
    if all(p == 1 for p in pol):
        pol = None
    return Gate("cz", qs, polarity=pol)


def measure(q: int, clbit: int) -> Gate:
    return Gate("measure", (q,), clbit=clbit)


def barrier() -> Gate:
    return Gate("barrier", ())


@dataclass(frozen=True)
class Instruction:
    """A gate plus an optional classical condition (clbit, required value)."""

    gate: Gate
    condition: tuple[int, int] | None = None


@dataclass(frozen=True)
class Circuit:
    """An immutable circuit; made directly, it checks every instruction as CircuitBuilder does."""

    n_qubits: int
    n_clbits: int
    instructions: tuple[Instruction, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_qubits < 0 or self.n_clbits < 0:
            raise ValidationError("register sizes must be non-negative")
        written: dict[int, list[tuple[int, int] | None]] = {}
        for instr in self.instructions:
            _validate_instruction(self.n_qubits, self.n_clbits, written, instr)

    @classmethod
    def _trusted(
        cls, n_qubits: int, n_clbits: int, instructions: tuple[Instruction, ...], metadata: dict
    ) -> "Circuit":
        """Make a Circuit without checking it again.

        For the builder and for passes whose output is valid whenever their
        input is: each keeps or rewrites instructions of a checked circuit.
        """
        circuit = object.__new__(cls)
        circuit.__dict__.update(
            n_qubits=n_qubits, n_clbits=n_clbits, instructions=instructions, metadata=metadata
        )
        return circuit

    def _with_instructions(self, instructions: tuple[Instruction, ...]) -> "Circuit":
        return Circuit._trusted(self.n_qubits, self.n_clbits, instructions, self.metadata)

    def with_metadata(self, **kv) -> "Circuit":
        md = dict(self.metadata)
        md.update(kv)
        return Circuit._trusted(self.n_qubits, self.n_clbits, self.instructions, md)


def _validate_instruction(
    n_qubits: int,
    n_clbits: int,
    written: dict[int, list[tuple[int, int] | None]],
    instr: Instruction,
) -> None:
    if not isinstance(instr, Instruction):
        raise ValidationError(f"{instr!r} is not an Instruction")
    gate = instr.gate
    if gate.name not in GATE_NAMES:
        raise ValidationError(f"unknown gate {gate.name!r}")
    for q in gate.qubits:
        if not 0 <= q < n_qubits:
            raise IndexOutOfRange(f"qubit {q} outside register of size {n_qubits}")
    if len(gate.qubits) > 1:
        _check_distinct(gate.qubits)
    if gate.name == "rz" and not isfinite(gate.angle):
        raise ValidationError(f"rz angle {gate.angle} is not finite")
    if instr.condition is not None:
        bit, value = instr.condition
        if not 0 <= bit < n_clbits:
            raise IndexOutOfRange(f"classical bit {bit} outside register")
        if value not in (0, 1):
            raise ValidationError("condition value must be 0 or 1")
        if bit not in written:
            raise UnwrittenClassicalBit(
                f"condition reads classical bit {bit} before any measurement wrote it"
            )
    if gate.name == "measure":
        bit = gate.clbit
        if bit is None or not 0 <= bit < n_clbits:
            raise IndexOutOfRange(f"classical bit {bit} outside register")
        for prev_cond in written.get(bit, []):
            cond = instr.condition
            exclusive = (
                prev_cond is not None
                and cond is not None
                and prev_cond[0] == cond[0]
                and prev_cond[1] != cond[1]
            )
            if not exclusive:
                raise RewrittenClassicalBit(
                    f"classical bit {bit} written twice on one branch path"
                )
        written.setdefault(bit, []).append(instr.condition)


class CircuitBuilder:
    """Single-threaded incremental builder; build() freezes to a Circuit."""

    def __init__(self, n_qubits: int, n_clbits: int = 0, metadata: dict | None = None):
        self.n_qubits = n_qubits
        self.n_clbits = n_clbits
        self._instructions: list[Instruction] = []
        self._written: dict[int, list[tuple[int, int] | None]] = {}
        self._metadata = dict(metadata or {})

    def add(self, gate: Gate, condition: tuple[int, int] | None = None) -> "CircuitBuilder":
        return self._append(Instruction(gate, condition))

    def _append(self, instr: Instruction) -> "CircuitBuilder":
        _validate_instruction(self.n_qubits, self.n_clbits, self._written, instr)
        self._instructions.append(instr)
        return self

    def extend(self, gates, condition: tuple[int, int] | None = None) -> "CircuitBuilder":
        for g in gates:
            if isinstance(g, Instruction):
                self._append(g if condition is None else Instruction(g.gate, condition))
            else:
                self.add(g, condition)
        return self

    def h(self, q):
        return self.add(h(q))

    def x(self, q):
        return self.add(x(q))

    def z(self, q):
        return self.add(z(q))

    def rz(self, angle, q):
        return self.add(rz(angle, q))

    def cx(self, *qs, polarity=None):
        return self.add(cx(*qs, polarity=polarity))

    def cz(self, *qs, polarity=None):
        return self.add(cz(*qs, polarity=polarity))

    def measure(self, q, c):
        return self.add(measure(q, c))

    def barrier(self):
        return self.add(barrier())

    def metadata(self, **kv):
        self._metadata.update(kv)
        return self

    def build(self) -> Circuit:
        return Circuit._trusted(
            self.n_qubits,
            self.n_clbits,
            tuple(self._instructions),
            dict(self._metadata),
        )


class CircuitTemplate:
    """Circuits that share all but a few gates, each made by filling one template.

    `parts` lists, in circuit order, gate lists and holes.  A gate list
    (Gates or Instructions) is checked once, here, as CircuitBuilder.extend
    checks it.  A hole is a function of the key that `fill` gets; the gates
    it returns are checked at every fill, against the classical bits
    written before the hole.  This is sound because a hole may not
    measure: it writes no classical bit, so the bits written before every
    instruction, and with them the classical checks of the fixed gates
    (bits written, conditions read), are the same for every key.
    """

    def __init__(self, n_qubits: int, n_clbits: int, parts) -> None:
        builder = CircuitBuilder(n_qubits, n_clbits)
        done = builder._instructions
        self.n_qubits, self.n_clbits = n_qubits, n_clbits
        self._fixed: list[tuple[Instruction, ...]] = []  # the gates around the holes
        self._holes: list[tuple] = []  # (hole, the bits written before it)
        start = 0
        for part in parts:
            if callable(part):
                self._fixed.append(tuple(done[start:]))
                start = len(done)
                written = {bit: list(conds) for bit, conds in builder._written.items()}
                self._holes.append((part, written))
            else:
                builder.extend(part)
        self._fixed.append(tuple(done[start:]))

    @classmethod
    def _trusted(
        cls, n_qubits: int, n_clbits: int, fixed: list, holes: list
    ) -> "CircuitTemplate":
        """Make a template of checked fixed parts without checking them again."""
        template = object.__new__(cls)
        template.n_qubits, template.n_clbits = n_qubits, n_clbits
        template._fixed, template._holes = fixed, holes
        return template

    @classmethod
    def of(cls, circuit: Circuit) -> "CircuitTemplate":
        """The template without holes whose fill, for any key, is circuit."""
        return cls._trusted(circuit.n_qubits, circuit.n_clbits, [circuit.instructions], [])

    def _made(self, hole, written, key) -> list[Instruction]:
        """The instructions hole makes for key, each checked."""
        made = []
        for gate in hole(key):
            instr = gate if isinstance(gate, Instruction) else Instruction(gate)
            if instr.gate.name == "measure":
                raise ValidationError("a template hole cannot measure")
            _validate_instruction(self.n_qubits, self.n_clbits, written, instr)
            made.append(instr)
        return made

    def fill(self, key, metadata: dict) -> Circuit:
        """The circuit with every hole filled for key; it keeps metadata as given."""
        out = list(self._fixed[0])
        for (hole, written), fixed in zip(self._holes, self._fixed[1:]):
            out += self._made(hole, written, key)
            out += fixed
        return Circuit._trusted(self.n_qubits, self.n_clbits, tuple(out), metadata)

    def _kept(self, key) -> list[list[bool]]:
        """What peephole_cancel and strip_trailing_uncompute keep of the fill
        for key: for the first fixed part, then each hole and the fixed
        part after it, a flag per instruction.

        Each instruction of the fill is made a fresh object, so that the
        kept ones map back by identity: fixed parts reuse objects.
        """
        parts = [self._fixed[0]]
        for (hole, written), fixed in zip(self._holes, self._fixed[1:]):
            parts += [self._made(hole, written, key), fixed]
        fresh = [[Instruction(i.gate, i.condition) for i in part] for part in parts]
        circuit = Circuit._trusted(
            self.n_qubits, self.n_clbits, tuple(i for part in fresh for i in part), {}
        )
        kept = {id(i) for i in strip_trailing_uncompute(peephole_cancel(circuit)).instructions}
        return [[id(i) in kept for i in part] for part in fresh]

    def tidied(self, probe, check) -> "CircuitTemplate":
        """The template whose fill for each key is what peephole_cancel and
        strip_trailing_uncompute keep of this template's fill for that key.

        The two passes run once, on the fill for probe, for which every
        hole makes its gates.  The new template keeps the fixed
        instructions they keep and the holes all of whose gates they keep.
        That is right for every key only when what the passes keep of the
        fixed parts and of each hole does not depend on the key, so it
        raises InternalError for a hole whose gates are only partly kept,
        and when the passes keep anything else of the fill for check, for
        which the holes make the fewest gates.
        """
        flags = self._kept(probe)
        for j, made in enumerate(flags[1::2]):
            if any(made) and not all(made):
                raise InternalError(
                    f"partial uncompute: the passes keep only part of template hole {j}"
                )
        keep = [all(made) for made in flags[1::2]]
        checked = self._kept(check)
        # the probe's flags for the fixed parts, and each hole's decision for its gates
        expected = [
            [keep[j // 2]] * len(made) if j % 2 else flags[j] for j, made in enumerate(checked)
        ]
        if checked != expected:
            raise InternalError(
                f"partial uncompute: the passes keep other gates for key {check!r}"
            )
        fixed = [tuple(i for i, k in zip(self._fixed[0], flags[0]) if k)]
        holes = []
        for hole, part, flag, kept_hole in zip(self._holes, self._fixed[1:], flags[2::2], keep):
            kept = tuple(i for i, k in zip(part, flag) if k)
            if kept_hole:
                holes.append(hole)
                fixed.append(kept)
            else:
                fixed[-1] += kept
        return CircuitTemplate._trusted(self.n_qubits, self.n_clbits, fixed, holes)


@dataclass(frozen=True)
class GateCensus:
    two_qubit_count: int
    one_qubit_count: int
    measure_count: int
    by_kind: dict


def census(circuit: Circuit) -> GateCensus:
    """Count gates of a fully lowered circuit (1- and 2-qubit gates only)."""
    two = one = meas = 0
    by_kind: dict[str, int] = {}
    for i, instr in enumerate(circuit.instructions):
        gate = instr.gate
        if gate.name == "barrier":
            continue
        if gate.name == "measure":
            meas += 1
            by_kind["measure"] = by_kind.get("measure", 0) + 1
            continue
        if len(gate.qubits) >= 3:
            raise NotLowered(i, f"{gate.name} on {len(gate.qubits)} qubits not lowered")
        if len(gate.qubits) == 2:
            two += 1
        else:
            one += 1
        by_kind[gate.name] = by_kind.get(gate.name, 0) + 1
    return GateCensus(two, one, meas, by_kind)


def _inverse_pair(a: Instruction, b: Instruction) -> bool:
    if a.condition != b.condition:
        return False
    ga, gb = a.gate, b.gate
    if ga.qubits != gb.qubits or ga.name != gb.name:
        return False
    if ga.name in _SELF_INVERSE:
        return ga.polarity == gb.polarity
    if ga.name == "rz":
        return gb.angle == -ga.angle
    return False


def peephole_cancel(circuit: Circuit) -> Circuit:
    """Remove inverse pairs separated only by support-disjoint instructions.

    One forward pass: every qubit and classical bit keeps a stack of the
    kept instructions on it.  A gate cancels against the instruction on top
    of all its stacks when the two form an inverse pair; popping that pair
    exposes the earlier instructions, so nested pairs cancel in the same
    pass.  A barrier fences every qubit and a condition's bit counts as
    support.  The result is unitarily equivalent to the input, never has a
    larger gate census, and a second call removes nothing.
    """
    ops = circuit.instructions
    qubit_stacks: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
    clbit_stacks: list[list[int]] = [[] for _ in range(circuit.n_clbits)]
    kept = [True] * len(ops)
    for j, instr in enumerate(ops):
        gate = instr.gate
        if len(gate.qubits) == 1 and gate.clbit is None and instr.condition is None:
            s = qubit_stacks[gate.qubits[0]]  # an unconditioned one-qubit gate: one stack
            if s and _inverse_pair(ops[s[-1]], instr):
                kept[s.pop()] = kept[j] = False
            else:
                s.append(j)
            continue
        if gate.name == "barrier":
            stacks = qubit_stacks
        else:
            stacks = [qubit_stacks[q] for q in gate.qubits]
            if gate.name == "measure":
                stacks.append(clbit_stacks[gate.clbit])
            if instr.condition is not None and instr.condition[0] != gate.clbit:
                stacks.append(clbit_stacks[instr.condition[0]])
        top = stacks[0][-1] if stacks and stacks[0] else None
        for s in stacks[1:]:
            if not s or s[-1] != top:
                top = None  # the stacks disagree
                break
        if top is not None and _inverse_pair(ops[top], instr):
            for s in stacks:
                s.pop()
            kept[top] = kept[j] = False
        else:
            for s in stacks:
                s.append(j)
    return circuit._with_instructions(tuple(op for op, k in zip(ops, kept) if k))


# Wires a gate preserves in the computational basis (controls / diagonals)
# versus wires it acts on non-trivially.
def _active_qubits(gate: Gate) -> frozenset[int]:
    if gate.name in ("z", "rz", "cz"):
        return frozenset()
    if gate.name == "cx":
        return frozenset(gate.qubits[-1:])
    return frozenset(gate.qubits)


def strip_trailing_uncompute(circuit: Circuit) -> Circuit:
    """Drop tail gates that cannot influence any recorded measurement.

    Scanning backwards, a wire is dead while nothing kept after it touches
    it, and classical while everything kept after it is measurement or an
    x / cx on classical wires only.  An unconditioned gate is dropped when
    its active wires are dead and its other wires (controls, diagonal
    phases) are classical: it can only move amplitude within a dead wire or
    change phases that no later gate turns into populations.  Typical
    target: the final ancilla uncompute before terminal data measurements.
    A circuit without measurements measures every wire at the end.  Output
    is equivalent in distribution, not as a unitary.
    """
    ops = circuit.instructions
    classical = set(range(circuit.n_qubits))
    measured = any(op.gate.name == "measure" for op in ops)
    dead = set(classical) if measured else set()
    keep = [True] * len(ops)
    for i in range(len(ops) - 1, -1, -1):
        instr = ops[i]
        gate = instr.gate
        qubits = set(gate.qubits)
        if gate.name == "measure":
            dead -= qubits
            continue
        if gate.name == "barrier":
            continue
        active = _active_qubits(gate)
        if instr.condition is None and active <= dead and qubits - active <= classical:
            keep[i] = False
            continue
        dead -= qubits
        if gate.name not in ("x", "cx") or not qubits <= classical:
            classical -= qubits
    out = tuple(op for op, k in zip(ops, keep) if k)
    return circuit._with_instructions(out)
