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
from functools import cached_property
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

    def measure(self, q, c):
        return self.add(measure(q, c))

    def build(self) -> Circuit:
        return Circuit._trusted(
            self.n_qubits,
            self.n_clbits,
            tuple(self._instructions),
            dict(self._metadata),
        )


@dataclass(frozen=True)
class Hole:
    """One gate of a CircuitTemplate that follows the key, a mask string.

    An "x" hole is the X on its qubit for a key whose bit bits[0] is "0",
    and nothing for a "1".  A "cx" or "cz" hole is the gate on its qubits
    (target last for cx) whose control j takes polarity int(key[bits[j]]),
    or 1 where bits[j] is None, as the cx or cz constructor makes it.
    Either is under condition when it has one.
    """

    name: str
    qubits: tuple[int, ...]
    bits: tuple[int | None, ...]
    condition: tuple[int, int] | None = None

    def __post_init__(self):
        if self.name not in ("x", "cx", "cz"):
            raise ValidationError(f"a template hole is an x, cx or cz, not {self.name!r}")
        if self.name == "x":
            if len(self.qubits) != 1 or len(self.bits) != 1 or self.bits[0] is None:
                raise ValidationError("an x template hole takes one qubit and its key bit")
        elif len(self.bits) != len(self.qubits) - (self.name == "cx"):
            raise ValidationError(f"a {self.name} template hole takes a key bit or None per control")

    @cached_property
    def instruction(self) -> Instruction:
        """What the hole makes with every control at polarity 1: the X of an
        "x" hole, or the all-ones cx or cz; CircuitTemplate checks it."""
        return Instruction({"x": x, "cx": cx, "cz": cz}[self.name](*self.qubits), self.condition)

    def made(self, key: str) -> tuple[Instruction, ...]:
        """The instructions the hole makes for key: none or one."""
        if self.name == "x":
            return (self.instruction,) if key[self.bits[0]] == "0" else ()
        polarity = tuple(1 if b is None else int(key[b]) for b in self.bits)
        gate = (cx if self.name == "cx" else cz)(*self.qubits, polarity=polarity)
        return (Instruction(gate, self.condition),)


class CircuitTemplate:
    """Circuits that share all but a few gates, each made by filling one
    template for its key, a mask string.

    `parts` lists, in circuit order, gate lists and holes (Hole).  Each is
    checked once, here, as CircuitBuilder.extend checks it: a gate list
    (Gates or Instructions) gate by gate, and a hole as its instruction
    (Hole.instruction).  What a hole makes for any key is nothing or that
    instruction with other polarities, and it measures nothing, so the bits
    written before every instruction, and with them every check, are the
    same for every key.
    """

    def __init__(self, n_qubits: int, n_clbits: int, parts) -> None:
        builder = CircuitBuilder(n_qubits, n_clbits)
        done = builder._instructions
        self.n_qubits, self.n_clbits = n_qubits, n_clbits
        self._fixed: list[tuple[Instruction, ...]] = []  # the gates around the holes
        self._holes: list[Hole] = []
        start = 0
        for part in parts:
            if isinstance(part, Hole):
                _validate_instruction(n_qubits, n_clbits, builder._written, part.instruction)
                self._fixed.append(tuple(done[start:]))
                start = len(done)
                self._holes.append(part)
            else:
                builder.extend(part)
        self._fixed.append(tuple(done[start:]))

    @classmethod
    def _trusted(
        cls, n_qubits: int, n_clbits: int, fixed: list, holes: list
    ) -> "CircuitTemplate":
        """Make a template of checked fixed parts and holes without checking them again."""
        template = object.__new__(cls)
        template.n_qubits, template.n_clbits = n_qubits, n_clbits
        template._fixed, template._holes = fixed, holes
        return template

    @classmethod
    def of(cls, circuit: Circuit) -> "CircuitTemplate":
        """The template without holes whose fill, for any key, is circuit."""
        return cls._trusted(circuit.n_qubits, circuit.n_clbits, [circuit.instructions], [])

    def _kept(self, key) -> tuple[list[bool] | None, list[tuple[Instruction, ...]]]:
        """What the fill for key keeps: a flag per fixed instruction, over
        every fixed part in order (None: every one is kept), and the
        instructions each hole makes."""
        return None, [hole.made(key) for hole in self._holes]

    def _assemble(self, flags, made) -> list[Instruction]:
        """The fill that _kept's flags and hole instructions describe."""
        out, at = [], 0
        for part, slot in zip(self._fixed, [*made, ()]):
            out += part if flags is None else [i for i, k in zip(part, flags[at:at + len(part)]) if k]
            at += len(part)
            out += slot
        return out

    def fill(self, key, metadata: dict | None = None) -> Circuit:
        """The circuit with every hole filled for key; it keeps metadata as given."""
        out = self._assemble(*self._kept(key))
        return Circuit._trusted(self.n_qubits, self.n_clbits, tuple(out), metadata or {})

    def tidied(self, probe, check) -> "CircuitTemplate":
        """The template whose fill for each key is what peephole_cancel and
        strip_trailing_uncompute keep of this template's fill for that key.

        The passes run once, by position, on the fill for probe, for which
        every hole makes its gate, keeping the fixed instructions and holes
        they keep.  That is right only when what they keep does not depend
        on the key, so InternalError refuses a fill for check, for which
        the holes make the fewest gates, other than what the passes make of
        this template's.
        """
        _, made = self._kept(probe)
        ops = self._assemble(None, made)
        kept = _cancel_flags(ops, self.n_qubits, self.n_clbits)
        survivors = [j for j, k in enumerate(kept) if k]
        for j, k in zip(survivors, _strip_flags([ops[j] for j in survivors], self.n_qubits)):
            kept[j] = k
        fixed, holes, at = [()], [], 0
        for part, hole, slot in zip(self._fixed, [*self._holes, None], [*made, ()]):
            fixed[-1] += tuple(i for i, k in zip(part, kept[at:at + len(part)]) if k)
            at += len(part) + len(slot)
            if hole is not None and all(kept[at - len(slot):at]):
                holes.append(hole)
                fixed.append(())
        tidied = CircuitTemplate._trusted(self.n_qubits, self.n_clbits, fixed, holes)
        passes = strip_trailing_uncompute(peephole_cancel(self.fill(check)))
        if passes.instructions != tidied.fill(check).instructions:
            raise InternalError(
                f"partial uncompute: the passes keep other gates for key {check!r}"
            )
        return tidied


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
    kept = _cancel_flags(ops, circuit.n_qubits, circuit.n_clbits)
    return circuit._with_instructions(tuple(op for op, k in zip(ops, kept) if k))


def _cancel_flags(ops, n_qubits: int, n_clbits: int) -> list[bool]:
    """peephole_cancel's decision for each of the instructions ops: kept or not."""
    qubit_stacks: list[list[int]] = [[] for _ in range(n_qubits)]
    clbit_stacks: list[list[int]] = [[] for _ in range(n_clbits)]
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
    return kept


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
    keep = _strip_flags(ops, circuit.n_qubits)
    return circuit._with_instructions(tuple(op for op, k in zip(ops, keep) if k))


def _strip_flags(ops, n_qubits: int) -> list[bool]:
    """strip_trailing_uncompute's decision for each of the instructions ops: kept or not."""
    classical = set(range(n_qubits))
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
    return keep
