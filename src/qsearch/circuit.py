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

from dataclasses import dataclass, field, replace
from math import isfinite

from .errors import (
    IndexOutOfRange,
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
    n_qubits: int
    n_clbits: int
    instructions: tuple[Instruction, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_qubits < 0 or self.n_clbits < 0:
            raise ValidationError("register sizes must be non-negative")

    def with_metadata(self, **kv) -> "Circuit":
        md = dict(self.metadata)
        md.update(kv)
        return replace(self, metadata=md)


def _validate_instruction(
    n_qubits: int,
    n_clbits: int,
    written: dict[int, list[tuple[int, int] | None]],
    instr: Instruction,
) -> None:
    gate = instr.gate
    if gate.name not in GATE_NAMES:
        raise ValidationError(f"unknown gate {gate.name!r}")
    for q in gate.qubits:
        if not 0 <= q < n_qubits:
            raise IndexOutOfRange(f"qubit {q} outside register of size {n_qubits}")
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
        instr = Instruction(gate, condition)
        _validate_instruction(self.n_qubits, self.n_clbits, self._written, instr)
        self._instructions.append(instr)
        return self

    def extend(self, gates, condition: tuple[int, int] | None = None) -> "CircuitBuilder":
        for g in gates:
            if isinstance(g, Instruction):
                cond = g.condition if condition is None else condition
                self.add(g.gate, cond)
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
        return Circuit(
            self.n_qubits,
            self.n_clbits,
            tuple(self._instructions),
            dict(self._metadata),
        )


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


def _support(instr: Instruction, n_qubits: int) -> tuple[frozenset[int], frozenset[int]]:
    """(qubit support, classical-bit support); barrier fences every wire."""
    gate = instr.gate
    if gate.name == "barrier":
        return frozenset(range(n_qubits)), frozenset()
    clbits = set()
    if gate.name == "measure":
        clbits.add(gate.clbit)
    if instr.condition is not None:
        clbits.add(instr.condition[0])
    return frozenset(gate.qubits), frozenset(clbits)


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
        qs, cs = _support(instr, circuit.n_qubits)
        stacks = [qubit_stacks[q] for q in qs] + [clbit_stacks[c] for c in cs]
        tops = {s[-1] if s else None for s in stacks}
        top = tops.pop() if len(tops) == 1 else None
        if top is not None and _inverse_pair(ops[top], instr):
            for s in stacks:
                s.pop()
            kept[top] = kept[j] = False
        else:
            for s in stacks:
                s.append(j)
    return replace(circuit, instructions=tuple(op for op, k in zip(ops, kept) if k))


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
    return replace(circuit, instructions=out)
