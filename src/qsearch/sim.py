"""Dense statevector simulation.

Exact mode enumerates mid-circuit measurement branches with Born-rule
weights, for every key of a circuit template in one walk over it
(run_exact_template); a plain circuit is a template without holes.  Noisy
mode samples Monte-Carlo trajectories with depolarizing Pauli insertions
and readout flips, for many circuits of one width at once.  Both keep
their branches or trajectories as the rows of one table (_Rows): a
(capacity, 2^n) complex batch with, per row, an owning key or circuit, its
recorded classical bits and a mass, the Born-rule weight of a branch or
the number of trajectories on a row.  A measurement splits rows into spare
capacity.  A row's flat index uses qubit 0 as the most significant bit.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import sqrt
from operator import attrgetter

import numpy as np

from .circuit import Circuit, CircuitTemplate, Instruction, census
from .errors import (
    InternalError,
    OverBudget,
    QsearchError,
    TooWide,
    UndefinedGateSemantics,
    ValidationError,
)

MAX_EXACT_WIDTH = 24
MAX_NOISY_BYTES = 1 << 30  # what one trajectory chunk may hold at once (_NoisyPlan.chunk_bytes)
TRAJECTORY_CHUNK = 8192  # fixed, so trajectory t's draws never depend on the shot total
_NORM_TOL = 1e-12
_BLOCK = 1 << 20  # amplitudes per block of rows that a gate or collapse works on


@dataclass
class NoiseModel:
    """Depolarizing rates per gate plus classical readout flip probability."""

    p1: float = 0.0
    p2: float = 0.0
    p_meas: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "p_meas"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"noise rate {name}={v} outside [0, 1]")


@dataclass
class Distribution:
    """Probabilities (exact) or counts (sampled) over n_bits-bit outcomes.

    Outcome index uses bit 0 as the most significant bit, matching pattern
    strings.
    """

    n_bits: int
    probabilities: np.ndarray | None = None
    counts: np.ndarray | None = None
    shots: int | None = None

    def __post_init__(self):
        dim = 1 << self.n_bits
        if self.probabilities is not None:
            self.probabilities = np.asarray(self.probabilities, dtype=float)
            if self.probabilities.shape != (dim,):
                raise ValidationError("probability vector has wrong length")
            if not abs(self.probabilities.sum() - 1.0) <= 1e-12:  # NaN fails too
                raise ValidationError("exact probabilities must sum to 1")
        if self.counts is not None:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (dim,):
                raise ValidationError("count vector has wrong length")
            if self.shots is None or self.counts.sum() != self.shots:
                raise ValidationError("counts must sum to the shot total")
        if (self.probabilities is None) == (self.counts is None):
            raise ValidationError("exactly one of probabilities/counts required")

    @property
    def exact(self) -> bool:
        return self.probabilities is not None

    def as_probabilities(self) -> np.ndarray:
        if self.exact:
            return self.probabilities
        return self.counts / self.shots

    def probability(self, outcome: int) -> float:
        return float(self.as_probabilities()[outcome])

    def marginal(self, keep_bits: list[int]) -> "Distribution":
        """Marginal over the kept bit positions, in the order given."""
        keep_bits = list(keep_bits)
        if len(set(keep_bits)) != len(keep_bits):
            raise ValidationError(f"marginal bits {keep_bits} repeat a bit")
        if any(not 0 <= b < self.n_bits for b in keep_bits):
            raise ValidationError(f"marginal bits {keep_bits} outside 0..{self.n_bits - 1}")
        arr = self.probabilities if self.exact else self.counts
        marg = _marginal(arr[None], self.n_bits, keep_bits)[0]
        if self.exact:
            return Distribution(len(keep_bits), probabilities=marg / marg.sum())
        return Distribution(len(keep_bits), counts=marg, shots=self.shots)


def _marginal(batch: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Sum each row of a (B, 2^n) batch over the bits not kept; the
    (B, 2^len(keep)) result orders its bits as keep does."""
    shaped = batch.reshape((len(batch),) + (2,) * n)
    drop = tuple(i + 1 for i in range(n) if i not in keep)
    if drop:
        shaped = shaped.sum(axis=drop)
    kept = sorted(keep)
    return shaped.transpose([0] + [kept.index(b) + 1 for b in keep]).reshape(len(batch), -1)


# gate application ---------------------------------------------------------

_SQRT_HALF = sqrt(0.5)


def _at(n: int, fixed, rows=slice(None)) -> tuple:
    """Index of a (B, 2, ..., 2) view: the given rows, with the given
    (wire, value) pairs fixed."""
    idx = [rows] + [slice(None)] * n
    for q, v in fixed:
        idx[q + 1] = v
    return tuple(idx)


def _apply_gate(state: np.ndarray, gate, n: int) -> None:
    """Apply one gate in place to a C-contiguous (B, 2^n) batch.

    The gate fixes some wires of the (B, 2, ..., 2) view (its controls with
    their polarities) and acts on the remaining slice: a phase, a swap of
    the target's 0 and 1 slices, or a Hadamard mix of those two slices.
    """
    name = gate.name
    if name == "barrier":
        return
    view = state.reshape((state.shape[0],) + (2,) * n)
    qubits = gate.qubits
    if name in ("z", "rz", "cz"):
        polarity = gate.effective_polarity() if name == "cz" else (1,)
        phase = np.exp(1j * gate.angle) if name == "rz" else -1.0
        view[_at(n, zip(qubits, polarity))] *= phase
        return
    if name not in ("x", "cx", "h"):
        raise UndefinedGateSemantics(f"no matrix semantics for {name!r}")
    polarity = gate.effective_polarity() if name == "cx" else ()  # h and x have no controls
    fixed = tuple(zip(qubits[:-1], polarity))
    lo = view[_at(n, (*fixed, (qubits[-1], 0)))]
    hi = view[_at(n, (*fixed, (qubits[-1], 1)))]
    if name == "h":
        diff = lo - hi
        lo += hi
        lo *= _SQRT_HALF
        diff *= _SQRT_HALF
        hi[...] = diff
        return
    lo_copy = lo.copy()
    lo[...] = hi
    hi[...] = lo_copy


# rows of a batch -------------------------------------------------------------

def _apply_rows(state: np.ndarray, gate, n: int, rows: np.ndarray | None = None) -> None:
    """Apply one gate in place to the given rows of a (B, 2^n) batch, or to
    all of them when rows is None, by _BLOCK."""
    step = max(1, _BLOCK >> n)
    if rows is None or rows.size == len(state):
        for i in range(0, len(state), step):
            _apply_gate(state[i:i + step], gate, n)  # a view of the batch
        return
    for i in range(0, rows.size, step):
        sub = state[rows[i:i + step]]
        _apply_gate(sub, gate, n)
        state[rows[i:i + step]] = sub


def _collapse(state: np.ndarray, n: int, rows: np.ndarray, q: int, value: int) -> None:
    """Project the given rows onto wire q = value and renormalise each, by _BLOCK."""
    state.reshape((len(state),) + (2,) * n)[_at(n, ((q, 1 - value),), rows)] = 0.0
    step = max(1, _BLOCK >> n)
    for i in range(0, rows.size, step):
        block = rows[i:i + step]
        state[block] /= np.linalg.norm(state[block], axis=1)[:, None]


def _outcome_index(clbits: np.ndarray) -> np.ndarray:
    """Outcome index of each row of a (B, n_bits) clbit table, bit 0 most significant."""
    return clbits.astype(np.int64) @ (1 << np.arange(clbits.shape[1] - 1, -1, -1))


# many circuits in one batch --------------------------------------------------

# the fields that make two instructions equal, as one tuple
_instruction_key = attrgetter(
    "gate.name", "gate.qubits", "gate.angle", "gate.polarity", "gate.clbit", "condition")


def _shared_width(circuits: list[Circuit]) -> int:
    n = circuits[0].n_qubits
    if any(c.n_qubits != n for c in circuits):
        widths = sorted({c.n_qubits for c in circuits})
        raise ValidationError(f"circuits of one batch must share a width, got {widths} qubits")
    return n


def _groups(items: list, sizes: list[int], budget: int):
    """Consecutive runs of items, in order, each holding items while their
    sizes sum to at most budget, and at least one item."""
    group, total = [], 0
    for item, size in zip(items, sizes):
        if group and total + size > budget:
            yield group
            group, total = [], 0
        group.append(item)
        total += size
    if group:
        yield group


def _blame(exc: QsearchError, circuit: int) -> QsearchError:
    if exc.circuit is None:
        exc.circuit = circuit
    return exc


def _in_groups(run, sizes: list[int], budget: int) -> list:
    """run(group) on each consecutive group of circuit indices (_groups), in
    order; an error's circuit, an index into its group, becomes one into all."""
    out = []
    for group in _groups(range(len(sizes)), sizes, budget):
        try:
            out += run(group)
        except QsearchError as exc:
            if exc.circuit is not None:
                exc.circuit = group[exc.circuit]
            raise
    return out


def _schedule(bodies: list[list[Instruction]]):
    """Step through many instruction lists at once, each equal instruction once.

    Each list keeps a pointer to its next instruction.  Each step takes the
    instruction that the list furthest behind waits for (on a tie, the one
    most lists wait for) and yields it with the group of lists waiting at an
    equal instruction; when the caller resumes, those lists advance.  So every
    list still meets exactly its own instructions, in order.
    """
    codes: dict[tuple, int] = {}
    known: dict[int, int] = {}  # id of an instruction object -> its code
    streams = []
    for body in bodies:
        stream = []
        for instr in body:
            code = known.get(id(instr))
            if code is None:  # a template's fixed instructions are one object in every circuit
                code = known[id(instr)] = codes.setdefault(_instruction_key(instr), len(codes))
            stream.append(code)
        streams.append(stream)
    pos = [0] * len(bodies)
    waiting: dict[int, list[int]] = {}  # code -> the lists whose next instruction it is
    lag = [0] * len(codes)  # code -> the smallest pointer among the lists waiting at it
    for i, stream in enumerate(streams):
        if stream:
            waiting.setdefault(stream[0], []).append(i)

    while waiting:
        code = min(waiting, key=lambda k: (lag[k], -len(waiting[k])))
        group = waiting.pop(code)
        yield bodies[group[0]][pos[group[0]]], group
        for i in group:
            at = pos[i] = pos[i] + 1
            if at < len(streams[i]):
                code = streams[i][at]
                if code in waiting:
                    waiting[code].append(i)
                    if at < lag[code]:
                        lag[code] = at
                else:
                    waiting[code] = [i]
                    lag[code] = at


class _Rows:
    """The rows of one (capacity, 2^n) batch of statevectors, the first
    active of them live: the branches or trajectories of many circuits.

    Row r belongs to circuit owner[r], holds the classical bits bits[r]
    recorded on it and carries mass[r]: its Born-rule weight in an exact
    run, its number of trajectories in a noisy one.  Each circuit starts on
    one row in |0...0>, circuit i on row i, with the given mass.
    """

    def __init__(self, count: int, capacity: int, n: int, n_bits: int, mass: float):
        self.n, self.count, self.active = n, count, count
        self.state = np.zeros((capacity, 1 << n), dtype=complex)
        self.state[:count, 0] = 1.0
        self.owner = np.zeros(capacity, dtype=np.int64)
        self.owner[:count] = np.arange(count)
        self.bits = np.zeros((capacity, n_bits), dtype=np.int8)
        self.mass = np.zeros(capacity)
        self.mass[:count] = mass

    def grow(self, src: np.ndarray) -> np.ndarray:
        """Copy each source row into spare capacity; the copies' indices."""
        start = self.active
        self.active += len(src)
        for table in (self.state, self.owner, self.bits, self.mass):
            table[start:self.active] = table[src]
        return np.arange(start, self.active)

    def select(self, instr: Instruction, group: list[int]) -> np.ndarray | None:
        """Live rows that instr acts on: those whose owner is in group and
        whose bits meet its condition, or None when that is every live row."""
        if len(group) == self.count and instr.condition is None:
            return None
        member = np.zeros(self.count, dtype=bool)
        member[group] = True
        select = member[self.owner[:self.active]]
        if instr.condition is not None:
            bit, value = instr.condition
            select &= self.bits[:self.active, bit] == value
        return np.flatnonzero(select)

    def split(self, rows: np.ndarray, outcome: np.ndarray, recorded: np.ndarray,
              q: int, c: int) -> np.ndarray:
        """Measure wire q into bit c: each (row, outcome, recorded bit) pair,
        sorted by row, gets a row; those rows.

        The first pair of a row keeps the row, and each other pair gets a
        copy of it, made before any collapse.  Then each pair's row collapses
        onto its outcome and records its bit.
        """
        later = np.zeros(len(rows), dtype=bool)  # not the first pair of its row
        later[1:] = rows[1:] == rows[:-1]
        dest = rows.copy()
        dest[later] = self.grow(rows[later])
        for value in (0, 1):
            _collapse(self.state, self.n, dest[outcome == value], q, value)
        self.bits[dest, c] = recorded
        return dest


# exact simulation ----------------------------------------------------------

def _template_split(template: CircuitTemplate) -> tuple[list[tuple], list[tuple[int, int]], int]:
    """Split into (the fixed parts, the last without its terminal
    measurements; terminal (qubit, clbit) pairs; outcome width).

    The terminal pairs are the trailing unconditioned measurements.  A
    template without any measurement measures every qubit into the bit of
    the same index at the end, so its outcome ranges over the qubits.  A
    hole cannot measure, so the split is the same for every key as long as
    the trailing measurements follow a gate of the last fixed part.  With
    holes and no such gate, a key whose holes make nothing would split
    otherwise, so that template is refused (InternalError).
    """
    *front, last = template._fixed
    if not any(i.gate.name == "measure" for part in template._fixed for i in part):
        return template._fixed, [(q, q) for q in range(template.n_qubits)], template.n_qubits
    k = len(last)
    while k > 0 and last[k - 1].gate.name == "measure" and last[k - 1].condition is None:
        k -= 1
    if k == 0 and template._holes:
        raise InternalError("a template's terminal measurements must follow a gate after its last hole")
    pairs = [(i.gate.qubits[0], i.gate.clbit) for i in last[k:]]
    while len({q for q, _ in pairs}) < len(pairs) or len({c for _, c in pairs}) < len(pairs):
        # re-measurement in the tail: push the first back into the body
        pairs.pop(0)
        k += 1
    return [*front, last[:k]], pairs, template.n_clbits


def _terminal_split(circuit: Circuit) -> tuple[list[Instruction], list[tuple[int, int]], int]:
    """(body, terminal (qubit, clbit) pairs, outcome width): _template_split
    of the circuit as a template without holes."""
    (body,), terminal, n_bits = _template_split(CircuitTemplate.of(circuit))
    return list(body), terminal, n_bits


def _exact_width(n_qubits: int, body: list[Instruction]) -> int:
    """n qubits plus m mid-circuit measurements, refused above MAX_EXACT_WIDTH.

    Deferral holds one row of 2^(n+m) amplitudes and branching up to 2^m
    rows of 2^n, so one bound serves both, checked before any work.
    """
    width = n_qubits + sum(i.gate.name == "measure" for i in body)
    if width > MAX_EXACT_WIDTH:
        raise TooWide(f"{n_qubits} qubits and {width - n_qubits} mid-circuit measurements "
                      f"exceed exact limit {MAX_EXACT_WIDTH}")
    return width


def _terminal_histograms(state: np.ndarray, n: int, terminal: list[tuple[int, int]],
                         clbits: np.ndarray, weights: np.ndarray, local: np.ndarray,
                         count: int) -> np.ndarray:
    """Measure the terminal pairs on every row of a batch whose row r belongs
    to circuit local[r] of count; each circuit's unnormalised distribution,
    one row per circuit.

    Row r carries weight weights[r] and the bits clbits[r] recorded before;
    each terminal pair overwrites its own bit.  One bincount sums every
    circuit's bins, each over its own rows in batch order.  When a row's
    norm has drifted, the error blames the lowest circuit among such rows.
    """
    probs = np.abs(state)
    probs **= 2  # in place: the batch may hold 2^m branch rows
    marg = _marginal(probs, n, [q for q, _ in terminal])
    drift = ~(np.abs(marg.sum(axis=1) - 1.0) <= _NORM_TOL * 10)  # NaN drifts too
    if drift.any():
        raise _blame(ValidationError("statevector norm drifted"), int(local[drift].min()))
    k, width = len(terminal), clbits.shape[1]
    clbits[:, [c for _, c in terminal]] = 0
    pattern, values = np.zeros(1 << k, dtype=np.int64), np.arange(1 << k)
    for j, (_, c) in enumerate(terminal):  # the outcome index each terminal pattern adds
        pattern |= ((values >> (k - 1 - j)) & 1) << (width - 1 - c)
    dim = 1 << width
    outcome = (_outcome_index(clbits) + local * dim)[:, None] + pattern
    hist = np.bincount(outcome.ravel(), (weights[:, None] * marg).ravel(), count * dim)
    return hist.reshape(count, dim)


def run_exact_template(template: CircuitTemplate, keys: Iterable) -> list[Distribution]:
    """Exact outcome distribution of template's fill for each key, in key order.

    With no measurement instructions all qubits are implicitly measured in
    wire order; otherwise the distribution ranges over the classical bits.
    The terminal split (_template_split) and the refusal when n + m >
    MAX_EXACT_WIDTH are made once, before any hole is made: a hole cannot
    measure, so both are the same for every key.  A key may need 2^(n+m)
    amplitudes, and the keys run in consecutive groups of at most _BLOCK
    amplitudes (at least one key).

    Every branch of a group's keys is a row of one table (_Rows), with its
    key as owner, a Born-rule weight as its mass and a row of classical
    bits, in room for 2^m rows per key; a measurement whose two outcomes
    are both above 1e-15 copies the row into spare room for outcome 1.
    Each fixed instruction runs once, on every live row it selects.  Each
    hole makes and checks its instructions for every key
    (CircuitTemplate._made), and each distinct instruction tuple runs once,
    on the rows of the keys that made it.  So each row gets exactly its own
    fill's instructions, in order, through row-wise kernels, and a key's
    distribution is bit for bit the one its fill gets alone, whatever the
    grouping; on one wire, an rz may move the last bit, as numpy multiplies
    a lone complex amplitude without the fused multiply-add of its vector
    loop.

    An error that concerns one key carries the key's index as its circuit
    attribute; an error of the split or the width blames key 0.
    """
    keys = list(keys)
    if not keys:
        return []
    n = template.n_qubits
    try:
        fixed, terminal, n_bits = _template_split(template)
        branches = 1 << (_exact_width(n, [i for part in fixed for i in part]) - n)
    except QsearchError as exc:
        raise _blame(exc, 0)
    return _in_groups(
        lambda group: _walk_group(template, fixed, [keys[i] for i in group], terminal, n_bits,
                                  branches),
        [branches << n] * len(keys), _BLOCK)


def _walk_group(template: CircuitTemplate, fixed: list[tuple], keys: list,
                terminal: list[tuple[int, int]], n_bits: int, branches: int) -> list[Distribution]:
    """run_exact_template on one group of keys, given the template's split
    fixed parts and its branch bound per key."""
    count = len(keys)
    table = _Rows(count, count * branches, template.n_qubits, n_bits, 1.0)
    everyone = list(range(count))
    for part, hole in zip(fixed, [*template._holes, None]):
        for instr in part:
            _exact_step(table, instr, everyone)
        if hole is None:
            break
        made: dict[tuple, list[int]] = {}  # each distinct instruction tuple -> the keys making it
        for i, key in enumerate(keys):
            try:
                made.setdefault(tuple(template._made(*hole, key)), []).append(i)
            except QsearchError as exc:
                raise _blame(exc, i)
        for instrs, group in made.items():
            for instr in instrs:
                _exact_step(table, instr, group)

    live = slice(0, table.active)
    hist = _terminal_histograms(table.state[live], table.n, terminal,
                                table.bits[live, :n_bits].copy(), table.mass[live],
                                table.owner[live], count)
    hist /= hist.sum(axis=1)[:, None]
    return [Distribution(n_bits, probabilities=probs) for probs in hist]


def _exact_step(table: _Rows, instr: Instruction, group: list[int]) -> None:
    """Run one instruction on the live rows of the keys in group that meet
    its condition; an error blames the first key of group, and a branch
    weight that no longer sums to 1 the first such key."""
    try:
        rows = table.select(instr, group)
        gate = instr.gate
        if gate.name != "measure":  # _apply_gate passes over a barrier
            _apply_rows(table.state[:table.active], gate, table.n, rows)
            return
        if rows is None:
            rows = np.arange(table.active)
        q = gate.qubits[0]
        p = _marginal(np.abs(table.state[rows]) ** 2, table.n, [q])
        k, outcome = np.nonzero(p > 1e-15)
        dest = table.split(rows[k], outcome, outcome, q, gate.clbit)
        table.mass[dest] *= p[k, outcome]
        live = slice(0, table.active)
        total = np.bincount(table.owner[live], table.mass[live], minlength=table.count)
        for i in group:
            if not abs(total[i] - 1.0) <= 1e-12:  # NaN fails too
                raise _blame(ValidationError("branch weights do not sum to 1"), i)
    except QsearchError as exc:
        raise _blame(exc, group[0])


def run_exact_batch(circuits: Iterable[Circuit]) -> list[Distribution]:
    """Exact outcome distribution of each circuit: run_exact_template of
    each as a template without holes and with one key, one circuit at a
    time, drawn only when the one before it is done.

    The circuits must share a qubit count.  An error that concerns one
    circuit, drawing it included, carries its index as its circuit attribute.
    """
    out = []
    try:
        for circuit in circuits:
            if out and circuit.n_qubits != n:
                raise ValidationError(f"circuits of one batch must share a width, got "
                                      f"{sorted({n, circuit.n_qubits})} qubits")
            n = circuit.n_qubits
            out += run_exact_template(CircuitTemplate.of(circuit), [None])
    except QsearchError as exc:
        exc.circuit = len(out)  # the circuit being drawn or run
        raise
    return out


def run_exact(circuit: Circuit) -> Distribution:
    """Exact outcome distribution: run_exact_batch of one circuit."""
    return run_exact_batch([circuit])[0]


# noisy simulation ----------------------------------------------------------

# Non-identity Paulis on a gate's wires, in the order a pick indexes them,
# as (pick, wire, [has a Z part, has an X part]) tables.
_PAULIS = {
    k: np.array([[[p in "yz", p in "xy"] for p in label] for label in labels])
    for k, labels in ((1, "xyz"), (2, [a + b for a in "ixyz" for b in "ixyz"][1:]))
}


def _insert_paulis(state: np.ndarray, n: int, qubits, rows: np.ndarray, picks: np.ndarray) -> None:
    """Apply to each given row of a batch the non-identity Pauli on qubits
    that its uniform in picks selects."""
    if not rows.size:
        return
    paulis = _PAULIS[len(qubits)]
    parts = paulis[(picks * len(paulis)).astype(np.int64)]
    step = max(1, _BLOCK >> n)
    for i in range(0, rows.size, step):
        block, part = rows[i:i + step], parts[i:i + step]
        sub = state[block]  # one gather and one scatter; between them, slices of it
        view = sub.reshape((len(block),) + (2,) * n)
        each_row = (len(block),) + (1,) * (n - 1)
        for j, q in enumerate(qubits):
            lo, hi = view[_at(n, ((q, 0),))], view[_at(n, ((q, 1),))]
            has_z, has_x = part[:, j, 0].reshape(each_row), part[:, j, 1].reshape(each_row)
            # z then x on a wire is -iY: a global phase per trajectory
            np.negative(hi, out=hi, where=has_z)
            was_lo = lo.copy()
            np.copyto(lo, hi, where=has_x)
            np.copyto(hi, was_lo, where=has_x)
        state[block] = sub


@dataclass
class _NoisyPlan:
    """What one circuit's trajectories draw: per chunk row, its site-hit,
    Pauli-pick, mid-measure, mid-readout, final-sample and terminal-readout
    uniforms, split at splits."""

    body: list[Instruction]  # without barriers
    terminal: list[tuple[int, int]]
    n_bits: int
    n_mid: int
    splits: np.ndarray
    cols: int

    @classmethod
    def of(cls, circuit: Circuit) -> "_NoisyPlan":
        census(circuit)  # raises NotLowered when gates above 2 qubits remain
        body, terminal, n_bits = _terminal_split(circuit)
        body = [instr for instr in body if instr.gate.name != "barrier"]
        n_mid = sum(instr.gate.name == "measure" for instr in body)
        splits = np.cumsum([len(body) - n_mid] * 2 + [n_mid] * 2 + [1])
        return cls(body, terminal, n_bits, n_mid, splits, int(splits[-1]) + len(terminal))

    def chunk_bytes(self, n: int, shots: int) -> int:
        """Bytes one trajectory chunk of the circuit can hold at once, for b
        trajectories, `sites` gate sites, `body` instructions and `cols`
        uniforms each:
        b·(2·cols − 2·sites)·8 + b·sites·49 + sites·65 + body·288
        + (b+1)·2^n·48 + 16 KiB.

        That is its uniforms with the batch's copies of the measurement and
        readout columns; its hit tables when every site is hit; per site,
        _noisy_chunk's bookkeeping (65); per instruction, _schedule's (288);
        per amplitude of up to b+1 live rows, the state (16) and the largest
        temporary beside it (32): a Pauli insertion's gathered block, its
        saved half and numpy's copy of the other half (32), a measurement's
        gathered rows and their |·|² (24), or the final sampling's |state|²
        and its cumsum (16); and a fixed 16 KiB for the objects every call
        makes whatever its size: the random generator and its seed
        sequence, the headers of some sixty numpy arrays and views, and the
        small lists, dicts and generator frames.  At a few shots the last
        three terms outweigh the others.
        """
        b, sites = min(shots, TRAJECTORY_CHUNK), int(self.splits[0])
        uniforms = b * (2 * self.cols - 2 * sites) * 8  # and the batch's copies of the non-site ones
        # _noisy_chunk's hit tables if every site is hit: the site-hit mask's
        # byte, then 8 each for a hit's site, its trajectory (twice) and its
        # pick, and for the concatenated trajectory and pick tables
        hits = b * sites * (1 + 6 * 8)
        # per site, its rate (8); its entry in ptr, a list slot and an int
        # object (8 + 32); and, while ptr grows by it, its searchsorted sum
        # (8), its slot in the tolist list (8) and ptr's over-allocation (1)
        site_bookkeeping = sites * (8 + 8 + 32 + 8 + 8 + 1)
        # per instruction, _schedule's stream slot (8) and code int (32);
        # the id int keying its object (32) and the code map's 6-tuple key
        # (88), each with a dict slot of up to 64 bytes (a 24-byte entry
        # and its index, in a table at least a third full)
        schedule = len(self.body) * (8 + 32 + 32 + 64 + 88 + 64)
        return uniforms + hits + site_bookkeeping + schedule + (b + 1) * (48 << n) + (16 << 10)


class _Trajectories(_Rows):
    """One chunk of b trajectories of each of many circuits, on the rows of
    one table whose mass is a row's number of trajectories.

    Trajectory g belongs to circuit towner[g] and sits on row trow[g].
    Every live row carries at least one trajectory, so the live rows never
    outnumber the trajectories.  Trajectories share a row while they agree
    on their circuit, their true and recorded mid-circuit outcomes and their
    (absent) Pauli insertions.
    """

    def __init__(self, count: int, b: int, n: int, n_bits: int):
        super().__init__(count, count * b, n, n_bits, b)
        self.towner = np.repeat(np.arange(count), b)
        self.trow = self.towner.copy()  # each circuit's trajectories start on its own row

    def leave(self, traj: np.ndarray) -> np.ndarray:
        """Give each of the given trajectories (one Pauli insertion each) a
        row of its own; their rows.

        A trajectory alone on its row keeps it.  One on a shared row moves to
        a copy of it, except that the first keeps the row when every
        trajectory on it leaves.
        """
        rows = self.trow[traj]
        shared = self.mass[rows] > 1
        if not shared.any():
            return rows
        movers, src = traj[shared], rows[shared]
        np.subtract.at(self.mass, src, 1)
        emptied = np.flatnonzero(self.mass[src] == 0)
        if emptied.size:
            _, first = np.unique(src[emptied], return_index=True)
            stay = emptied[first]
            self.mass[src[stay]] = 1
            go = np.ones(len(movers), dtype=bool)
            go[stay] = False
            movers, src = movers[go], src[go]
        new = self.grow(src)
        self.mass[new] = 1
        self.trow[movers] = new
        return self.trow[traj]

    def measure(self, rows: np.ndarray, q: int, c: int, u_mid: np.ndarray,
                u_ro: np.ndarray, col: np.ndarray, p_meas: float) -> None:
        """Measure wire q of the given rows into bit c.

        Each trajectory g on them draws its outcome from u_mid[g, j] and
        flips the bit it records where u_ro[g, j] < p_meas, with j the
        column col[circuit] of its circuit's measurement.  Each row then
        splits by the (outcome, recorded bit) pairs of its trajectories.
        """
        p1 = _marginal(np.abs(self.state[rows]) ** 2, self.n, [q])[:, 1]
        where = np.full(self.active, -1)
        where[rows] = np.arange(len(rows))
        traj = np.flatnonzero(where[self.trow] >= 0)
        k = where[self.trow[traj]]
        j = col[self.towner[traj]]
        outcome = (u_mid[traj, j] < p1[k]).astype(np.int8)
        recorded = outcome ^ (u_ro[traj, j] < p_meas)
        keys, inverse = np.unique((k * 2 + outcome) * 2 + recorded, return_inverse=True)
        dest = self.split(rows[keys >> 2], (keys >> 1) & 1, keys & 1, q, c)
        self.mass[dest] = np.bincount(inverse, minlength=len(keys))
        self.trow[traj] = dest[inverse]

    def sample(self, u_final: np.ndarray) -> np.ndarray:
        """Each trajectory's final basis state: the number of entries of its
        row's cumulative distribution below its draw in u_final."""
        cdf = np.cumsum(np.abs(self.state[:self.active]) ** 2, axis=1)
        cdf /= cdf[:, -1][:, None]
        # each cdf row never decreases and ends at 1 > u, so a binary search
        # over 2^n entries finds the count in n steps, every trajectory at once
        flat, base = cdf.ravel(), self.trow * cdf.shape[1]
        count = np.zeros(len(base), dtype=np.int64)
        step = cdf.shape[1] >> 1
        while step:
            count += step * (flat[base + count + (step - 1)] < u_final)
            step >>= 1
        return count


def run_noisy_batch(circuits: list[Circuit], noise: NoiseModel, shots: int,
                    seeds: list[int]) -> list[Distribution]:
    """Monte-Carlo trajectory sampling of lowered circuits, in batches.

    After each 1- or 2-qubit gate a uniformly random non-identity Pauli on
    the touched qubits is inserted with probability p1 / p2; recorded bits
    flip with probability p_meas.  Circuit i samples shots trajectories
    with seed seeds[i].

    Trajectories run in chunks of TRAJECTORY_CHUNK.  In chunk c, circuit i
    draws every uniform it needs in one row-major block from the stream
    seeded by SeedSequence(entropy=seeds[i], spawn_key=(c,)); row r holds
    trajectory c * TRAJECTORY_CHUNK + r, its columns split into site-hit,
    Pauli-pick, mid-measure, mid-readout, final-sample and terminal-readout
    draws.  Trajectory t therefore depends only on (seed, t): a run of more
    shots extends a run of fewer, and results merge in any order.  Every
    draw is made before any gate runs, so each site's Pauli insertions are
    known up front.

    Each circuit is planned once and refused, before any draw, when its
    chunk would hold more than MAX_NOISY_BYTES (_NoisyPlan.chunk_bytes);
    the circuits then run in consecutive groups whose chunks need at most
    that in all (at least one circuit).  A group's trajectories in a chunk
    are rows of one batch (_Trajectories), and its circuits step through
    their instructions together (_schedule): an instruction equal in
    several circuits runs once, with every Pauli insertion of that site in
    one call.  Each kernel works row by row, so every circuit gets bit for
    bit the counts it gets alone, whatever the grouping, and those of
    simulating every trajectory separately.

    The circuits must share a qubit count.  An error that concerns one
    circuit carries its index as the exception's circuit attribute.
    """
    circuits, seeds = list(circuits), list(seeds)
    if len(seeds) != len(circuits):
        raise ValidationError(f"{len(circuits)} circuits need as many seeds, got {len(seeds)}")
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if not circuits:
        return []
    n = _shared_width(circuits)
    plans, needs = [], []
    for i, circuit in enumerate(circuits):
        try:
            plan = _NoisyPlan.of(circuit)
            need = plan.chunk_bytes(n, shots)
            if need > MAX_NOISY_BYTES:
                raise OverBudget(
                    f"{min(shots, TRAJECTORY_CHUNK)} trajectories of {plan.cols} uniforms and "
                    f"{n}-qubit states need {need / 2**30:.2f} GiB per chunk, over the "
                    f"{MAX_NOISY_BYTES / 2**30:.2f} GiB budget")
        except QsearchError as exc:
            raise _blame(exc, i)
        plans.append(plan)
        needs.append(need)
    return _in_groups(
        lambda group: _noisy_group([plans[i] for i in group], noise, shots,
                                   [seeds[i] for i in group], n),
        needs, MAX_NOISY_BYTES)


def _noisy_group(plans: list[_NoisyPlan], noise: NoiseModel, shots: int, seeds: list[int],
                 n: int) -> list[Distribution]:
    """run_noisy_batch on one group of plans, chunk by chunk."""
    counts = [np.zeros(1 << plan.n_bits, dtype=np.int64) for plan in plans]
    for chunk, start in enumerate(range(0, shots, TRAJECTORY_CHUNK)):
        b = min(TRAJECTORY_CHUNK, shots - start)
        for i, outcomes in enumerate(_noisy_chunk(plans, noise, seeds, chunk, b, n)):
            counts[i] += np.bincount(outcomes, minlength=len(counts[i]))
    return [Distribution(plan.n_bits, counts=c, shots=shots) for plan, c in zip(plans, counts)]


def _noisy_chunk(plans: list[_NoisyPlan], noise: NoiseModel, seeds: list[int], chunk: int,
                 b: int, n: int) -> list[np.ndarray]:
    """The outcome index of each trajectory of one chunk, per circuit."""
    count = len(plans)
    batch = _Trajectories(count, b, n, max(plan.n_bits for plan in plans))
    u_mid = np.zeros((count * b, max(plan.n_mid for plan in plans)))
    u_mid_ro = np.zeros_like(u_mid)
    u_final = np.empty(count * b)
    u_ro = []
    # every Pauli insertion of the chunk, ordered by circuit and site: its
    # trajectory and its pick; site s of circuit i owns [ptr[base[i] + s], ptr[base[i] + s + 1])
    hit_traj, hit_pick, ptr, base = [], [], [0], []
    for i, plan in enumerate(plans):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seeds[i], spawn_key=(chunk,)))
        u_site, u_pick, mid, mid_ro, final, ro = np.split(
            rng.random((b, plan.cols)), plan.splits, axis=1)
        own = slice(i * b, (i + 1) * b)
        u_mid[own, :plan.n_mid], u_mid_ro[own, :plan.n_mid] = mid, mid_ro
        u_final[own] = final[:, 0]
        u_ro.append(ro.copy())
        rates = np.array([noise.p2 if len(instr.gate.qubits) == 2 else noise.p1
                          for instr in plan.body if instr.gate.name != "measure"])
        site, traj = np.nonzero((u_site < rates).T)
        hit_traj.append(traj + i * b)
        hit_pick.append(u_pick[traj, site])
        base.append(len(ptr) - 1)
        ptr += (np.searchsorted(site, np.arange(1, len(rates) + 1)) + ptr[-1]).tolist()
    hit_traj, hit_pick = np.concatenate(hit_traj), np.concatenate(hit_pick)
    site_no = [0] * count
    mid_no = np.zeros(count, dtype=np.int64)

    for instr, group in _schedule([plan.body for plan in plans]):
        try:
            rows = batch.select(instr, group)
            gate = instr.gate
            if gate.name == "measure":
                if rows is None:
                    rows = np.arange(batch.active)
                batch.measure(rows, gate.qubits[0], gate.clbit, u_mid, u_mid_ro, mid_no,
                              noise.p_meas)
                mid_no[group] += 1
                continue
            _apply_rows(batch.state[:batch.active], gate, n, rows)
            spans = []
            for i in group:
                s = base[i] + site_no[i]
                site_no[i] += 1
                if ptr[s + 1] > ptr[s]:
                    spans.append(slice(ptr[s], ptr[s + 1]))
            if not spans:
                continue
            hits = np.concatenate([hit_traj[s] for s in spans])
            picks = np.concatenate([hit_pick[s] for s in spans])
            if instr.condition is not None:
                bit, value = instr.condition
                met = batch.bits[batch.trow[hits], bit] == value
                hits, picks = hits[met], picks[met]
            _insert_paulis(batch.state, n, gate.qubits, batch.leave(hits), picks)
        except QsearchError as exc:
            raise _blame(exc, group[0])

    sampled = batch.sample(u_final)
    out = []
    for i, plan in enumerate(plans):
        own = slice(i * b, (i + 1) * b)
        clbits = batch.bits[batch.trow[own], :plan.n_bits]
        for j, (q, c) in enumerate(plan.terminal):
            clbits[:, c] = ((sampled[own] >> (n - 1 - q)) & 1) ^ (u_ro[i][:, j] < noise.p_meas)
        out.append(_outcome_index(clbits))
    return out


def run_noisy(circuit: Circuit, noise: NoiseModel, shots: int, seed: int) -> Distribution:
    """Monte-Carlo trajectory sampling: run_noisy_batch of one circuit."""
    return run_noisy_batch([circuit], noise, shots, [seed])[0]
