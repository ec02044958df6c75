"""Dense statevector simulation of every key of a circuit template in one
walk over it (_walk_group); a plain circuit is a template without holes.

Exact mode enumerates mid-circuit measurement branches with Born-rule
weights (run_exact_template); noisy mode samples Monte-Carlo trajectories
with depolarizing Pauli insertions and readout flips (run_noisy_template),
on a compiled template (synth.compile_template).  Both keep their branches
or trajectories as the rows of one table (_Rows): a (capacity, 2^n)
complex batch with, per row, an owning key, its recorded classical bits
and a mass, the Born-rule weight of a branch or the number of trajectories
on a row.  A row's flat index uses qubit 0 as the most significant bit.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple

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


# groups of keys -------------------------------------------------------------

def _blame(exc: QsearchError, circuit: int) -> QsearchError:
    if exc.circuit is None:
        exc.circuit = circuit
    return exc


def _in_groups(run, sizes: list[int], budget: int) -> list:
    """run(group) on consecutive groups of key indices, in order, each holding
    keys while their sizes sum to at most budget, and at least one key; an
    error's circuit, an index into its group, becomes one into all."""
    starts, total = [0], 0
    for i, size in enumerate(sizes):
        if i > starts[-1] and total + size > budget:
            starts.append(i)
            total = 0
        total += size
    out = []
    for group in map(range, starts, starts[1:] + [len(sizes)]):
        try:
            out += run(group)
        except QsearchError as exc:
            if exc.circuit is not None:
                exc.circuit = group[exc.circuit]
            raise
    return out


class _Rows:
    """The rows of one (capacity, 2^n) batch of statevectors, the first
    active of them live: row r belongs to key owner[r], holds the bits
    bits[r] recorded on it and carries mass[r], a branch's Born-rule weight
    or a row's number of trajectories.  Key i starts on row i in |0...0>."""

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
        sorted by row, gets a row, which collapses onto its outcome and
        records its bit; those rows.  The first pair of a row keeps it, each
        other pair a copy made before any collapse."""
        later = np.zeros(len(rows), dtype=bool)  # not the first pair of its row
        later[1:] = rows[1:] == rows[:-1]
        dest = rows.copy()
        dest[later] = self.grow(rows[later])
        for value in (0, 1):
            _collapse(self.state, self.n, dest[outcome == value], q, value)
        self.bits[dest, c] = recorded
        return dest


# walking a template ----------------------------------------------------------

class _Split(NamedTuple):
    """How every fill of a template ends (_template_split): the (qubit,
    clbit) pairs measured at the end, the outcome width, and how many
    terminal measurements end the last fixed part (None: none are made)."""

    terminal: list[tuple[int, int]]
    n_bits: int
    cut: int | None


def _template_split(template: CircuitTemplate) -> _Split:
    """The trailing unconditioned measurements of every fill, or, when
    nothing is measured, every qubit into its own bit.  A hole cannot
    measure, so every key splits so while a gate of the last fixed part
    that it keeps (_kept_all) precedes them; with holes and no such gate, the
    template is refused (InternalError)."""
    fixed = template._fixed
    if not any(i.gate.name == "measure" for part in fixed for i in part):
        return _Split([(q, q) for q in range(template.n_qubits)], template.n_qubits, None)
    last = fixed[-1]
    k = len(last)
    while k > 0 and last[k - 1].gate.name == "measure" and last[k - 1].condition is None:
        k -= 1
    if k == 0 and len(fixed) > 1:
        raise InternalError("a template's terminal measurements must follow a gate after its last hole")
    pairs = [(i.gate.qubits[0], i.gate.clbit) for i in last[k:]]
    while len({q for q, _ in pairs}) < len(pairs) or len({c for _, c in pairs}) < len(pairs):
        # re-measurement in the tail: push the first back into the body
        pairs.pop(0)
        k += 1
    return _Split(pairs, template.n_clbits, len(last) - k)


def _kept_all(template: CircuitTemplate, keys: list, split: _Split) -> list[tuple]:
    """template._kept(key) for each key, flags as an array; an error blames
    the key's index, and a key that drops the gate before the terminal
    measurements (_template_split) is refused (InternalError)."""
    out = []
    for i, key in enumerate(keys):
        try:
            flags, made = template._kept(key)
            cut = split.cut
            if flags is not None and cut is not None and cut < len(flags) and not flags[-cut - 1]:
                raise InternalError("a key drops the gate before the terminal measurements")
        except QsearchError as exc:
            raise _blame(exc, i)
        out.append((None if flags is None else np.array(flags, dtype=bool), made))
    return out


def _walk_group(template: CircuitTemplate, kept: list[tuple],
                cut: int | None) -> Iterator[tuple[Instruction, list[int]]]:
    """Step a group of keys through their fills together, in template order,
    up to the cut terminal measurements: each fixed instruction once, with
    the keys (indices into kept) whose flags keep it, and each instruction
    of each hole's distinct kept tuple once, with the keys that made it, so
    every key meets exactly its own fill's instructions, in order."""
    everyone = list(range(len(kept)))
    keeps = None if kept[0][0] is None else np.array([flags for flags, _ in kept])
    every = None if keeps is None else keeps.all(axis=0).tolist()
    fixed, at = template._fixed, 0
    for j, part in enumerate(fixed):
        end = len(part) - (cut or 0) if j == len(fixed) - 1 else len(part)
        for t, instr in enumerate(part[:end], at):
            if every is None or every[t]:
                yield instr, everyone
                continue
            group = np.flatnonzero(keeps[:, t]).tolist()
            if group:
                yield instr, group
        at += len(part)
        if j == len(fixed) - 1:
            break
        made: dict[tuple, list[int]] = {}  # each distinct kept tuple -> the keys making it
        for i, (_, holes) in enumerate(kept):
            made.setdefault(holes[j], []).append(i)
        for instrs, group in made.items():
            for instr in instrs:
                yield instr, group


# exact simulation ----------------------------------------------------------

def _exact_width(n_qubits: int, body: list[Instruction]) -> int:
    """n qubits plus m mid-circuit measurements, refused above MAX_EXACT_WIDTH:
    deferral holds one row of 2^(n+m) amplitudes and branching up to 2^m
    rows of 2^n, so one bound serves both, checked before any work."""
    width = n_qubits + sum(i.gate.name == "measure" for i in body)
    if width > MAX_EXACT_WIDTH:
        raise TooWide(f"{n_qubits} qubits and {width - n_qubits} mid-circuit measurements "
                      f"exceed exact limit {MAX_EXACT_WIDTH}")
    return width


def _terminal_histograms(state: np.ndarray, n: int, terminal: list[tuple[int, int]],
                         clbits: np.ndarray, weights: np.ndarray, local: np.ndarray,
                         count: int) -> np.ndarray:
    """Measure the terminal pairs on every row of a batch, row r of key
    local[r] of count with weight weights[r] and the bits clbits[r]
    recorded before; each key's unnormalised distribution, by one bincount
    over its rows in batch order.  A drifted norm blames the lowest key
    among such rows."""
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
    """Exact outcome distribution of template's fill for each key, in key
    order, over the classical bits (or the qubits when nothing is measured).

    The terminal split and the refusal when n + m > MAX_EXACT_WIDTH come
    before any hole is made.  The keys run in consecutive groups of at most
    _BLOCK amplitudes, 2^(n+m) per key, each group walking the template
    once (_walk_group); a measurement whose two outcomes are both above
    1e-15 copies a row for outcome 1.  A key's distribution is bit for bit
    its fill's alone (on one wire, an rz may move the last bit: numpy
    multiplies a lone complex amplitude without the fused multiply-add of
    its vector loop).  An error of one key carries its index as circuit
    attribute; one of the split or the width, key 0.
    """
    keys = list(keys)
    if not keys:
        return []
    n = template.n_qubits
    try:
        split = _template_split(template)
        body = [i for part in template._fixed for i in part]
        branches = 1 << (_exact_width(n, body[:len(body) - (split.cut or 0)]) - n)
    except QsearchError as exc:
        raise _blame(exc, 0)
    return _in_groups(
        lambda group: _exact_group(template, [keys[i] for i in group], split, branches),
        [branches << n] * len(keys), _BLOCK)


def _exact_group(template: CircuitTemplate, keys: list, split: _Split,
                 branches: int) -> list[Distribution]:
    """run_exact_template on one group of keys, given the template's split
    and its branch bound per key."""
    count = len(keys)
    kept = _kept_all(template, keys, split)
    table = _Rows(count, count * branches, template.n_qubits, split.n_bits, 1.0)
    for instr, group in _walk_group(template, kept, split.cut):
        _exact_step(table, instr, group)
    live = slice(0, table.active)
    hist = _terminal_histograms(table.state[live], table.n, split.terminal,
                                table.bits[live, :split.n_bits].copy(), table.mass[live],
                                table.owner[live], count)
    hist /= hist.sum(axis=1)[:, None]
    return [Distribution(split.n_bits, probabilities=probs) for probs in hist]


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


def run_exact(circuit: Circuit) -> Distribution:
    """Exact outcome distribution: run_exact_template of the circuit as a
    template without holes, with one key, so a blamed error's circuit
    attribute is 0."""
    return run_exact_template(CircuitTemplate.of(circuit), [None])[0]


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
    """What one key's trajectories draw: per chunk row, its site-hit,
    Pauli-pick, mid-measure, mid-readout, final-sample and terminal-readout
    uniforms, split at splits; `two` flags the gate sites on two qubits."""

    two: np.ndarray
    n_mid: int
    instructions: int  # the template's fixed ones and the key's hole ones
    splits: np.ndarray
    cols: int

    @classmethod
    def of(cls, template: CircuitTemplate, flags, made, split: _Split) -> "_NoisyPlan":
        ops = template._assemble(flags, made)
        # raises NotLowered when gates above 2 qubits remain
        census(Circuit._trusted(template.n_qubits, template.n_clbits, tuple(ops), {}))
        body = ops[:len(ops) - (split.cut or 0)]
        two = [len(i.gate.qubits) == 2 for i in body if i.gate.name not in ("measure", "barrier")]
        n_mid = sum(i.gate.name == "measure" for i in body)
        splits = np.cumsum([len(two)] * 2 + [n_mid] * 2 + [1])
        instructions = sum(map(len, template._fixed)) + sum(map(len, made))
        return cls(np.array(two, dtype=bool), n_mid, instructions, splits,
                   int(splits[-1]) + len(split.terminal))

    def chunk_bytes(self, n: int, shots: int) -> int:
        """Bytes one trajectory chunk of the key can hold at once, for b
        trajectories, `sites` gate sites, `instructions` instructions and
        `cols` uniforms each: b·(2·cols − 2·sites)·8 + b·sites·49 + sites·66
        + instructions·138 + (b+1)·2^n·48 + 16 KiB, each term as the code
        below counts it.  At a few shots the last three terms outweigh the
        others.
        """
        b, sites = min(shots, TRAJECTORY_CHUNK), len(self.two)
        uniforms = b * (2 * self.cols - 2 * sites) * 8  # and the batch's copies of the non-site ones
        # hit tables if every site is hit: the site-hit mask's byte, then 8 each
        # for a hit's site, trajectory (twice) and pick, and the concatenations
        hits = b * sites * (1 + 6 * 8)
        # per site, the plan's flag and its rate; ptr's list slot and int
        # object; and, while ptr grows, the searchsorted sum, the tolist slot
        # and ptr's over-allocation
        site_bookkeeping = sites * (1 + 8 + 8 + 32 + 8 + 8 + 1)
        # per instruction, the key's flag, its row of the walk's flag table and
        # the walk's list of shared flags; while the key is planned, the
        # lowered fill's and the flags' list slots, peephole_cancel's stack
        # slot and index int and the census's fill; per hole instruction, the
        # Instruction made for the key and its slot
        walk = self.instructions * (1 + 1 + 8 + 8 + 8 + 8 + 32 + 8 + 56 + 8)
        # per amplitude of up to b+1 live rows, the state (16) and the largest
        # temporary beside it (32: a Pauli insertion's gathered block, saved
        # half and numpy's copy of the other; a measurement takes 24, the final
        # sampling 16); 16 KiB for what every key makes whatever its size (the
        # generator and its seed sequence, array headers, small lists, frames)
        return uniforms + hits + site_bookkeeping + walk + (b + 1) * (48 << n) + (16 << 10)


class _Trajectories(_Rows):
    """One chunk of b trajectories of each of many keys, on the rows of one
    table whose mass is a row's number of trajectories: trajectory g of key
    towner[g] sits on row trow[g], shared while trajectories agree on their
    key, true and recorded mid-circuit outcomes and (absent) Paulis."""

    def __init__(self, count: int, b: int, n: int, n_bits: int):
        super().__init__(count, count * b, n, n_bits, b)
        self.towner = np.repeat(np.arange(count), b)
        self.trow = self.towner.copy()  # each key's trajectories start on its own row

    def leave(self, traj: np.ndarray) -> np.ndarray:
        """Give each of the given trajectories (one Pauli insertion each) a
        row of its own, a copy of its shared row, unless it is alone on its
        row or the first of a row that every trajectory on it leaves; their
        rows."""
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
                u_ro: np.ndarray, p_meas: float) -> None:
        """Measure wire q of the given rows into bit c: each trajectory g on
        them draws its outcome from u_mid[g] and flips the bit it records
        where u_ro[g] < p_meas, and each row splits by the (outcome,
        recorded bit) pairs of its trajectories."""
        p1 = _marginal(np.abs(self.state[rows]) ** 2, self.n, [q])[:, 1]
        where = np.full(self.active, -1)
        where[rows] = np.arange(len(rows))
        traj = np.flatnonzero(where[self.trow] >= 0)
        k = where[self.trow[traj]]
        outcome = (u_mid[traj] < p1[k]).astype(np.int8)
        recorded = outcome ^ (u_ro[traj] < p_meas)
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


def run_noisy_template(template: CircuitTemplate, keys: Iterable, noise: NoiseModel, shots: int,
                       seeds: list[int]) -> list[Distribution]:
    """Monte-Carlo trajectory sampling of template's fill for each key, in
    key order, key i with seed seeds[i]; the fills must be lowered, as
    compile_template's are.  After each 1- or 2-qubit gate a random
    non-identity Pauli on its qubits is inserted with probability p1 / p2,
    and recorded bits flip with probability p_meas.  Chunk c of
    TRAJECTORY_CHUNK trajectories draws key i's uniforms, a row per
    trajectory, from SeedSequence(entropy=seeds[i], spawn_key=(c,)), so
    trajectory t depends only on (seed, t).  Each key is planned, and
    refused over MAX_NOISY_BYTES, before any draw (_noisy_plans); the keys
    run in consecutive groups within that budget, each walking the template
    once (_walk_group) as rows of one batch (_Trajectories), so every key
    gets bit for bit the counts its fill gets alone.  An error of one key
    carries its index as circuit attribute.
    """
    keys, seeds = list(keys), list(seeds)
    if len(seeds) != len(keys):
        raise ValidationError(f"{len(keys)} keys need as many seeds, got {len(seeds)}")
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if not keys:
        return []
    split, kept, plans, needs = _noisy_plans(template, keys, shots)
    return _in_groups(
        lambda group: _noisy_group(template, split, [kept[i] for i in group],
                                   [plans[i] for i in group], noise, shots,
                                   [seeds[i] for i in group]),
        needs, MAX_NOISY_BYTES)


def _noisy_plans(template: CircuitTemplate, keys: list, shots: int):
    """(split, and per key its kept instructions, plan and chunk bytes),
    refusing a key over MAX_NOISY_BYTES; an error blames the key."""
    n = template.n_qubits
    try:
        split = _template_split(template)
    except QsearchError as exc:
        raise _blame(exc, 0)
    kept = _kept_all(template, keys, split)
    plans, needs = [], []
    for i, (flags, made) in enumerate(kept):
        try:
            plan = _NoisyPlan.of(template, flags, made, split)
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
    return split, kept, plans, needs


def _noisy_group(template: CircuitTemplate, split: _Split, kept: list[tuple],
                 plans: list[_NoisyPlan], noise: NoiseModel, shots: int,
                 seeds: list[int]) -> list[Distribution]:
    """run_noisy_template on one group of keys, chunk by chunk."""
    counts = np.zeros((len(plans), 1 << split.n_bits), dtype=np.int64)
    for chunk, start in enumerate(range(0, shots, TRAJECTORY_CHUNK)):
        b = min(TRAJECTORY_CHUNK, shots - start)
        counts += _noisy_chunk(template, split, kept, plans, noise, seeds, chunk, b)
    return [Distribution(split.n_bits, counts=c, shots=shots) for c in counts]


def _noisy_chunk(template: CircuitTemplate, split: _Split, kept: list[tuple],
                 plans: list[_NoisyPlan], noise: NoiseModel, seeds: list[int], chunk: int,
                 b: int) -> np.ndarray:
    """The outcome counts of one chunk's trajectories, a row per key."""
    count, n, n_mid = len(plans), template.n_qubits, plans[0].n_mid  # a hole cannot measure
    batch = _Trajectories(count, b, n, split.n_bits)
    u_mid, u_mid_ro = np.empty((count * b, n_mid)), np.empty((count * b, n_mid))
    u_final, u_ro = np.empty(count * b), np.empty((count * b, len(split.terminal)))
    # every Pauli insertion of the chunk, ordered by key and site: its
    # trajectory and its pick; site s of key i owns [ptr[base[i] + s], ptr[base[i] + s + 1])
    hit_traj, hit_pick, ptr, base = [], [], [0], []
    for i, plan in enumerate(plans):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seeds[i], spawn_key=(chunk,)))
        u_site, u_pick, mid, mid_ro, final, ro = np.split(
            rng.random((b, plan.cols)), plan.splits, axis=1)
        own = slice(i * b, (i + 1) * b)
        u_mid[own], u_mid_ro[own], u_final[own], u_ro[own] = mid, mid_ro, final[:, 0], ro
        site, traj = np.nonzero((u_site < np.where(plan.two, noise.p2, noise.p1)).T)
        hit_traj.append(traj + i * b)
        hit_pick.append(u_pick[traj, site])
        base.append(len(ptr) - 1)
        ptr += (np.searchsorted(site, np.arange(1, len(plan.two) + 1)) + ptr[-1]).tolist()
    hit_traj, hit_pick = np.concatenate(hit_traj), np.concatenate(hit_pick)
    site_no, mid = [0] * count, 0  # every key meets every measurement

    for instr, group in _walk_group(template, kept, split.cut):
        gate = instr.gate
        if gate.name == "barrier":
            continue
        try:
            rows = batch.select(instr, group)
            if gate.name == "measure":
                if rows is None:
                    rows = np.arange(batch.active)
                batch.measure(rows, gate.qubits[0], gate.clbit, u_mid[:, mid], u_mid_ro[:, mid],
                              noise.p_meas)
                mid += 1
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

    sampled, dim = batch.sample(u_final), 1 << split.n_bits
    clbits = batch.bits[batch.trow, :split.n_bits]
    for j, (q, c) in enumerate(split.terminal):
        clbits[:, c] = ((sampled >> (n - 1 - q)) & 1) ^ (u_ro[:, j] < noise.p_meas)
    outcome = _outcome_index(clbits) + batch.towner * dim
    return np.bincount(outcome, minlength=count * dim).reshape(count, dim)


def run_noisy(circuit: Circuit, noise: NoiseModel, shots: int, seed: int) -> Distribution:
    """Monte-Carlo trajectory sampling of a lowered circuit: run_noisy_template
    of it as a template without holes, with one key and the seed, so a
    blamed error's circuit attribute is 0."""
    return run_noisy_template(CircuitTemplate.of(circuit), [None], noise, shots, [seed])[0]
