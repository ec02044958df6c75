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
from functools import lru_cache
from math import sqrt
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, CircuitTemplate, Hole, Instruction, census
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


class _Kernel(NamedTuple):
    """One gate on a (B, 2^n) batch (_kernel): the shape after B of the
    batch's view, with an axis per gate wire and one per run of the other
    wires; the index of the slice that the gate scales by phase or of its
    target's 0 slice (lo), and of the target's 1 slice (hi, None for a
    phase); and the phase, "h" or "swap"."""

    shape: tuple[int, ...]
    lo: tuple
    hi: tuple | None
    op: object


@lru_cache(maxsize=1024)
def _kernel(gate, n: int) -> _Kernel:
    """The kernel of gate on n wires, built once per (gate, n): the gate
    fixes its controls at their polarities, and every wire of a z, rz or
    cz; an h or an x fixes its target at 0 (lo) and 1 (hi)."""
    name, qubits = gate.name, gate.qubits
    if name not in ("z", "rz", "cz", "x", "cx", "h"):
        raise UndefinedGateSemantics(f"no matrix semantics for {name!r}")
    shape, axis, last = [], {}, -1
    for q in sorted(qubits):
        if q > last + 1:
            shape.append(1 << (q - last - 1))
        axis[q] = len(shape) + 1  # axis 0 holds the rows
        shape.append(2)
        last = q
    if last < n - 1:
        shape.append(1 << (n - 1 - last))

    def at(fixed) -> tuple:
        fixed = tuple(fixed)
        idx = [slice(None)] * (1 + max(axis[q] for q, _ in fixed))
        for q, v in fixed:
            idx[axis[q]] = v
        return tuple(idx)

    if name in ("z", "rz", "cz"):
        polarity = gate.effective_polarity() if name == "cz" else (1,)
        phase = np.exp(1j * gate.angle) if name == "rz" else -1.0
        return _Kernel(tuple(shape), at(zip(qubits, polarity)), None, phase)
    fixed = tuple(zip(qubits[:-1], gate.effective_polarity() if name == "cx" else ()))
    target = qubits[-1]
    return _Kernel(tuple(shape), at((*fixed, (target, 0))), at((*fixed, (target, 1))),
                   "h" if name == "h" else "swap")


def _apply_gate(state: np.ndarray, gate, n: int) -> None:
    """Apply one gate in place to a C-contiguous (B, 2^n) batch by its
    kernel (_kernel): a phase on one slice of the view, a swap of the
    target's 0 and 1 slices, or a Hadamard mix of those two slices."""
    if gate.name == "barrier":
        return
    kernel = _kernel(gate, n)
    view = state.reshape((state.shape[0],) + kernel.shape)
    if kernel.hi is None:
        part = view[kernel.lo]
        if part.size == 1:
            # in place, numpy multiplies a lone complex amplitude without
            # the fused multiply-add of its vector loop: an rz on one wire
            # would then depend on how many rows share the call
            part[...] = part * kernel.op
        else:
            part *= kernel.op
        return
    lo, hi = view[kernel.lo], view[kernel.hi]
    if kernel.op == "h":
        diff = lo - hi
        lo += hi
        lo *= _SQRT_HALF
        np.multiply(diff, _SQRT_HALF, out=hi)
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


def _apply_hole(state: np.ndarray, n: int, hole: Hole, rows: np.ndarray,
                key_bits: np.ndarray) -> None:
    """Apply a cx or cz hole in place to the given rows of a (B, 2^n) batch,
    by _BLOCK, row i with the control polarities that the bits key_bits[i]
    of its key give (1 where a control reads no bit): a cz negates each
    amplitude whose controls match, and a cx swaps each such amplitude of
    its target's 0 slice with its partner in the 1 slice.  Beside the
    gathered block, the temporaries are a bool match and, for a cx, a copy
    of the 0 slice: at most 9 bytes per amplitude."""
    controls = hole.qubits if hole.name == "cz" else hole.qubits[:-1]
    weight = [1 << (n - 1 - q) for q in controls]
    marked = [j for j, b in enumerate(hole.bits) if b is not None]
    want = sum(w for w, b in zip(weight, hole.bits) if b is None) + (
        key_bits[:, [hole.bits[j] for j in marked]] @ np.array([weight[j] for j in marked],
                                                              dtype=np.int64))
    on = np.arange(1 << n) & sum(weight)
    if hole.name == "cx":
        t = hole.qubits[-1]
        shape = (1 << t, 2, 1 << (n - 1 - t))
        on = on.reshape(shape)[:, 0]  # the target's 0 slice: no control reads it
    step = max(1, _BLOCK >> n)
    for i in range(0, rows.size, step):
        block = rows[i:i + step]
        match = on == want[i:i + step].reshape((-1,) + (1,) * on.ndim)
        sub = state[block]
        if hole.name == "cz":
            np.multiply(sub, -1.0, out=sub, where=match)
        else:
            view = sub.reshape((len(block),) + shape)
            lo, hi = view[:, :, 0], view[:, :, 1]
            saved = lo.copy()
            np.copyto(lo, hi, where=match)
            np.copyto(hi, saved, where=match)
        state[block] = sub


def _collapse(state: np.ndarray, n: int, rows: np.ndarray, q: int, value: int) -> None:
    """Project the given rows onto wire q = value and renormalise each, by _BLOCK."""
    state.reshape(len(state), 1 << q, 2, 1 << (n - 1 - q))[rows, :, 1 - value] = 0.0
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

    def select(self, keys: np.ndarray | None, condition) -> np.ndarray | None:
        """Live rows of the given keys (None: every key) whose bits meet
        condition, or None when that is every live row."""
        if keys is None:
            if condition is None:
                return None
            select = np.ones(self.active, dtype=bool)
        else:
            member = np.zeros(self.count, dtype=bool)
            member[keys] = True
            select = member[self.owner[:self.active]]
        if condition is not None:
            bit, value = condition
            select &= self.bits[:self.active, bit] == value
        return np.flatnonzero(select)

    def step(self, step: Instruction | Hole, keys: np.ndarray | None, key_bits: np.ndarray) -> None:
        """Apply a gate step of the walk (_walk_group), an instruction or a
        cx or cz hole, to the live rows of the given keys (None: every key)
        that meet its condition; key_bits holds every key's bits."""
        rows = self.select(keys, step.condition)
        if isinstance(step, Hole):
            if rows is None:
                rows = np.arange(self.active)
            _apply_hole(self.state, self.n, step, rows, key_bits[self.owner[rows]])
        else:
            _apply_rows(self.state[:self.active], step.gate, self.n, rows)

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


class _Kept(NamedTuple):
    """What each key of a group keeps of a template (_kept_all): its bits,
    a (keys, key_width) bool table; its flags over the fixed instructions,
    a (keys, fixed) table, or None when every key keeps every one; and
    whether it makes each hole's gate, a (keys, holes) table, or None when
    each hole follows the bits: an x hole for a key whose bit is 0, a cx or
    cz hole for every key."""

    bits: np.ndarray
    flags: np.ndarray | None
    makes: np.ndarray | None

    def __len__(self) -> int:
        return len(self.bits)

    def take(self, group: range) -> "_Kept":
        """The keys of a consecutive group."""
        part = slice(group.start, group.stop)
        return _Kept(*(None if table is None else table[part] for table in self))


def _kept_all(template: CircuitTemplate, keys: list, bits: np.ndarray, split: _Split,
              each=None) -> _Kept:
    """What the keys, with bits template.key_bits(keys), keep of template
    (template._kept), calling each(key, flags, made) as each key's are
    made; an error blames the key's index, and a key that drops the gate
    before the terminal measurements (_template_split) is refused
    (InternalError)."""
    flags_of, makes_of = [], []
    for i, key in enumerate(keys):
        try:
            flags, made = template._kept(key)
            cut = split.cut
            if flags is not None and cut is not None and cut < len(flags) and not flags[-cut - 1]:
                raise InternalError("a key drops the gate before the terminal measurements")
            if each is not None:
                each(key, flags, made)
        except QsearchError as exc:
            raise _blame(exc, i)
        flags_of.append(None if flags is None else np.array(flags, dtype=bool))
        makes_of.append(None if made is None else [bool(slot) for slot in made])
    return _Kept(bits, None if flags_of[0] is None else np.array(flags_of),
                 None if makes_of[0] is None else
                 np.array(makes_of, dtype=bool).reshape(len(keys), len(template._holes)))


def _walk_group(template: CircuitTemplate, kept: _Kept,
                cut: int | None) -> Iterator[tuple[Instruction | Hole, np.ndarray | None]]:
    """Step a group of keys through their fills together, in template order,
    up to the cut terminal measurements: each fixed instruction once, with
    the keys (indices into kept) whose flags keep it, and each hole once,
    with the keys that make it, an x hole as its instruction and a cx or
    cz hole as itself, whose polarities each row takes from its key's bits
    (_Rows.step).  None stands for every key, so every key meets exactly
    its own fill's instructions, in order."""
    flags, makes, count = kept.flags, kept.makes, len(kept)
    every = None if flags is None else flags.all(axis=0).tolist()
    fixed, at = template._fixed, 0
    for j, part in enumerate(fixed):
        end = len(part) - (cut or 0) if j == len(fixed) - 1 else len(part)
        for t, instr in enumerate(part[:end], at):
            if every is None or every[t]:
                yield instr, None
                continue
            group = np.flatnonzero(flags[:, t])
            if group.size:
                yield instr, group
        at += len(part)
        if j == len(fixed) - 1:
            break
        hole = template._holes[j]
        step = hole.instruction if hole.name == "x" else hole
        if makes is not None:
            group = np.flatnonzero(makes[:, j])
        elif hole.name == "x":
            group = np.flatnonzero(~kept.bits[:, hole.bits[0]])
        else:
            group = None
        if group is None or group.size == count:
            yield step, None
        elif group.size:
            yield step, group


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

    Every key is checked (CircuitTemplate.key_bits), and then the terminal
    split and the refusal when n + m > MAX_EXACT_WIDTH come, before any
    hole is made.  The keys run in consecutive groups of at most _BLOCK
    amplitudes, 2^(n+m) per key, each group walking the template once
    (_walk_group); a measurement whose two outcomes are both above 1e-15
    copies a row for outcome 1.  A key's distribution is bit for bit its
    fill's alone.  An error of one key carries its index as circuit
    attribute; one of the split or the width, key 0.
    """
    keys = list(keys)
    if not keys:
        return []
    bits = template.key_bits(keys)
    n = template.n_qubits
    try:
        split = _template_split(template)
        body = [i for part in template._fixed for i in part]
        branches = 1 << (_exact_width(n, body[:len(body) - (split.cut or 0)]) - n)
    except QsearchError as exc:
        raise _blame(exc, 0)
    return _in_groups(
        lambda group: _exact_group(template, keys[group.start:group.stop],
                                   bits[group.start:group.stop], split, branches),
        [branches << n] * len(keys), _BLOCK)


def _exact_group(template: CircuitTemplate, keys: list, bits: np.ndarray, split: _Split,
                 branches: int) -> list[Distribution]:
    """run_exact_template on one group of keys with those bits, given the
    template's split and its branch bound per key.  An error blames the
    first key of its step, and a branch weight that no longer sums to 1 the
    first such key."""
    count = len(keys)
    kept = _kept_all(template, keys, bits, split)
    table = _Rows(count, count * branches, template.n_qubits, split.n_bits, 1.0)
    group = None
    try:
        for step, group in _walk_group(template, kept, split.cut):
            if type(step) is Instruction and step.gate.name == "measure":
                _exact_measure(table, step, group)
            else:
                table.step(step, group, bits)
    except QsearchError as exc:
        raise _blame(exc, 0 if group is None else int(group[0]))
    live = slice(0, table.active)
    hist = _terminal_histograms(table.state[live], table.n, split.terminal,
                                table.bits[live, :split.n_bits].copy(), table.mass[live],
                                table.owner[live], count)
    hist /= hist.sum(axis=1)[:, None]
    return [Distribution(split.n_bits, probabilities=probs) for probs in hist]


def _exact_measure(table: _Rows, instr: Instruction, group: np.ndarray | None) -> None:
    """Measure on the live rows of the keys in group (None: every key) that
    meet the condition, each row branching by its possible outcomes."""
    rows = table.select(group, instr.condition)
    if rows is None:
        rows = np.arange(table.active)
    gate = instr.gate
    q = gate.qubits[0]
    p = _marginal(np.abs(table.state[rows]) ** 2, table.n, [q])
    k, outcome = np.nonzero(p > 1e-15)
    dest = table.split(rows[k], outcome, outcome, q, gate.clbit)
    table.mass[dest] *= p[k, outcome]
    live = slice(0, table.active)
    total = np.bincount(table.owner[live], table.mass[live], minlength=table.count)
    for i in range(table.count) if group is None else group:
        if not abs(total[i] - 1.0) <= 1e-12:  # NaN fails too
            raise _blame(ValidationError("branch weights do not sum to 1"), int(i))


def run_exact(circuit: Circuit) -> Distribution:
    """Exact outcome distribution: run_exact_template of the circuit as a
    template without holes, with one key, so a blamed error's circuit
    attribute is 0."""
    return run_exact_template(CircuitTemplate.of(circuit), [""])[0]


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
        for j, q in enumerate(qubits):
            view = sub.reshape(len(block), 1 << q, 2, 1 << (n - 1 - q))
            lo, hi = view[:, :, 0], view[:, :, 1]
            has_z, has_x = part[:, j, 0, None, None], part[:, j, 1, None, None]
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
    def of(cls, template: CircuitTemplate, key, flags, made, split: _Split) -> "_NoisyPlan":
        made = template._made(key, made)
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
        # half and numpy's copy of the other; a cx or cz hole step's gathered
        # block and temporaries take at most 25, a measurement 24, the final
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
    trajectory t depends only on (seed, t).  Each key is checked and
    planned, and refused over MAX_NOISY_BYTES, before any draw
    (plan_noisy_template); the keys run in consecutive groups within that
    budget, each walking the template once (_walk_group) as rows of one
    batch (_Trajectories), so every key gets bit for bit the counts its
    fill gets alone.  An error of one key carries its index as circuit
    attribute.
    """
    return plan_noisy_template(template, keys, shots).sample(noise, seeds)


class NoisyTemplatePlan(NamedTuple):
    """What run_noisy_template plans of a template's keys at a shot count,
    none of it depending on the noise or the seeds (plan_noisy_template):
    the split, what each key keeps, and per key its plan and chunk bytes."""

    template: CircuitTemplate
    shots: int
    split: _Split | None
    kept: _Kept | None
    plans: list[_NoisyPlan]
    needs: list[int]

    def sample(self, noise: NoiseModel, seeds: list[int]) -> list[Distribution]:
        """run_noisy_template of the planned keys under noise, key i with seed seeds[i]."""
        seeds = list(seeds)
        if len(seeds) != len(self.plans):
            raise ValidationError(f"{len(self.plans)} keys need as many seeds, got {len(seeds)}")
        if not seeds:
            return []
        return _in_groups(
            lambda group: _noisy_group(self.template, self.split, self.kept.take(group),
                                       self.plans[group.start:group.stop], noise, self.shots,
                                       seeds[group.start:group.stop]),
            self.needs, MAX_NOISY_BYTES)


def plan_noisy_template(template: CircuitTemplate, keys: Iterable, shots: int) -> NoisyTemplatePlan:
    """run_noisy_template's plan of the keys at shots, so that a sweep
    plans its keys once for every noise and seed: each key is checked
    (CircuitTemplate.key_bits), its keep flags made once, its fill checked
    to be lowered and its chunk refused over MAX_NOISY_BYTES (OverBudget);
    an error blames the key."""
    keys = list(keys)
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if not keys:
        return NoisyTemplatePlan(template, shots, None, None, [], [])
    bits = template.key_bits(keys)
    n = template.n_qubits
    try:
        split = _template_split(template)
    except QsearchError as exc:
        raise _blame(exc, 0)
    plans, needs = [], []

    def plan(key, flags, made):
        plan = _NoisyPlan.of(template, key, flags, made, split)
        need = plan.chunk_bytes(n, shots)
        if need > MAX_NOISY_BYTES:
            raise OverBudget(
                f"{min(shots, TRAJECTORY_CHUNK)} trajectories of {plan.cols} uniforms and "
                f"{n}-qubit states need {need / 2**30:.2f} GiB per chunk, over the "
                f"{MAX_NOISY_BYTES / 2**30:.2f} GiB budget")
        plans.append(plan)
        needs.append(need)

    kept = _kept_all(template, keys, bits, split, plan)
    return NoisyTemplatePlan(template, shots, split, kept, plans, needs)


def _noisy_group(template: CircuitTemplate, split: _Split, kept: _Kept,
                 plans: list[_NoisyPlan], noise: NoiseModel, shots: int,
                 seeds: list[int]) -> list[Distribution]:
    """run_noisy_template on one group of keys, chunk by chunk."""
    counts = np.zeros((len(plans), 1 << split.n_bits), dtype=np.int64)
    for chunk, start in enumerate(range(0, shots, TRAJECTORY_CHUNK)):
        b = min(TRAJECTORY_CHUNK, shots - start)
        counts += _noisy_chunk(template, split, kept, plans, noise, seeds, chunk, b)
    return [Distribution(split.n_bits, counts=c, shots=shots) for c in counts]


def _noisy_chunk(template: CircuitTemplate, split: _Split, kept: _Kept,
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

    everyone, group = range(count), None
    try:
        for step, group in _walk_group(template, kept, split.cut):
            qubits = step.qubits if type(step) is Hole else step.gate.qubits
            if type(step) is Instruction and step.gate.name in ("barrier", "measure"):
                if step.gate.name == "measure":
                    rows = batch.select(group, step.condition)
                    batch.measure(np.arange(batch.active) if rows is None else rows, qubits[0],
                                  step.gate.clbit, u_mid[:, mid], u_mid_ro[:, mid], noise.p_meas)
                    mid += 1
                continue
            batch.step(step, group, kept.bits)
            spans = []
            for i in everyone if group is None else group.tolist():
                s = base[i] + site_no[i]
                site_no[i] += 1
                if ptr[s + 1] > ptr[s]:
                    spans.append(slice(ptr[s], ptr[s + 1]))
            if not spans:
                continue
            hits = np.concatenate([hit_traj[s] for s in spans])
            picks = np.concatenate([hit_pick[s] for s in spans])
            if step.condition is not None:
                bit, value = step.condition
                met = batch.bits[batch.trow[hits], bit] == value
                hits, picks = hits[met], picks[met]
            _insert_paulis(batch.state, n, qubits, batch.leave(hits), picks)
    except QsearchError as exc:
        raise _blame(exc, 0 if group is None else int(group[0]))

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
    return run_noisy_template(CircuitTemplate.of(circuit), [""], noise, shots, [seed])[0]
