"""Dense statevector simulation.

Exact mode enumerates mid-circuit measurement branches with Born-rule
weights; noisy mode samples Monte-Carlo trajectories with depolarizing
Pauli insertions and readout flips.  Both keep their branches or
trajectories as the rows of one (B, 2^n) complex batch, next to a
(B, n_bits) table of classical bits.  A row's flat index uses qubit 0 as
the most significant bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .circuit import Circuit, Instruction, census, cx, x, z
from .errors import (
    HasMeasurement,
    OverBudget,
    TooWide,
    UndefinedGateSemantics,
    ValidationError,
)

MAX_EXACT_WIDTH = 24
MAX_UNITARY_WIDTH = 12
MAX_NOISY_BYTES = 1 << 30  # one trajectory chunk's uniforms plus its largest state batch
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

    def tv_distance(self, other: "Distribution") -> float:
        if self.n_bits != other.n_bits:
            raise ValidationError("distribution widths differ")
        return 0.5 * float(np.abs(self.as_probabilities() - other.as_probabilities()).sum())


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


def _apply_gate(state: np.ndarray, gate, n: int, extra=()) -> None:
    """Apply one gate in place to a C-contiguous (B, 2^n) batch.

    The gate fixes some wires of the (B, 2, ..., 2) view (its controls with
    their polarities, plus the (wire, value) pairs in extra) and acts on the
    remaining slice: a phase, a swap of the target's 0 and 1 slices, or a
    Hadamard mix of those two slices.
    """
    name = gate.name
    if name == "barrier":
        return
    view = state.reshape((state.shape[0],) + (2,) * n)
    qubits = gate.qubits
    if name in ("z", "rz", "cz"):
        polarity = gate.effective_polarity() if name == "cz" else (1,)
        phase = np.exp(1j * gate.angle) if name == "rz" else -1.0
        view[_at(n, (*extra, *zip(qubits, polarity)))] *= phase
        return
    if name not in ("x", "cx", "h"):
        raise UndefinedGateSemantics(f"no matrix semantics for {name!r}")
    polarity = gate.effective_polarity() if name == "cx" else ()  # h and x have no controls
    fixed = (*extra, *zip(qubits[:-1], polarity))
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

def _rows(instr: Instruction, clbits: np.ndarray) -> np.ndarray:
    """Rows of a batch whose classical bits meet instr's condition."""
    if instr.condition is None:
        return np.arange(len(clbits))
    bit, value = instr.condition
    return np.nonzero(clbits[:, bit] == value)[0]


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


# exact simulation ----------------------------------------------------------

def _terminal_split(circuit: Circuit) -> tuple[list[Instruction], list[tuple[int, int]], int]:
    """Split into (body, terminal (qubit, clbit) pairs, outcome width).

    The terminal pairs are the trailing unconditioned measurements.  A
    circuit without any measurement measures every qubit into the bit of
    the same index at the end, so its outcome ranges over the qubits.
    """
    instrs = list(circuit.instructions)
    if not any(i.gate.name == "measure" for i in instrs):
        return instrs, [(q, q) for q in range(circuit.n_qubits)], circuit.n_qubits
    k = len(instrs)
    while k > 0:
        instr = instrs[k - 1]
        if instr.gate.name != "measure" or instr.condition is not None:
            break
        k -= 1
    pairs = [(i.gate.qubits[0], i.gate.clbit) for i in instrs[k:]]
    while len({q for q, _ in pairs}) < len(pairs) or len({c for _, c in pairs}) < len(pairs):
        # re-measurement in the tail: push the first back into the body
        pairs.pop(0)
        k += 1
    return instrs[:k], pairs, circuit.n_clbits


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


def _terminal_distribution(state: np.ndarray, n: int, terminal: list[tuple[int, int]],
                           clbits: np.ndarray, weights: np.ndarray) -> Distribution:
    """Distribution of measuring the terminal pairs on every row of a batch.

    Row r carries weight weights[r] and the bits clbits[r] recorded before;
    each terminal pair overwrites its own bit.
    """
    probs = np.abs(state)
    probs **= 2  # in place: the batch may hold 2^m branch rows
    marg = _marginal(probs, n, [q for q, _ in terminal])
    if not np.abs(marg.sum(axis=1) - 1.0).max() <= _NORM_TOL * 10:  # NaN fails too
        raise ValidationError("statevector norm drifted")
    k, cols = len(terminal), [c for _, c in terminal]
    clbits[:, cols] = 0
    patterns = np.zeros((1 << k, clbits.shape[1]), dtype=np.int8)
    patterns[:, cols] = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    outcome = _outcome_index(clbits)[:, None] + _outcome_index(patterns)
    probs = np.bincount(outcome.ravel(), (weights[:, None] * marg).ravel(), 1 << clbits.shape[1])
    return Distribution(clbits.shape[1], probabilities=probs / probs.sum())


def run_exact(circuit: Circuit) -> Distribution:
    """Exact outcome distribution; branches over mid-circuit measurements.

    With no measurement instructions all qubits are implicitly measured in
    wire order; otherwise the distribution ranges over the classical bits.
    Each branch is a row of one batch with a Born-rule weight and a row of
    classical bits; a measurement whose two outcomes both have probability
    above 1e-15 appends a copy of the row for outcome 1.
    """
    n = circuit.n_qubits
    body, terminal, n_bits = _terminal_split(circuit)
    _exact_width(n, body)
    state = np.zeros((1, 1 << n), dtype=complex)
    state[0, 0] = 1.0
    weights = np.ones(1)
    clbits = np.zeros((1, n_bits), dtype=np.int8)

    for instr in body:
        gate = instr.gate
        if gate.name != "measure":
            _apply_rows(state, gate, n, None if instr.condition is None else _rows(instr, clbits))
            continue
        rows = _rows(instr, clbits)
        q, c = gate.qubits[0], gate.clbit
        p = _marginal(np.abs(state) ** 2, n, [q])[rows]
        live = p > 1e-15
        split = live.all(axis=1)
        one = rows.copy()
        one[split] = np.arange(len(state), len(state) + split.sum())  # the appended copies
        grown = np.concatenate([np.arange(len(state)), rows[split]])  # one gather, no temporary
        state, weights, clbits = state[grown], weights[grown], clbits[grown]
        for value, dest in ((0, rows), (1, one)):
            dest = dest[live[:, value]]
            _collapse(state, n, dest, q, value)
            weights[dest] *= p[live[:, value], value]
            clbits[dest, c] = value
        if not abs(weights.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ValidationError("branch weights do not sum to 1")

    return _terminal_distribution(state, n, terminal, clbits, weights)


def run_deferred(circuit: Circuit) -> Distribution:
    """Run with mid-circuit measurements replaced by coherent controls.

    The principle-of-deferred-measurement transform: each mid-circuit
    measurement copies its qubit onto a fresh record wire with a CX, and
    every classically conditioned gate becomes quantum-controlled on that
    record wire.  The measured qubit itself stays coherent, so later gates
    on it (ancilla resets included) are handled correctly.  Record wires
    are measured into their classical bits at the end.
    """
    body, terminal, n_bits = _terminal_split(circuit)
    n = _exact_width(circuit.n_qubits, body)

    record: dict[int, int] = {}  # classical bit -> record wire
    state = np.zeros((1, 1 << n), dtype=complex)
    state[0, 0] = 1.0
    next_wire = circuit.n_qubits

    for instr in body:
        gate = instr.gate
        control = ()
        if instr.condition is not None:
            bit, value = instr.condition
            if bit not in record:
                raise ValidationError("condition on a bit with no deferred measurement")
            control = ((record[bit], value),)
        if gate.name == "measure":
            if control:
                raise HasMeasurement("conditioned measurements cannot be deferred")
            record[gate.clbit] = next_wire
            _apply_gate(state, cx(gate.qubits[0], next_wire), n)
            next_wire += 1
        else:
            _apply_gate(state, gate, n, control)

    pairs = terminal + [(wire, c) for c, wire in record.items()]
    no_bits = np.zeros((1, n_bits), dtype=np.int8)
    return _terminal_distribution(state, n, pairs, no_bits, np.ones(1))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of a measurement-free circuit."""
    n = circuit.n_qubits
    if n > MAX_UNITARY_WIDTH:
        raise TooWide(f"{n} qubits exceeds unitary limit {MAX_UNITARY_WIDTH}")
    for instr in circuit.instructions:
        if instr.gate.name == "measure":
            raise HasMeasurement("unitary_of does not support measurements")
        if instr.condition is not None:
            raise HasMeasurement("unitary_of does not support classical conditions")
    dim = 1 << n
    batch = np.eye(dim, dtype=complex)  # row b is basis state b
    for instr in circuit.instructions:
        _apply_gate(batch, instr.gate, n)
    return batch.T.copy()


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between u and v minimized over a global phase."""
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-14 else 1.0
    return float(np.linalg.norm(u - phase * v))


def ancilla_block(u: np.ndarray, n_data: int, n_anc: int) -> tuple[np.ndarray, float]:
    """Restrict u to ancillas in |0> at input; returns (block, leakage).

    Ancillas are the trailing wires.  leakage is the norm of the part of
    u|psi, 0...0> outside the ancilla-zero subspace.
    """
    dim_d, dim_a = 1 << n_data, 1 << n_anc
    full = u.reshape(dim_d, dim_a, dim_d, dim_a)
    block = full[:, 0, :, 0]
    rest = full[:, 1:, :, 0]
    return block, float(np.linalg.norm(rest))


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
    for j, q in enumerate(qubits):
        # z then x on a wire is -iY: a global phase per trajectory
        for k, op in enumerate((z(q), x(q))):
            _apply_rows(state, op, n, rows[parts[:, j, k]])


def run_noisy(circuit: Circuit, noise: NoiseModel, shots: int, seed: int) -> Distribution:
    """Monte-Carlo trajectory sampling of a lowered circuit.

    After each 1- or 2-qubit gate a uniformly random non-identity Pauli on
    the touched qubits is inserted with probability p1 / p2; recorded bits
    flip with probability p_meas.

    Trajectories run in chunks of TRAJECTORY_CHUNK.  Chunk c draws every
    uniform it needs in one row-major block from the stream seeded by
    SeedSequence(entropy=seed, spawn_key=(c,)); row r holds trajectory
    c * TRAJECTORY_CHUNK + r, its columns split into site-hit, Pauli-pick,
    mid-measure, mid-readout, final-sample and terminal-readout draws.
    Trajectory t therefore depends only on (seed, t): a run of more shots
    extends a run of fewer, and results merge in any order.  A chunk whose
    draws and largest batch would take more than MAX_NOISY_BYTES is
    refused before any draw.

    Every draw is made before any gate runs, so each trajectory's first
    Pauli insertion is known up front.  Until it, the trajectory's state is
    the error-free one, which a single reference row (row 0 of the batch)
    carries for every such trajectory.  A trajectory gets a row of its own,
    a copy of the reference row, just before the instruction of its first
    insertion, or before the first measurement or classically conditioned
    instruction, whichever comes first.  Own rows follow row 0 in the order
    they are made, so gates act on a prefix of the batch.  A trajectory
    that never leaves the reference row samples the reference row's
    distribution with its own final-sample and readout draws.  Each kernel
    works row by row, so an own row holds bit for bit the state that
    trajectory would reach on its own, and the counts for a given seed are
    those of simulating every trajectory separately.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    census(circuit)  # raises NotLowered when gates above 2 qubits remain
    n = circuit.n_qubits
    body, terminal, ncl = _terminal_split(circuit)
    body = [instr for instr in body if instr.gate.name != "barrier"]

    n_mid = sum(instr.gate.name == "measure" for instr in body)
    splits = np.cumsum([len(body) - n_mid] * 2 + [n_mid] * 2 + [1])
    cols = int(splits[-1]) + len(terminal)
    b = min(shots, TRAJECTORY_CHUNK)
    need = b * cols * 8 + (b + 1) * (16 << n)
    if need > MAX_NOISY_BYTES:
        raise OverBudget(
            f"{b} trajectories of {cols} uniforms and {n}-qubit states need "
            f"{need / 2**30:.2f} GiB per chunk, over the {MAX_NOISY_BYTES / 2**30:.2f} GiB budget"
        )
    rates = np.array([noise.p2 if len(instr.gate.qubits) == 2 else noise.p1 for instr in body])
    # the cap: instructions before the first measurement or conditioned one are all error sites
    cap = next((i for i, instr in enumerate(body)
                if instr.gate.name == "measure" or instr.condition is not None), len(body))

    counts = np.zeros(1 << ncl, dtype=np.int64)
    for chunk, start in enumerate(range(0, shots, TRAJECTORY_CHUNK)):
        b = min(TRAJECTORY_CHUNK, shots - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        draws = rng.random((b, cols))
        u_site, u_pick, u_mid, u_mid_ro, u_final, u_ro = np.split(draws, splits, axis=1)

        # own[t]: the instruction before which trajectory t leaves the reference
        # row, its first insertion (the number of sites it passes unhit) or the cap
        own = np.logical_and.accumulate(u_site[:, :cap] >= rates[:cap], axis=1).sum(axis=1)
        order = np.argsort(own, kind="stable")  # own row j belongs to trajectory order[j]
        made = np.searchsorted(own[order], np.arange(len(body)), side="right").tolist()

        state = np.zeros((b + 1, 1 << n), dtype=complex)
        state[0, 0] = 1.0
        own_rows = state[1:]
        clbits = np.zeros((b, ncl), dtype=np.int8)  # row j: trajectory order[j]
        active = site_no = mid_no = 0
        for i, instr in enumerate(body):
            if made[i] > active:
                state[1 + active:1 + made[i]] = state[0]
                active = made[i]
            gate = instr.gate
            if gate.name == "measure":
                rows = _rows(instr, clbits)
                q = gate.qubits[0]
                p1 = _marginal(np.abs(own_rows) ** 2, n, [q])[rows, 1]
                outcome = (u_mid[order[rows], mid_no] < p1).astype(np.int8)
                for value in (0, 1):
                    _collapse(own_rows, n, rows[outcome == value], q, value)
                clbits[rows, gate.clbit] = outcome ^ (u_mid_ro[order[rows], mid_no] < noise.p_meas)
                mid_no += 1
                continue
            rows = None if instr.condition is None else _rows(instr, clbits)
            if rows is None:
                # the live prefix: the reference row while a trajectory is on it, and the own rows
                _apply_rows(state[int(active == b):1 + active], gate, n)
            else:
                _apply_rows(own_rows, gate, n, rows)
            if rates[i] > 0.0:
                live = order[:active] if rows is None else order[rows]
                hit = np.flatnonzero(u_site[live, site_no] < rates[i])
                if rows is not None:
                    hit = rows[hit]
                _insert_paulis(own_rows, n, gate.qubits, hit, u_pick[order[hit], site_no])
            site_no += 1

        cdf = np.cumsum(np.abs(state[:1 + active]) ** 2, axis=1)
        cdf /= cdf[:, -1][:, None]
        sampled = np.empty(b, dtype=np.int64)
        sampled[:active] = (cdf[1:] < u_final[order[:active]]).sum(axis=1)
        # cdf[0] never decreases, so searchsorted counts its entries below each draw
        sampled[active:] = np.searchsorted(cdf[0], u_final[order[active:], 0])
        for j, (q, c) in enumerate(terminal):
            clbits[:, c] = ((sampled >> (n - 1 - q)) & 1) ^ (u_ro[order, j] < noise.p_meas)
        counts += np.bincount(_outcome_index(clbits), minlength=1 << ncl)

    return Distribution(ncl, counts=counts, shots=shots)
