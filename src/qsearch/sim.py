"""Dense statevector simulation.

Exact mode enumerates mid-circuit measurement branches with Born-rule
weights; noisy mode samples Monte-Carlo trajectories with depolarizing
Pauli insertions and readout flips.  Statevectors are numpy complex arrays
whose flat index uses qubit 0 as the most significant bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import sqrt

import numpy as np

from .circuit import Circuit, Instruction, RELPHASE_NAMES, census, cx, x, z
from .errors import (
    HasMeasurement,
    TooWide,
    UndefinedGateSemantics,
    ValidationError,
)

MAX_EXACT_WIDTH = 24
MAX_UNITARY_WIDTH = 12
TRAJECTORY_CHUNK = 8192  # fixed, so trajectory t's draws never depend on the shot total
_NORM_TOL = 1e-12


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

    @property
    def trivial(self) -> bool:
        return self.p1 == 0.0 and self.p2 == 0.0 and self.p_meas == 0.0


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
            if abs(self.probabilities.sum() - 1.0) > 1e-12:
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
        marg = _marginal(self.probabilities if self.exact else self.counts, self.n_bits, keep_bits)
        if self.exact:
            return Distribution(len(keep_bits), probabilities=marg / marg.sum())
        return Distribution(len(keep_bits), counts=marg, shots=self.shots)

    def tv_distance(self, other: "Distribution") -> float:
        if self.n_bits != other.n_bits:
            raise ValidationError("distribution widths differ")
        return 0.5 * float(np.abs(self.as_probabilities() - other.as_probabilities()).sum())


def _marginal(arr: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Sum a length-2^n outcome vector over the bits not kept; keep's order."""
    shaped = arr.reshape([2] * n)
    drop = tuple(i for i in range(n) if i not in keep)
    if drop:
        shaped = shaped.sum(axis=drop)
    kept = sorted(keep)
    return shaped.transpose([kept.index(b) for b in keep]).reshape(-1)


# gate application ---------------------------------------------------------

_SQRT_HALF = sqrt(0.5)


def _at(n: int, fixed, rows=slice(None)) -> tuple:
    """Index of a (B, 2, ..., 2) view: the given rows, with the given
    (wire, value) pairs fixed."""
    idx = [rows] + [slice(None)] * n
    for q, v in fixed:
        idx[q + 1] = v
    return tuple(idx)


@cache
def _relphase_phases(name: str, inverse: bool) -> tuple[tuple[tuple[int, ...], complex], ...]:
    """(basis pattern, phase) pairs where a relative-phase primitive's matrix
    differs from the C^kX it approximates, derived from its lowering."""
    from . import synth

    k = 3 if name == "rccx" else 4
    lowering = synth.relphase_ccx if name == "rccx" else synth.relphase_cccx
    u = np.eye(1 << k, dtype=complex)  # row b becomes U|b>
    for instr in lowering(*range(k), inverse=inverse):
        _apply_gate(u, instr.gate, k)
    perm = np.eye(1 << k, dtype=complex)
    _apply_gate(perm, cx(*range(k)), k)
    phases = (u * perm).sum(axis=0)  # U = diag(phases) . C^kX
    if not np.allclose(u, perm * phases[None, :], atol=1e-12):
        raise UndefinedGateSemantics(f"{name} lowering is not C^kX times a diagonal")
    return tuple(
        (tuple((j >> (k - 1 - w)) & 1 for w in range(k)), complex(phases[j]))
        for j in range(1 << k)
        if abs(phases[j] - 1.0) > 1e-12
    )


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
    if name not in ("x", "cx", "h") and name not in RELPHASE_NAMES:
        raise UndefinedGateSemantics(f"no matrix semantics for {name!r}")
    polarity = gate.effective_polarity() if name == "cx" else (1,) * (len(qubits) - 1)
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
    if name in RELPHASE_NAMES:
        for bits, phase in _relphase_phases(name, gate.inverse):
            view[_at(n, (*extra, *zip(qubits, bits)))] *= phase


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
    terminal = instrs[k:]
    qubits = [i.gate.qubits[0] for i in terminal]
    clbits = [i.gate.clbit for i in terminal]
    while len(set(qubits)) != len(qubits) or len(set(clbits)) != len(clbits):
        # re-measurement in the tail: push the first back into the body
        moved = terminal.pop(0)
        instrs.insert(k, moved)
        k += 1
        qubits = [i.gate.qubits[0] for i in terminal]
        clbits = [i.gate.clbit for i in terminal]
    return instrs[:k], list(zip(qubits, clbits)), circuit.n_clbits


def _terminal_outcomes(
    state: np.ndarray, n: int, terminal: list[tuple[int, int]], n_bits: int, base: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(outcome indices, probabilities) of measuring the terminal pairs.

    base holds the bits recorded before; each pair overwrites its own bit.
    """
    marg = _marginal(np.abs(state) ** 2, n, [q for q, _ in terminal])
    if abs(marg.sum() - 1.0) > _NORM_TOL * 10:
        raise ValidationError("statevector norm drifted")
    k = len(terminal)
    v = np.arange(1 << k)
    outcome = np.full(1 << k, base, dtype=np.int64)
    for j, (_, c) in enumerate(terminal):
        shift = n_bits - 1 - c
        outcome = (outcome & ~(1 << shift)) | (((v >> (k - 1 - j)) & 1) << shift)
    return outcome, marg


def _collapse(state: np.ndarray, q: int, n: int, outcome: int, prob: float) -> np.ndarray:
    out = state / sqrt(prob)
    out.reshape((1,) + (2,) * n)[_at(n, ((q, 1 - outcome),))] = 0.0
    return out


def run_exact(circuit: Circuit) -> Distribution:
    """Exact outcome distribution; branches over mid-circuit measurements.

    With no measurement instructions all qubits are implicitly measured in
    wire order; otherwise the distribution ranges over the classical bits.
    """
    n = circuit.n_qubits
    if n > MAX_EXACT_WIDTH:
        raise TooWide(f"{n} qubits exceeds exact limit {MAX_EXACT_WIDTH}")
    body, terminal, n_bits = _terminal_split(circuit)
    probs = np.zeros(1 << n_bits)

    init = np.zeros(1 << n, dtype=complex)
    init[0] = 1.0
    branches: list[tuple[np.ndarray, float, list[int]]] = [(init, 1.0, [0] * circuit.n_clbits)]

    for instr in body:
        next_branches: list[tuple[np.ndarray, float, list[int]]] = []
        for state, weight, clbits in branches:
            if instr.condition is not None and clbits[instr.condition[0]] != instr.condition[1]:
                next_branches.append((state, weight, clbits))
                continue
            gate = instr.gate
            if gate.name == "measure":
                q, c = gate.qubits[0], gate.clbit
                for outcome, p in enumerate(_marginal(np.abs(state) ** 2, n, [q])):
                    if p <= 1e-15:
                        continue
                    collapsed = _collapse(state, q, n, outcome, p)
                    bits = list(clbits)
                    bits[c] = outcome
                    next_branches.append((collapsed, weight * p, bits))
            else:
                _apply_gate(state[None, :], gate, n)
                next_branches.append((state, weight, clbits))
        branches = next_branches
        total = sum(w for _, w, _ in branches)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError("branch weights do not sum to 1")

    for state, weight, clbits in branches:
        base = sum(v << (n_bits - 1 - c) for c, v in enumerate(clbits) if v)
        outcome, marg = _terminal_outcomes(state, n, terminal, n_bits, base)
        np.add.at(probs, outcome, weight * marg)

    probs /= probs.sum()
    return Distribution(n_bits, probabilities=probs)


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
    mids = [i for i, instr in enumerate(body) if instr.gate.name == "measure"]
    n = circuit.n_qubits + len(mids)
    if n > MAX_EXACT_WIDTH:
        raise TooWide(f"{n} qubits exceeds exact limit {MAX_EXACT_WIDTH}")

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
    outcome, marg = _terminal_outcomes(state[0], n, pairs, n_bits)
    probs = np.zeros(1 << n_bits)
    np.add.at(probs, outcome, marg)
    probs /= probs.sum()
    return Distribution(n_bits, probabilities=probs)


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
    extends a run of fewer, and results merge in any order.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    census(circuit)  # raises NotLowered when gates above 2 qubits remain
    n = circuit.n_qubits
    dim = 1 << n
    body, terminal, ncl = _terminal_split(circuit)
    t_qubits = [q for q, _ in terminal]
    t_clbits = [c for _, c in terminal]

    sites = [i for i, instr in enumerate(body) if instr.gate.name not in ("measure", "barrier")]
    mid_measures = [i for i, instr in enumerate(body) if instr.gate.name == "measure"]
    mid_clbits = sorted({body[i].gate.clbit for i in mid_measures})
    n_sites, n_mid, n_term = len(sites), len(mid_measures), len(t_qubits)
    splits = np.cumsum([n_sites, n_sites, n_mid, n_mid, 1])

    counts = np.zeros(1 << ncl, dtype=np.int64)
    for chunk, start in enumerate(range(0, shots, TRAJECTORY_CHUNK)):
        b = min(TRAJECTORY_CHUNK, shots - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        draws = rng.random((b, splits[-1] + n_term))
        u_site, u_pick, u_mid, u_mid_ro, u_final, u_ro = np.split(draws, splits, axis=1)

        state = np.zeros((b, dim), dtype=complex)
        state[:, 0] = 1.0
        view = state.reshape((b,) + (2,) * n)
        all_rows = np.arange(b)
        clbits = np.zeros((b, circuit.n_clbits), dtype=np.int8)
        site_no = mid_no = 0
        for instr in body:
            gate = instr.gate
            if gate.name == "barrier":
                continue
            if instr.condition is None:
                rows = all_rows
            else:
                rows = np.nonzero(clbits[:, instr.condition[0]] == instr.condition[1])[0]
            if gate.name == "measure":
                q, c = gate.qubits[0], gate.clbit
                if rows.size:
                    one = np.abs(view[_at(n, ((q, 1),), rows)]) ** 2
                    p1 = one.reshape(rows.size, -1).sum(axis=1)
                    outcome = (u_mid[rows, mid_no] < p1).astype(np.int8)
                    for o in (0, 1):
                        rr = rows[outcome == o]
                        if not rr.size:
                            continue
                        view[_at(n, ((q, 1 - o),), rr)] = 0.0
                        norms = np.linalg.norm(state[rr], axis=1)
                        state[rr] /= norms[:, None]
                    flips = (u_mid_ro[rows, mid_no] < noise.p_meas).astype(np.int8)
                    clbits[rows, c] = outcome ^ flips
                mid_no += 1
                continue
            if rows.size == b:
                _apply_gate(state, gate, n)
            elif rows.size:
                sub = state[rows]
                _apply_gate(sub, gate, n)
                state[rows] = sub
            p_err = noise.p2 if len(gate.qubits) == 2 else noise.p1
            if p_err > 0.0:
                hit = rows[u_site[rows, site_no] < p_err]
                paulis = _PAULIS[len(gate.qubits)]
                parts = paulis[(u_pick[hit, site_no] * len(paulis)).astype(np.int64)]
                for j, q in enumerate(gate.qubits):
                    # z then x on a wire is -iY: a global phase per trajectory
                    for k, op in enumerate((z(q), x(q))):
                        rr = hit[parts[:, j, k]]
                        if rr.size:
                            sub = state[rr]
                            _apply_gate(sub, op, n)
                            state[rr] = sub
            site_no += 1

        probs = np.abs(state) ** 2
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1][:, None]
        sampled = (cdf < u_final).sum(axis=1)
        outcome_ints = np.zeros(b, dtype=np.int64)
        for c in mid_clbits:
            outcome_ints |= clbits[:, c].astype(np.int64) << (ncl - 1 - c)
        for j, (q, c) in enumerate(zip(t_qubits, t_clbits)):
            bit = (sampled >> (n - 1 - q)) & 1
            bit ^= u_ro[:, j] < noise.p_meas
            outcome_ints &= ~(1 << (ncl - 1 - c))
            outcome_ints |= bit.astype(np.int64) << (ncl - 1 - c)
        counts += np.bincount(outcome_ints, minlength=1 << ncl)

    return Distribution(ncl, counts=counts, shots=shots)
