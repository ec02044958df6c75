"""Dense statevector simulation.

Exact mode enumerates mid-circuit measurement branches with Born-rule
weights; noisy mode samples Monte-Carlo trajectories with depolarizing
Pauli insertions and readout flips.  Statevectors are numpy complex arrays
whose flat index uses qubit 0 as the most significant bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import sqrt

import numpy as np

from .circuit import Circuit, Instruction, RELPHASE_NAMES, census, cx
from .errors import (
    HasMeasurement,
    NotLowered,
    TooWide,
    UndefinedGateSemantics,
    ValidationError,
)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)

MAX_EXACT_WIDTH = 24
MAX_UNITARY_WIDTH = 12
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

def _bit_values(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


@lru_cache(maxsize=4096)
def _diag_vector(key, n: int) -> np.ndarray:
    """Diagonal for z / rz / cz gates; key carries name, qubits, pol, angle."""
    name, qubits, polarity, angle = key
    if name == "z":
        return (1.0 - 2.0 * _bit_values(n, qubits[0])).astype(complex)
    if name == "rz":
        return np.exp(1j * angle * _bit_values(n, qubits[0]))
    if name == "cz":
        match = np.ones(1 << n, dtype=bool)
        for q, p in zip(qubits, polarity):
            match &= _bit_values(n, q) == p
        diag = np.ones(1 << n, dtype=complex)
        diag[match] = -1.0
        return diag
    raise UndefinedGateSemantics(name)


@lru_cache(maxsize=4096)
def _perm_vector(key, n: int) -> np.ndarray:
    """Index permutation for x / cx gates (an involution)."""
    name, qubits, polarity = key
    idx = np.arange(1 << n)
    if name == "x":
        return idx ^ (1 << (n - 1 - qubits[0]))
    if name == "cx":
        controls, target = qubits[:-1], qubits[-1]
        match = np.ones(1 << n, dtype=bool)
        for q, p in zip(controls, polarity):
            match &= _bit_values(n, q) == p
        return idx ^ (match.astype(np.int64) << (n - 1 - target))
    raise UndefinedGateSemantics(name)


@lru_cache(maxsize=64)
def _relphase_matrix(name: str, inverse: bool) -> np.ndarray:
    """Dense matrix of a relative-phase primitive, from its lowering."""
    from . import synth

    k = 3 if name == "rccx" else 4
    if name == "rccx":
        frag = synth.relphase_ccx(0, 1, 2, inverse=inverse)
    else:
        frag = synth.relphase_cccx(0, 1, 2, 3, inverse=inverse)
    u = np.eye(1 << k, dtype=complex)
    for instr in frag:
        u = _apply_gate(u, instr.gate, k)
    return u.T.copy()


def _apply_matrix(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix on the given qubits of a (B, 2^n) batch."""
    b = state.shape[0]
    k = len(qubits)
    shaped = state.reshape([b] + [2] * n)
    axes = [q + 1 for q in qubits]
    shaped = np.moveaxis(shaped, axes, range(n - k + 1, n + 1))
    shaped = shaped.reshape(-1, 1 << k) @ matrix.T
    shaped = shaped.reshape([b] + [2] * n)
    shaped = np.moveaxis(shaped, range(n - k + 1, n + 1), axes)
    return shaped.reshape(b, 1 << n)


def _apply_gate(state: np.ndarray, gate, n: int) -> np.ndarray:
    """Apply one gate to a (B, 2^n) batch of statevectors."""
    name = gate.name
    if name == "barrier":
        return state
    if name in ("z", "rz"):
        diag = _diag_vector((name, gate.qubits, None, gate.angle), n)
        return state * diag[None, :]
    if name == "cz":
        diag = _diag_vector(("cz", gate.qubits, gate.effective_polarity(), None), n)
        return state * diag[None, :]
    if name in ("x", "cx"):
        key = (name, gate.qubits, gate.effective_polarity() if name == "cx" else None)
        perm = _perm_vector(key, n)
        return state[:, perm]
    if name == "h":
        return _apply_matrix(state, _H, gate.qubits, n)
    if name in RELPHASE_NAMES:
        return _apply_matrix(state, _relphase_matrix(name, gate.inverse), gate.qubits, n)
    raise UndefinedGateSemantics(f"no matrix semantics for {name!r}")


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
    keep = _bit_values(n, q) == outcome
    out = np.where(keep, state, 0.0)
    return out / sqrt(prob)


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
                out = _apply_gate(state[None, :], gate, n)[0]
                next_branches.append((out, weight, clbits))
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
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    state = state[None, :]
    next_wire = circuit.n_qubits

    for instr in body:
        gate = instr.gate
        control = None
        if instr.condition is not None:
            bit, value = instr.condition
            if bit not in record:
                raise ValidationError("condition on a bit with no deferred measurement")
            control = (record[bit], value)
        if gate.name == "measure":
            if control is not None:
                raise HasMeasurement("conditioned measurements cannot be deferred")
            record[gate.clbit] = next_wire
            state = _apply_gate(state, cx(gate.qubits[0], next_wire), n)
            next_wire += 1
            continue
        if control is None:
            state = _apply_gate(state, gate, n)
            continue
        ctrl, value = control
        shaped = state.reshape([1] + [2] * n)
        shaped = np.moveaxis(shaped, ctrl + 1, 1).copy()
        remapped = replace(
            gate, qubits=tuple(q if q < ctrl else q - 1 for q in gate.qubits)
        )
        branch = shaped[:, value].reshape(1, -1)
        branch = _apply_gate(branch, remapped, n - 1)
        shaped[:, value] = branch.reshape(shaped[:, value].shape)
        state = np.moveaxis(shaped, 1, ctrl + 1).reshape(1, -1)

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
        batch = _apply_gate(batch, instr.gate, n)
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

_PAULI_1Q = ("x", "y", "z")


@lru_cache(maxsize=2048)
def _pauli_table(qubits: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor masks, phase vectors) for the non-identity Paulis on qubits."""
    dim = 1 << n
    singles = []
    for q in qubits:
        mask_bit = 1 << (n - 1 - q)
        bits = _bit_values(n, q)
        singles.append(
            {
                "i": (0, np.ones(dim, dtype=complex)),
                "x": (mask_bit, np.ones(dim, dtype=complex)),
                "y": (mask_bit, 1j * (2.0 * bits - 1.0)),
                "z": (0, (1.0 - 2.0 * bits).astype(complex)),
            }
        )
    if len(qubits) == 1:
        combos = [(p,) for p in _PAULI_1Q]
    else:
        labels = ("i", "x", "y", "z")
        combos = [
            (a, b) for a in labels for b in labels if not (a == "i" and b == "i")
        ]
    masks = np.zeros(len(combos), dtype=np.int64)
    phases = np.ones((len(combos), dim), dtype=complex)
    for ci, combo in enumerate(combos):
        for sq, p in zip(singles, combo):
            m, ph = sq[p]
            masks[ci] ^= m
            phases[ci] *= ph
    return masks, phases


def run_noisy(circuit: Circuit, noise: NoiseModel, shots: int, seed: int) -> Distribution:
    """Monte-Carlo trajectory sampling of a lowered circuit.

    After each 1- or 2-qubit gate a uniformly random non-identity Pauli on
    the touched qubits is inserted with probability p1 / p2; recorded bits
    flip with probability p_meas.  Trajectory t draws from an independent
    stream seeded by (seed, t); results are reproducible and merge-order
    independent.
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

    counts = np.zeros(1 << ncl, dtype=np.int64)
    chunk_size = 8192
    for start in range(0, shots, chunk_size):
        b = min(chunk_size, shots - start)
        u_site = np.empty((b, n_sites))
        pauli_pick = np.empty((b, n_sites), dtype=np.int64)
        u_mid = np.empty((b, n_mid))
        u_mid_ro = np.empty((b, n_mid))
        u_final = np.empty(b)
        u_ro = np.empty((b, n_term))
        for r in range(b):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(start + r,))
            )
            u_site[r] = rng.random(n_sites)
            pauli_pick[r] = rng.integers(0, 15, n_sites)
            u_mid[r] = rng.random(n_mid)
            u_mid_ro[r] = rng.random(n_mid)
            u_final[r] = rng.random()
            u_ro[r] = rng.random(n_term)

        state = np.zeros((b, dim), dtype=complex)
        state[:, 0] = 1.0
        clbits = np.zeros((b, circuit.n_clbits), dtype=np.int8)
        site_no = mid_no = 0
        for instr in body:
            gate = instr.gate
            if gate.name == "barrier":
                continue
            active = (
                clbits[:, instr.condition[0]] == instr.condition[1]
                if instr.condition is not None
                else np.ones(b, dtype=bool)
            )
            if gate.name == "measure":
                q, c = gate.qubits[0], gate.clbit
                rows = np.nonzero(active)[0]
                if rows.size:
                    bits = _bit_values(n, q)
                    p1 = (np.abs(state[rows]) ** 2)[:, bits == 1].sum(axis=1)
                    outcome = (u_mid[rows, mid_no] < p1).astype(np.int8)
                    for o in (0, 1):
                        rr = rows[outcome == o]
                        if not rr.size:
                            continue
                        state[rr] *= (bits == o)[None, :]
                        norms = np.linalg.norm(state[rr], axis=1)
                        state[rr] /= norms[:, None]
                    flips = (u_mid_ro[rows, mid_no] < noise.p_meas).astype(np.int8)
                    clbits[rows, c] = outcome ^ flips
                mid_no += 1
                continue
            rows = np.nonzero(active)[0]
            if rows.size:
                state[rows] = _apply_gate(state[rows], gate, n)
                p_err = noise.p2 if len(gate.qubits) == 2 else noise.p1
                if p_err > 0.0:
                    hit = rows[u_site[rows, site_no] < p_err]
                    if hit.size:
                        masks, phases = _pauli_table(gate.qubits, n)
                        n_paulis = masks.shape[0]
                        picks = pauli_pick[hit, site_no] % n_paulis
                        idx = np.arange(dim)
                        for val in np.unique(picks):
                            rr = hit[picks == val]
                            perm = idx ^ masks[val]
                            state[rr] = state[rr][:, perm] * phases[val][None, :]
            site_no += 1

        probs = np.abs(state) ** 2
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1][:, None]
        sampled = (cdf < u_final[:, None]).sum(axis=1)
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
