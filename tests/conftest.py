"""Shared helpers and hypothesis strategies."""
from dataclasses import replace
from math import pi, sqrt
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from qsearch import families, sim, synth
from qsearch.circuit import (
    Circuit,
    CircuitBuilder,
    CircuitTemplate,
    _inverse_pair,
    census,
    cx,
    cz,
    h,
    peephole_cancel,
    rz,
    strip_trailing_uncompute,
    x,
    z,
)
from qsearch.errors import TooWide, UndefinedGateSemantics, ValidationError
from qsearch.families import FamilyRequest, Partition
from qsearch.synth import OracleSpec


def terminal_split(circuit: Circuit) -> tuple[list, list[tuple[int, int]], int]:
    """(body, terminal (qubit, clbit) pairs, outcome width) of a circuit, as
    the simulators split it (sim._template_split)."""
    terminal, n_bits, cut = sim._template_split(CircuitTemplate.of(circuit))
    body = list(circuit.instructions)
    return body[:len(body) - (cut or 0)], terminal, n_bits


def frag_circuit(frag, n_qubits, n_clbits=0) -> Circuit:
    b = CircuitBuilder(n_qubits, n_clbits)
    b.extend(frag)
    return b.build()


def frag_unitary(frag, n_qubits) -> np.ndarray:
    return unitary_of(frag_circuit(frag, n_qubits))


# Independent checks on circuits and distributions: dense unitaries and
# deferred measurement, on an n-axis gate loop of their own.

def _at(n: int, fixed, rows=slice(None)) -> tuple:
    """Index of a (B, 2, ..., 2) view: the given rows, with the given
    (wire, value) pairs fixed."""
    idx = [rows] + [slice(None)] * n
    for q, v in fixed:
        idx[q + 1] = v
    return tuple(idx)


def apply_gate_reference(state: np.ndarray, gate, n: int) -> None:
    """The n-axis gate loop that sim's per-gate kernels replaced: apply one
    gate in place to a C-contiguous (B, 2^n) batch.

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
        idx = _at(n, zip(qubits, polarity))
        # not in place: numpy's in-place multiply of a lone complex amplitude
        # skips the fused multiply-add of its vector loop
        view[idx] = view[idx] * phase
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
        lo *= sqrt(0.5)
        diff *= sqrt(0.5)
        hi[...] = diff
        return
    lo_copy = lo.copy()
    lo[...] = hi
    hi[...] = lo_copy


def apply_rows_reference(state: np.ndarray, gate, n: int, rows: np.ndarray) -> None:
    """apply_gate_reference on the given rows of a (B, 2^n) batch."""
    sub = state[rows]
    apply_gate_reference(sub, gate, n)
    state[rows] = sub


MAX_UNITARY_WIDTH = 12


class HasMeasurement(ValidationError):
    """A unitary or deferred-measurement reference was given a circuit it cannot take."""


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
        apply_gate_reference(batch, instr.gate, n)
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


def tv_distance(a: sim.Distribution, b: sim.Distribution) -> float:
    """Total variation distance between two distributions of one width."""
    if a.n_bits != b.n_bits:
        raise ValidationError("distribution widths differ")
    return 0.5 * float(np.abs(a.as_probabilities() - b.as_probabilities()).sum())


def _apply_controlled(state: np.ndarray, gate, n: int, control) -> None:
    """apply_gate_reference on the part of a (B, 2^n) batch where the (wire,
    value) pair in control holds, or on all of it when control is empty.

    The part is the batch with the control wire dropped; the gate's wires
    lie below the control wire, so they keep their numbers there.
    """
    if not control:
        apply_gate_reference(state, gate, n)
        return
    ((wire, value),) = control
    assert max(gate.qubits) < wire
    part = np.moveaxis(state.reshape((len(state),) + (2,) * n), wire + 1, 1)[:, value]
    sub = part.reshape(len(state), -1)  # contiguous: a copy, as part is strided
    apply_gate_reference(sub, gate, n - 1)
    part[...] = sub.reshape(part.shape)


def run_deferred(circuit: Circuit) -> sim.Distribution:
    """Run with mid-circuit measurements replaced by coherent controls.

    The principle-of-deferred-measurement transform: each mid-circuit
    measurement copies its qubit onto a fresh record wire with a CX, and
    every classically conditioned gate becomes quantum-controlled on that
    record wire.  The measured qubit itself stays coherent, so later gates
    on it (ancilla resets included) are handled correctly.  Record wires
    are measured into their classical bits at the end.
    """
    body, terminal, n_bits = terminal_split(circuit)
    n = sim._exact_width(circuit.n_qubits, body)

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
            apply_gate_reference(state, cx(gate.qubits[0], next_wire), n)
            next_wire += 1
        elif gate.name != "barrier":
            _apply_controlled(state, gate, n, control)

    pairs = terminal + [(wire, c) for c, wire in record.items()]
    no_bits = np.zeros((1, n_bits), dtype=np.int8)
    hist = sim._terminal_histograms(
        state, n, pairs, no_bits, np.ones(1), np.zeros(1, dtype=np.int64), 1)
    return sim.Distribution(n_bits, probabilities=hist[0] / hist[0].sum())


def support(instr, n_qubits: int) -> tuple[frozenset[int], frozenset[int]]:
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


def peephole_reference(circuit: Circuit) -> Circuit:
    """The fixed-point peephole scan that circuit.peephole_cancel replaced.

    From every instruction it rescans forward to the first later one whose
    support overlaps, drops the two when they are an inverse pair, and
    repeats whole passes until nothing changes.
    """
    ops = list(circuit.instructions)
    supports = [support(op, circuit.n_qubits) for op in ops]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(ops):
            a = ops[i]
            if a.gate.name in ("measure", "barrier"):
                i += 1
                continue
            qs_a, cs_a = supports[i]
            removed = False
            for j in range(i + 1, len(ops)):
                qs_b, cs_b = supports[j]
                if qs_a & qs_b or cs_a & cs_b:
                    if _inverse_pair(a, ops[j]):
                        del ops[j], supports[j]
                        del ops[i], supports[i]
                        changed = True
                        removed = True
                    break
            if not removed:
                i += 1
    return replace(circuit, instructions=tuple(ops))


def lower_reference(circuit: Circuit) -> Circuit:
    """The builder loop that synth.lower replaced.

    Every lowered gate goes through CircuitBuilder.add with its source
    instruction's condition, so each one is validated again.
    """
    builder = CircuitBuilder(circuit.n_qubits, circuit.n_clbits, metadata=dict(circuit.metadata))
    for instr in circuit.instructions:
        for sub in synth._lower_gate(instr.gate):
            builder.add(sub.gate, instr.condition)
    return builder.build()


def per_mask_tidy_reference(request: FamilyRequest, masks) -> list[Circuit]:
    """The per-mask path that tidying the template once replaced: fill the
    family's untidied template (CircuitTemplate.tidied patched to return its
    template) for each mask and, when the plan tidies, run peephole_cancel
    and then strip_trailing_uncompute on each circuit."""
    tidied = []

    def untidied(template, *keys):
        tidied.append(keys)
        return template

    with mock.patch.object(CircuitTemplate, "tidied", untidied):
        plan = families.plan(request)
    circuits = [plan.fill(mask) for mask in masks]
    return [strip_trailing_uncompute(peephole_cancel(c)) for c in circuits] if tidied else circuits


# The list-of-branches exact simulator that sim.run_exact replaced, with the
# single-state helpers it used.

def _marginal(arr: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Sum a length-2^n outcome vector over the bits not kept; keep's order."""
    shaped = arr.reshape([2] * n)
    drop = tuple(i for i in range(n) if i not in keep)
    if drop:
        shaped = shaped.sum(axis=drop)
    kept = sorted(keep)
    return shaped.transpose([kept.index(b) for b in keep]).reshape(-1)


def _terminal_outcomes(
    state: np.ndarray, n: int, terminal: list[tuple[int, int]], n_bits: int, base: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """(outcome indices, probabilities) of measuring the terminal pairs.

    base holds the bits recorded before; each pair overwrites its own bit.
    """
    marg = _marginal(np.abs(state) ** 2, n, [q for q, _ in terminal])
    if abs(marg.sum() - 1.0) > sim._NORM_TOL * 10:
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


def run_exact_reference(circuit: Circuit) -> sim.Distribution:
    """Exact outcome distribution from a Python list of (state, weight,
    clbits) branches, looped over per instruction."""
    n = circuit.n_qubits
    if n > sim.MAX_EXACT_WIDTH:
        raise TooWide(f"{n} qubits exceeds exact limit {sim.MAX_EXACT_WIDTH}")
    body, terminal, n_bits = terminal_split(circuit)
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
                apply_gate_reference(state[None, :], gate, n)
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
    return sim.Distribution(n_bits, probabilities=probs)


def run_noisy_reference(circuit: Circuit, noise: sim.NoiseModel, shots: int,
                        seed: int) -> sim.Distribution:
    """The trajectory sampler that sim.run_noisy replaced: every trajectory
    has a row of its own from the first gate on, with the same draws."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    census(circuit)  # raises NotLowered when gates above 2 qubits remain
    n = circuit.n_qubits
    body, terminal, ncl = terminal_split(circuit)

    n_mid = sum(instr.gate.name == "measure" for instr in body)
    n_sites = sum(instr.gate.name != "barrier" for instr in body) - n_mid
    splits = np.cumsum([n_sites, n_sites, n_mid, n_mid, 1])

    counts = np.zeros(1 << ncl, dtype=np.int64)
    for chunk, start in enumerate(range(0, shots, sim.TRAJECTORY_CHUNK)):
        b = min(sim.TRAJECTORY_CHUNK, shots - start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))
        draws = rng.random((b, splits[-1] + len(terminal)))
        u_site, u_pick, u_mid, u_mid_ro, u_final, u_ro = np.split(draws, splits, axis=1)

        state = np.zeros((b, 1 << n), dtype=complex)
        state[:, 0] = 1.0
        clbits = np.zeros((b, ncl), dtype=np.int8)
        site_no = mid_no = 0
        for instr in body:
            gate = instr.gate
            if gate.name == "barrier":
                continue
            if instr.condition is None:
                rows = np.arange(b)
            else:
                rows = np.flatnonzero(clbits[:, instr.condition[0]] == instr.condition[1])
            if gate.name == "measure":
                q = gate.qubits[0]
                p1 = sim._marginal(np.abs(state) ** 2, n, [q])[rows, 1]
                outcome = (u_mid[rows, mid_no] < p1).astype(np.int8)
                for value in (0, 1):
                    collapsed = rows[outcome == value]
                    state.reshape((b,) + (2,) * n)[_at(n, ((q, 1 - value),), collapsed)] = 0.0
                    state[collapsed] /= np.linalg.norm(state[collapsed], axis=1)[:, None]
                clbits[rows, gate.clbit] = outcome ^ (u_mid_ro[rows, mid_no] < noise.p_meas)
                mid_no += 1
                continue
            apply_rows_reference(state, gate, n, rows)
            p_err = noise.p2 if len(gate.qubits) == 2 else noise.p1
            if p_err > 0.0:
                hit = rows[u_site[rows, site_no] < p_err]
                paulis = sim._PAULIS[len(gate.qubits)]
                parts = paulis[(u_pick[hit, site_no] * len(paulis)).astype(np.int64)]
                for j, q in enumerate(gate.qubits):
                    # z then x on a wire is -iY: a global phase per trajectory
                    for k, op in enumerate((z(q), x(q))):
                        apply_rows_reference(state, op, n, hit[parts[:, j, k]])
            site_no += 1

        cdf = np.cumsum(np.abs(state) ** 2, axis=1)
        cdf /= cdf[:, -1][:, None]
        sampled = (cdf < u_final).sum(axis=1)
        for j, (q, c) in enumerate(terminal):
            clbits[:, c] = ((sampled >> (n - 1 - q)) & 1) ^ (u_ro[:, j] < noise.p_meas)
        counts += np.bincount(sim._outcome_index(clbits), minlength=1 << ncl)

    return sim.Distribution(ncl, counts=counts, shots=shots)


def family_requests(family: str, style: str, max_n: int = 5):
    """One request per build option set of the family at n <= max_n in the
    style, each option given only to a family that reads it: every
    uncompute mode and wojter's fused form at the two-block partition
    (n-2, 2), or (n-1, 1) below n = 4, for the block families, and
    diffuser size max(1, n-1) for partial.  The option sets a family
    refuses (wielomianer at n != 4, a block family at n = 1, and
    measurement-assisted uncompute with plain-mcz) are skipped.
    """
    for n in range(1, max_n + 1):
        options = [{}]
        if family in families.BLOCK_FAMILIES:
            k2 = 2 if n >= 4 else 1
            partition = Partition((n - k2, k2)) if n >= 2 else None
            options = [dict(partition=partition, uncompute=m) for m in families.UNCOMPUTE_MODES]
            if family == "wojter":
                options.append(dict(partition=partition, fused=True))
        elif family == "partial":
            options = [dict(diffuser_size=max(1, n - 1))]
        for kwargs in options:
            try:
                request = FamilyRequest(family, OracleSpec(n, "0" * n, style), **kwargs)
            except ValidationError:
                continue
            yield request


def accepted_requests(family: str, style: str, max_n: int = 5):
    """Every request FamilyRequest accepts for the family in the style at
    n <= max_n, over the options the family reads: each partition into one
    part or into two with a trailing block of 1 or 2, each uncompute mode
    and wojter's fused form for the block families, 1 and 2 rounds for
    grover, and the default and a one-qubit diffuser for partial."""
    for n in range(1, max_n + 1):
        options = [{}]
        if family in families.BLOCK_FAMILIES:
            parts = [(n,)] + [(n - k2, k2) for k2 in (1, 2) if n - k2 >= 1]
            options = [dict(partition=Partition(p), uncompute=m)
                       for p in parts for m in families.UNCOMPUTE_MODES]
            if family == "wojter":
                options += [dict(partition=Partition(p), fused=True) for p in parts]
        elif family == "grover":
            options = [dict(iterations=i) for i in (1, 2)]
        elif family == "partial":
            options = [{}, dict(diffuser_size=1)]
        for kwargs in options:
            try:
                yield FamilyRequest(family, OracleSpec(n, "0" * n, style), **kwargs)
            except ValidationError:
                continue


def family_circuits(family: str, style: str, max_n: int = 5, all_masks: bool = False):
    """The circuits of each family_requests request, one at a time, on three
    masks (1...1, 0...0, 1010...) or on every mask."""
    for request in family_requests(family, style, max_n):
        n = request.oracle.n
        masks = (
            [format(v, f"0{n}b") for v in range(1 << n)] if all_masks
            else ["1" * n, "0" * n, ("10" * n)[:n]]
        )
        plan = families.plan(request)
        yield from (plan.fill(mask) for mask in masks)


def wire_sequences(circuit: Circuit) -> tuple[dict, dict]:
    """Per-qubit and per-clbit instruction sequences, in circuit order."""
    qubits: dict[int, list] = {}
    clbits: dict[int, list] = {}
    for instr in circuit.instructions:
        qs, cs = support(instr, circuit.n_qubits)
        for q in qs:
            qubits.setdefault(q, []).append(instr)
        for c in cs:
            clbits.setdefault(c, []).append(instr)
    return qubits, clbits


def dense_gate(gate, n) -> np.ndarray:
    """Reference 2^n x 2^n matrix of one gate, built without sim.

    Phase and permutation gates come from the bits of each basis index
    (qubit 0 most significant), and h from a Kronecker product.
    """
    dim = 1 << n
    idx = np.arange(dim)
    name, qs = gate.name, gate.qubits
    if name == "h":
        h1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        return np.kron(np.kron(np.eye(1 << qs[0]), h1), np.eye(1 << (n - 1 - qs[0])))
    fixed = qs if name in ("z", "rz", "cz") else qs[:-1]
    polarity = (1,) if name in ("z", "rz") else gate.effective_polarity()
    match = np.ones(dim, dtype=bool)
    for q, p in zip(fixed, polarity):
        match &= ((idx >> (n - 1 - q)) & 1) == p
    if name in ("z", "rz", "cz"):
        phase = np.exp(1j * gate.angle) if name == "rz" else -1.0
        return np.diag(np.where(match, phase, 1.0).astype(complex))
    m = np.zeros((dim, dim), dtype=complex)  # x / cx: flip the target where matched
    m[idx ^ (match.astype(np.int64) << (n - 1 - qs[-1])), idx] = 1.0
    return m


def dense_unitary(gates, n) -> np.ndarray:
    """Product of dense_gate matrices, first gate rightmost."""
    u = np.eye(1 << n, dtype=complex)
    for g in gates:
        u = dense_gate(g, n) @ u
    return u


def ideal_oracle_diag(n: int, mask: str) -> np.ndarray:
    """Independent construction of the ideal oracle matrix."""
    d = np.ones(1 << n, dtype=complex)
    d[int(mask, 2)] = -1.0
    return np.diag(d)


def ideal_diffuser(k: int) -> np.ndarray:
    """2|s><s| - I built directly from the formula."""
    dim = 1 << k
    s = np.full((dim, 1), 1 / np.sqrt(dim), dtype=complex)
    return 2 * (s @ s.conj().T) - np.eye(dim)


@st.composite
def unitary_gates(draw, n):
    """One random measurement-free gate on n wires."""
    choices = ["h", "x", "z", "rz"]
    if n >= 2:
        choices += ["cx", "cz"]
    if n >= 3:
        choices += ["ccx", "mcz3"]
    kind = draw(st.sampled_from(choices))
    arity = {"h": 1, "x": 1, "z": 1, "rz": 1, "cx": 2, "cz": 2, "ccx": 3, "mcz3": 3}[kind]
    qs = draw(st.permutations(range(n))).copy()[:arity]
    if kind in ("h", "x", "z"):
        return {"h": h, "x": x, "z": z}[kind](qs[0])
    if kind == "rz":
        return rz(draw(st.sampled_from([pi / 4, -pi / 4, pi / 2, -pi / 2])), qs[0])
    if kind in ("cx", "ccx"):
        return cx(*qs, polarity=tuple(draw(st.integers(0, 1)) for _ in qs[1:]))
    if kind == "cz":
        return cz(*qs)
    return cz(*qs, polarity=tuple(draw(st.integers(0, 1)) for _ in qs))


@st.composite
def unitary_circuits(draw, max_qubits=5, max_depth=18):
    n = draw(st.integers(1, max_qubits))
    depth = draw(st.integers(0, max_depth))
    b = CircuitBuilder(n, 0)
    for _ in range(depth):
        b.add(draw(unitary_gates(n)))
    return b.build()


@st.composite
def measured_circuits(draw, max_qubits=4, max_depth=14, n=None):
    """Circuits that may contain measurements and valid conditions, on n
    qubits or on 1..max_qubits."""
    if n is None:
        n = draw(st.integers(1, max_qubits))
    b = CircuitBuilder(n, n)
    written: list[int] = []
    free_bits = list(range(n))
    for _ in range(draw(st.integers(0, max_depth))):
        if free_bits and draw(st.integers(0, 4)) == 0:
            q = draw(st.integers(0, n - 1))
            c = free_bits.pop(0)
            b.measure(q, c)
            written.append(c)
            continue
        gate = draw(unitary_gates(n))
        cond = None
        if written and draw(st.integers(0, 3)) == 0:
            cond = (draw(st.sampled_from(written)), draw(st.integers(0, 1)))
        b.add(gate, cond)
    return b.build()


def binom_sigma(p: float, shots: int) -> float:
    return float(np.sqrt(max(p * (1 - p), 1e-12) / shots))
