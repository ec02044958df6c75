"""Synthesis: diffusers, oracles, multi-controlled Z, relative-phase gates."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    accepted_requests,
    ancilla_block,
    family_circuits,
    frag_circuit,
    frag_unitary,
    ideal_diffuser,
    ideal_oracle_diag,
    lower_reference,
    measured_circuits,
    phase_aligned_distance,
    tv_distance,
    unitary_circuits,
    unitary_of,
)
from qsearch import families, sim, synth
from qsearch.circuit import (
    CircuitBuilder,
    CircuitTemplate,
    Hole,
    census,
    cx,
    cz,
    h,
    measure,
    peephole_cancel,
    z,
)
from qsearch.errors import (
    BadArity,
    BadMask,
    MethodArityMismatch,
    MissingAncilla,
)
from qsearch.families import FamilyRequest
from qsearch.synth import OracleSpec


def mcz_diag(k: int) -> np.ndarray:
    d = np.ones(1 << k, dtype=complex)
    d[-1] = -1.0
    return np.diag(d)


class TestDiffuser:
    def test_k1_is_pauli_x(self):
        u = frag_unitary(synth.diffuser(1, (0,)), 1)
        xmat = np.array([[0, 1], [1, 0]], dtype=complex)
        assert phase_aligned_distance(u, xmat) < 1e-10

    def test_k2_matrix_entries(self):
        u = frag_unitary(synth.diffuser(2, (0, 1)), 2)
        assert phase_aligned_distance(u, ideal_diffuser(2)) < 1e-10
        aligned = u * np.sign((u * ideal_diffuser(2).conj()).sum()).conj()
        assert np.allclose(np.abs(u), 0.5)

    def test_k3_uniform_fixed_point(self):
        u = frag_unitary(synth.diffuser(3, (0, 1, 2)), 3)
        s = np.full(8, 1 / np.sqrt(8), dtype=complex)
        out = u @ s
        assert abs(abs(np.vdot(s, out)) - 1.0) < 1e-12

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            synth.diffuser(2, (0,))


class TestOracle:
    def test_plain_all_ones(self):
        spec = OracleSpec(3, "111", "plain-mcz")
        u = frag_unitary(synth.oracle(spec), 3)
        assert phase_aligned_distance(u, ideal_oracle_diag(3, "111")) < 1e-10

    def test_mask_is_x_conjugation(self):
        u_masked = frag_unitary(synth.oracle(OracleSpec(3, "101", "plain-mcz")), 3)
        base = synth.oracle(OracleSpec(3, "111", "plain-mcz"))
        from qsearch.circuit import x as xg

        conj = frag_unitary([xg(1)] + base + [xg(1)], 3)
        assert phase_aligned_distance(u_masked, conj) < 1e-10

    def test_relphase_style_matches_plain(self):
        spec = OracleSpec(5, "10110", "ancilla-relphase")
        frag = synth.oracle(spec, ancillas=(5,))
        u = frag_unitary(frag, 6)
        block, leak = ancilla_block(u, 5, 1)
        assert leak < 1e-10
        assert phase_aligned_distance(block, ideal_oracle_diag(5, "10110")) < 1e-10

    def test_bad_mask(self):
        with pytest.raises(BadMask):
            OracleSpec(3, "10", "plain-mcz")
        with pytest.raises(BadMask):
            OracleSpec(3, "10x", "plain-mcz")


class TestMcz:
    def test_k2_every_method_is_cz(self):
        target = np.diag([1, 1, 1, -1]).astype(complex)
        for method in synth.METHODS:
            frag = synth.mcz_fragment((0, 1), method=method, ancillas=(2,), clbits=(0,))
            u = frag_unitary(frag, 2)
            assert phase_aligned_distance(u, target) < 1e-10, method

    def test_k3_exact_count_and_matrix(self):
        frag = synth.mcz_fragment((0, 1, 2), method="exact-recursive")
        assert census(frag_circuit(frag, 3)).two_qubit_count == 6
        u = frag_unitary(frag, 3)
        assert phase_aligned_distance(u, mcz_diag(3)) < 1e-10

    def test_k6_fold_tree_two_ancillas(self):
        frag = synth.mcz_fragment(tuple(range(6)), method="relphase-maslov", ancillas=(6, 7))
        u = frag_unitary(frag, 8)
        block, leak = ancilla_block(u, 6, 2)
        assert leak < 1e-10
        assert phase_aligned_distance(block, mcz_diag(6)) < 1e-10

    def test_exact_recursive_k4_k5(self):
        for k in (4, 5):
            u = frag_unitary(synth.mcz_fragment(tuple(range(k))), k)
            assert phase_aligned_distance(u, mcz_diag(k)) < 1e-10

    def test_exact_one_ancilla(self):
        frag = synth.mcz_fragment(tuple(range(5)), method="exact-one-ancilla", ancillas=(5,))
        u = frag_unitary(frag, 6)
        block, leak = ancilla_block(u, 5, 1)
        assert leak < 1e-10
        assert phase_aligned_distance(block, mcz_diag(5)) < 1e-10

    def test_missing_ancilla(self):
        with pytest.raises(MissingAncilla):
            synth.mcz_fragment(tuple(range(5)), method="relphase-maslov", ancillas=())

    def test_unknown_method(self):
        with pytest.raises(MethodArityMismatch):
            synth.mcz_fragment((0, 1, 2), method="telepathy")

    def test_polarity_selects_state(self):
        frag = synth.mcz_fragment((0, 1, 2), method="exact-recursive", polarity=(1, 0, 1))
        u = frag_unitary(frag, 3)
        assert phase_aligned_distance(u, ideal_oracle_diag(3, "101")) < 1e-10


class TestRelphase:
    def test_forward_inverse_identity(self):
        frag = synth.relphase_ccx(0, 1, 2) + synth.relphase_ccx(0, 1, 2, inverse=True)
        u = frag_unitary(frag, 3)
        assert phase_aligned_distance(u, np.eye(8, dtype=complex)) < 1e-10
        frag4 = synth.relphase_cccx(0, 1, 2, 3) + synth.relphase_cccx(0, 1, 2, 3, inverse=True)
        u4 = frag_unitary(frag4, 4)
        assert phase_aligned_distance(u4, np.eye(16, dtype=complex)) < 1e-10

    def test_permutation_action(self):
        u = frag_unitary(synth.relphase_ccx(0, 1, 2), 3)
        col = u[:, 0b110]
        assert abs(abs(col[0b111]) - 1.0) < 1e-12  # |110> -> |111> up to phase
        col = u[:, 0b100]
        assert abs(abs(col[0b100]) - 1.0) < 1e-12  # |100> -> |100> up to phase

    def test_moduli_match_toffoli(self):
        ccx = np.eye(8, dtype=complex)
        ccx[[6, 7]] = ccx[[7, 6]]
        for frag in (synth.relphase_ccx(0, 1, 2), synth.margolus_ccx(0, 1, 2)):
            u = frag_unitary(frag, 3)
            assert np.allclose(np.abs(u), np.abs(ccx), atol=1e-12)
        cccx = np.eye(16, dtype=complex)
        cccx[[14, 15]] = cccx[[15, 14]]
        u = frag_unitary(synth.relphase_cccx(0, 1, 2, 3), 4)
        assert np.allclose(np.abs(u), np.abs(cccx), atol=1e-12)

    def test_count_bounds(self):
        assert census(frag_circuit(synth.relphase_ccx(0, 1, 2), 3)).two_qubit_count <= 3
        assert census(frag_circuit(synth.relphase_cccx(0, 1, 2, 3), 4)).two_qubit_count <= 6
        assert census(frag_circuit(synth.exact_ccz(0, 1, 2), 3)).two_qubit_count <= 6

    def test_sandwich_equals_exact_mcz(self):
        # the compute / diagonal payload / uncompute usage pattern
        frag = (
            synth.relphase_ccx(0, 1, 3)
            + list(frag_circuit([cz(3, 2)], 4).instructions)
            + synth.relphase_ccx(0, 1, 3, inverse=True)
        )
        u = frag_unitary(frag, 4)
        block, leak = ancilla_block(u, 3, 1)  # ancilla is the trailing wire
        exact = frag_unitary(synth.mcz_fragment((0, 1, 2), method="exact-recursive"), 3)
        assert leak < 1e-10
        assert phase_aligned_distance(block, exact) < 1e-10

    def test_pair_cancellation_every_method(self):
        """Every compute/uncompute sandwich nets an exact mcz, k <= 6."""
        cases = [
            ("relphase-maslov", 3, 1),
            ("relphase-maslov", 4, 1),
            ("relphase-maslov", 5, 1),
            ("relphase-maslov", 6, 2),
            ("margolus", 3, 1),
            ("margolus", 4, 2),
            ("exact-one-ancilla", 4, 1),
            ("exact-one-ancilla", 5, 1),
            ("exact-one-ancilla", 6, 1),
        ]
        for method, k, n_anc in cases:
            ancillas = tuple(range(k, k + n_anc))
            frag = synth.mcz_fragment(tuple(range(k)), method=method, ancillas=ancillas)
            u = frag_unitary(frag, k + n_anc)
            block, leak = ancilla_block(u, k, n_anc)
            assert leak < 1e-10, (method, k)
            assert phase_aligned_distance(block, mcz_diag(k)) < 1e-10, (method, k)

    def test_determinism(self):
        a = synth.mcz_fragment(tuple(range(5)), method="relphase-maslov", ancillas=(5,))
        b = synth.mcz_fragment(tuple(range(5)), method="relphase-maslov", ancillas=(5,))
        assert a == b


class TestAndCompute:
    def test_phase_clean(self):
        for n_ctl in (2, 3):
            n = n_ctl + 1
            u = frag_unitary(synth.and_compute(tuple(range(n_ctl)), n_ctl), n)
            for v in range(1 << n_ctl):
                idx_in = v << 1
                col = u[:, idx_in]
                j = int(np.argmax(np.abs(col)))
                and_bit = 1 if v == (1 << n_ctl) - 1 else 0
                assert j == (v << 1) | and_bit
                assert abs(col[j] - 1.0) < 1e-12  # zero phase


class TestMeasurementAssisted:
    def _run(self, frag, n, ncl, data):
        b = CircuitBuilder(n, ncl)
        for q in data:
            b.h(q)
        b.extend(frag)
        for q in data:
            b.h(q)
        for i, q in enumerate(data):
            b.measure(q, i)
        return sim.run_exact(b.build()).marginal(list(range(len(data))))

    def test_two_controls_payload_z(self):
        # compute AND, apply Z on the ancilla, then compare the two uncomputes
        data = (0, 1)
        unitary_version = (
            synth.and_compute(data, 2)
            + [i for i in frag_circuit([z(2)], 3).instructions]
            + synth._adjoint(synth.and_compute(data, 2))
        )
        measured_version = (
            synth.and_compute(data, 2)
            + [i for i in frag_circuit([z(2)], 3).instructions]
            + synth.measurement_assisted_uncompute(2, data, 2)
        )
        d1 = self._run(unitary_version, 3, 2, data)
        d2 = self._run(measured_version, 3, 3, data)
        assert tv_distance(d1, d2) < 1e-10

    def test_controls_zero_correction_inert(self):
        """With controls |00> the ancilla stays |0>; the X-basis measurement
        is uniform and the conditional correction acts as identity, so the
        data distribution is untouched."""
        b = CircuitBuilder(3, 3)
        b.extend(synth.and_compute((0, 1), 2))
        b.extend(synth.measurement_assisted_uncompute(2, (0, 1), 2))
        b.measure(0, 0)
        b.measure(1, 1)
        d = sim.run_exact(b.build())
        marg = d.marginal([0, 1])
        assert abs(marg.probability(0) - 1.0) < 1e-12  # data stays |00>
        outcome = d.marginal([2])
        assert abs(outcome.probability(0) - 0.5) < 1e-12  # H|0> measured: uniform

    def test_grover_variant_matches_unitary(self):
        cm = families.build(FamilyRequest("grover", OracleSpec(5, "01011", "measurement-assisted")))
        cu = families.build(FamilyRequest("grover", OracleSpec(5, "01011", "ancilla-relphase")))
        dm = sim.run_exact(cm).marginal(list(range(5)))
        du = sim.run_exact(cu).marginal(list(range(5)))
        assert tv_distance(dm, du) < 1e-10
        assert abs(dm.probability(0b01011) - (3 - 4 / 32) ** 2 / 32) < 1e-10


class TestLower:
    """lower builds its output directly; the builder loop it replaced is the reference."""

    @staticmethod
    def assert_matches_reference(c):
        out, ref = synth.lower(c), lower_reference(c)
        assert out.instructions == ref.instructions
        assert (out.n_qubits, out.n_clbits) == (ref.n_qubits, ref.n_clbits)
        assert out.metadata == ref.metadata and out.metadata is not c.metadata
        rebuilt = frag_circuit(out.instructions, out.n_qubits, out.n_clbits)
        assert rebuilt.instructions == out.instructions  # CircuitBuilder accepts each one

    def test_each_distinct_gate_lowered_once(self, monkeypatch):
        """A repeated gate is expanded once per call; its conditioned copies
        keep their condition, and the output is the per-instruction one."""
        wide, polar = cz(0, 1, 2, 3), cx(0, 1, 3, polarity=(0, 1))
        b = CircuitBuilder(4, 1).add(h(3)).add(measure(3, 0))
        for condition in (None, (0, 1), None, (0, 0)):
            b.add(wide, condition).add(polar, condition).add(z(2), condition)
        c = b.add(wide).build()
        calls = []
        lower_gate = synth._lower_gate
        monkeypatch.setattr(synth, "_lower_gate", lambda g: calls.append(g) or lower_gate(g))
        out = synth.lower(c)
        # an expansion may call _lower_gate on its own sub-gates too
        assert (calls.count(wide), calls.count(polar)) == (1, 1)
        self.assert_matches_reference(c)
        subs = len(lower_gate(wide))
        tail = out.instructions[-subs:]
        assert {i.condition for i in tail} == {None}
        for condition in ((0, 1), (0, 0)):
            assert sum(i.condition == condition for i in out.instructions) == (
                subs + len(lower_gate(polar)) + 1
            )

    @given(unitary_circuits(max_qubits=5))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_unitary(self, c):
        self.assert_matches_reference(c)

    @given(measured_circuits())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_measured(self, c):
        self.assert_matches_reference(c)

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_matches_reference_families(self, family, style):
        built = 0
        for c in family_circuits(family, style):
            self.assert_matches_reference(c)
            built += 1
        assert built >= (3 if family == "wielomianer" else 9)  # it has one option set


class TestCompileTemplate:
    """compile_template's fill for each key is compile of the template's fill."""

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_fill_equals_compile(self, family, style):
        for request in accepted_requests(family, style, max_n=5):
            plan = families.plan(request)
            compiled = synth.compile_template(plan.template)
            for v in range(1 << request.oracle.n):
                mask = format(v, f"0{request.oracle.n}b")
                want = synth.compile(plan.fill(mask))
                assert want.instructions == peephole_cancel(synth.lower(plan.fill(mask))).instructions
                assert compiled.fill(mask).instructions == want.instructions, (request, mask)

    def test_marked_holes_split_by_construction(self):
        # a cz hole with two marked controls and an unmarked one, then a
        # conditioned cx hole: an x hole per marked control, in the gate's
        # control order, on each side of the all-ones expansion
        template = CircuitTemplate(4, 4, [[h(0), h(1), h(2), h(3), measure(3, 3)],
                                          Hole("cz", (2, 0, 1), (1, None, 0)),
                                          Hole("cx", (0, 1, 2), (None, 1), condition=(3, 1)),
                                          [h(2), measure(0, 0), measure(1, 1), measure(2, 2)]])
        compiled = synth.compile_template(template)
        assert compiled._holes == [Hole("x", (1,), (0,)), Hole("x", (2,), (1,))] * 2 + [
            Hole("x", (1,), (1,), condition=(3, 1))] * 2
        for key in ("00", "01", "10", "11"):
            assert compiled.fill(key).instructions == synth.compile(template.fill(key)).instructions
        assert synth.lower(frag_circuit([cz(0, 1, 2)], 3)).instructions in compiled._fixed


def distance_on_states(a, b, n_qubits, n_states=4):
    """phase_aligned_distance of two measurement-free circuits on random states.

    Each circuit acts on the same n_states Gaussian-random states, so two
    circuits differing beyond a global phase give a nonzero distance
    without building a 2^n x 2^n unitary.
    """
    rng = np.random.default_rng(n_qubits)
    shape = (n_states, 1 << n_qubits)
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    outs = []
    for circuit in (a, b):
        batch = states.copy()
        for instr in circuit.instructions:
            sim._apply_gate(batch, instr.gate, n_qubits)
        outs.append(batch.T)
    return phase_aligned_distance(*outs)


def polarities(width):
    return [tuple((v >> i) & 1 for i in range(width)) for v in range(1 << width)]


class TestBorrowedMcz:
    """Wide cz/cx lower through mcp, whose flips borrow the idle phase target."""

    @pytest.mark.parametrize("k", range(1, 15))
    @pytest.mark.parametrize("name", ["cz", "cx"])
    def test_twoq_closed_form_matches_census(self, name, k):
        expected = synth.mcz_twoq(k)  # before lowering: without borrowing, C^14Z is 4.6M gates
        gate = (cz if name == "cz" else cx)(*range(k + 1))
        lowered = synth.lower(frag_circuit([gate], k + 1))
        assert census(lowered).two_qubit_count == expected

    def test_twoq_counts_pinned(self):
        assert [synth.mcz_twoq(k) for k in range(1, 9)] == [1, 6, 24, 76, 176, 324, 520, 764]

    @pytest.mark.parametrize("k", range(3, 8))
    def test_lowered_unitary_matches_symbolic(self, k):
        expected = synth.mcz_twoq(k)
        for gate in (cz(*range(k + 1)), cx(*range(k + 1))):
            symbolic = frag_circuit([gate], k + 1)
            lowered = synth.lower(symbolic)
            assert census(lowered).two_qubit_count == expected
            distance = phase_aligned_distance(unitary_of(lowered), unitary_of(symbolic))
            assert distance < 1e-10, gate

    @pytest.mark.parametrize("k", range(8, 11))
    def test_wide_matches_symbolic_on_states(self, k):
        expected = synth.mcz_twoq(k)
        for gate in (cz(*range(k + 1)), cx(*range(k + 1))):
            symbolic = frag_circuit([gate], k + 1)
            lowered = synth.lower(symbolic)
            assert census(lowered).two_qubit_count == expected
            assert distance_on_states(lowered, symbolic, k + 1) < 1e-10, gate

    @pytest.mark.parametrize("k", range(3, 6))
    def test_every_polarity_matches_symbolic(self, k):
        gates = [cz(*range(k + 1), polarity=p) for p in polarities(k + 1)]
        gates += [cx(*range(k + 1), polarity=p) for p in polarities(k)]
        expected = synth.mcz_twoq(k)
        for gate in gates:
            symbolic = frag_circuit([gate], k + 1)
            lowered = synth.lower(symbolic)
            assert census(lowered).two_qubit_count == expected
            assert distance_on_states(lowered, symbolic, k + 1) < 1e-10, gate

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_drawn_polarity_matches_symbolic(self, data):
        k = data.draw(st.integers(6, 10), label="k")
        name = data.draw(st.sampled_from(["cz", "cx"]), label="name")
        width = k + 1 if name == "cz" else k
        pol = tuple(data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width)))
        expected = synth.mcz_twoq(k)
        gate = (cz if name == "cz" else cx)(*range(k + 1), polarity=pol)
        symbolic = frag_circuit([gate], k + 1)
        lowered = synth.lower(symbolic)
        assert census(lowered).two_qubit_count == expected
        assert distance_on_states(lowered, symbolic, k + 1) < 1e-10

    def test_conditioned_wide_cx_keeps_condition(self):
        expected = synth.mcz_twoq(6)
        b = CircuitBuilder(8, 1).add(h(7)).add(measure(7, 0))
        b.add(cx(*range(7), polarity=(1, 0, 1, 1, 0, 1)), condition=(0, 1))
        lowered = synth.lower(b.build()).instructions[2:]
        assert {instr.condition for instr in lowered} == {(0, 1)}
        assert sum(len(i.gate.qubits) == 2 for i in lowered) == expected

    def test_plain_mcz_grover_counts_pinned(self):
        """One plain-mcz Grover iteration: oracle and diffuser, each a C^{n-1}Z."""
        expected = {2: 2, 3: 12, 4: 48, 5: 152, 6: 352, 7: 648, 8: 1040, 9: 1528, 10: 2112}
        for n, count in expected.items():
            c = families.build(FamilyRequest("grover", OracleSpec(n, "1" * n, "plain-mcz")))
            assert census(synth.lower(c)).two_qubit_count == count, n
            assert census(synth.compile(c)).two_qubit_count == count, n
