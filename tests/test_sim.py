"""Exact and noisy simulation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binom_sigma,
    dense_gate,
    dense_unitary,
    family_circuits,
    frag_circuit,
    ideal_oracle_diag,
    measured_circuits,
    run_exact_reference,
    run_noisy_reference,
    unitary_circuits,
)
from qsearch import families, sim, synth
from qsearch.circuit import Circuit, CircuitBuilder, Instruction, cx, cz, h, measure, rz, x, z
from qsearch.errors import HasMeasurement, NotLowered, OverBudget, TooWide, ValidationError
from qsearch.sim import Distribution, NoiseModel
from qsearch.synth import OracleSpec


class TestRunExact:
    def test_hadamard(self):
        d = sim.run_exact(frag_circuit([h(0)], 1))
        assert abs(d.probability(0) - 0.5) < 1e-12
        assert abs(d.probability(1) - 0.5) < 1e-12

    def test_grover_four_qubits(self):
        c = families.build_grover(OracleSpec(4, "0110", "plain-mcz"), 1)
        d = sim.run_exact(c).marginal([0, 1, 2, 3])
        # (3 - 4/16)^2 / 16 = 121/256
        assert abs(d.probability(0b0110) - 121 / 256) < 1e-12

    def test_branching_matches_deferred(self):
        c = families.build_wielomianer_p43(OracleSpec(4, "0101", "plain-mcz"))
        a = sim.run_exact(c).marginal([0, 1, 2, 3])
        b = sim.run_deferred(c).marginal([0, 1, 2, 3])
        assert a.tv_distance(b) < 1e-10

    def test_deferred_covers_measurement_bearing_families(self):
        cases = [
            (families.build_wielomianer_p43(OracleSpec(4, "1011", "plain-mcz")), [0, 1, 2, 3]),
            (families.build_grover(OracleSpec(5, "10110", "measurement-assisted"), 1),
             [0, 1, 2, 3, 4]),
            (families.build_wojter(
                OracleSpec(5, "10110", "ancilla-relphase"),
                families.Partition((3, 2)),
                uncompute="measurement-assisted",
            ), [0, 1, 2, 3, 4]),
        ]
        for circ, data in cases:
            a = sim.run_exact(circ).marginal(data)
            b = sim.run_deferred(circ).marginal(data)
            assert a.tv_distance(b) < 1e-10

    @given(measured_circuits())
    @settings(max_examples=40, deadline=None)
    def test_deferred_controls_match_branching(self, c):
        assert sim.run_exact(c).tv_distance(sim.run_deferred(c)) < 1e-10

    @pytest.mark.parametrize("n_clbits", [0, 2])
    def test_measurement_free_measures_every_wire(self, n_clbits):
        c = frag_circuit([h(0), cx(0, 1)], 2, n_clbits)
        for d in (sim.run_exact(c), sim.run_deferred(c)):
            assert d.n_bits == 2
            assert np.allclose(d.probabilities, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_too_wide(self):
        with pytest.raises(TooWide):
            sim.run_exact(frag_circuit([], 25))

    def test_refuses_branching_past_exact_width(self, monkeypatch):
        # 3 qubits and 2 mid-circuit measurements: 4 branch rows of 2^3, or 2^5 deferred
        b = CircuitBuilder(3, 3)
        b.h(0).h(1).measure(0, 0).measure(1, 1)
        b.add(x(2), condition=(0, 1))
        b.measure(2, 2)
        c = b.build()
        monkeypatch.setattr(sim, "MAX_EXACT_WIDTH", 5)
        assert sim.run_exact(c).tv_distance(sim.run_deferred(c)) < 1e-12

        def unexpected(*args):
            raise AssertionError("simulated a gate before checking the width")

        monkeypatch.setattr(sim, "MAX_EXACT_WIDTH", 4)
        monkeypatch.setattr(sim, "_apply_gate", unexpected)
        for run in (sim.run_exact, sim.run_deferred):
            with pytest.raises(TooWide, match="3 qubits and 2 mid-circuit measurements exceed"):
                run(c)

    def test_mid_measure_branch_weights(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0)
        b.add(x(1), condition=(0, 1))
        b.measure(1, 1)
        d = sim.run_exact(b.build())
        assert abs(d.probability(0b00) - 0.5) < 1e-12
        assert abs(d.probability(0b11) - 0.5) < 1e-12

    def test_distribution_normalized(self):
        c = families.build_wojter(
            OracleSpec(5, "01001", "ancilla-relphase"),
            families.Partition((3, 2)),
        )
        d = sim.run_exact(c)
        assert abs(d.as_probabilities().sum() - 1.0) < 1e-12


class TestUnitaryOf:
    def test_empty_is_identity(self):
        u = sim.unitary_of(frag_circuit([], 3))
        assert np.allclose(u, np.eye(8))

    def test_oracle_diagonal(self):
        u = sim.unitary_of(frag_circuit(synth.oracle(OracleSpec(3, "101", "plain-mcz")), 3))
        assert sim.phase_aligned_distance(u, ideal_oracle_diag(3, "101")) < 1e-10

    def test_relphase_pair_identity(self):
        frag = synth.relphase_ccx(0, 1, 2) + synth.relphase_ccx(0, 1, 2, inverse=True)
        u = sim.unitary_of(frag_circuit(frag, 3))
        assert sim.phase_aligned_distance(u, np.eye(8, dtype=complex)) < 1e-10

    def test_rejects_measurement(self):
        with pytest.raises(HasMeasurement):
            sim.unitary_of(frag_circuit([measure(0, 0)], 1, 1))

    def test_rejects_wide(self):
        with pytest.raises(TooWide):
            sim.unitary_of(frag_circuit([], 13))

    @given(unitary_circuits())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, c):
        ref = dense_unitary([i.gate for i in c.instructions], c.n_qubits)
        assert np.abs(sim.unitary_of(c) - ref).max() < 1e-10

    @pytest.mark.parametrize(
        "gate",
        [
            cx(5, 2, 0, 3, polarity=(0, 1, 0)),
            cx(4, 1, 5, 0, 2, polarity=(1, 0, 0, 1)),
            cz(5, 3, 0, 1, polarity=(0, 1, 1, 0)),
            cz(5, 4, 2, 1, 0, polarity=(0, 1, 0, 1, 1)),
        ],
    )
    def test_wide_gates_match_dense_reference(self, gate):
        u = sim.unitary_of(frag_circuit([gate], 6))
        assert np.abs(u - dense_gate(gate, 6)).max() < 1e-10

    @given(unitary_circuits(max_qubits=4))
    @settings(max_examples=30, deadline=None)
    def test_unitarity(self, c):
        u = sim.unitary_of(c)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)


class TestRunExactReference:
    """run_exact keeps its branches as rows of one batch; the list-of-branches
    loop it replaced is the reference."""

    @staticmethod
    def assert_matches_reference(c):
        got, want = sim.run_exact(c), run_exact_reference(c)
        assert got.n_bits == want.n_bits
        assert np.abs(got.probabilities - want.probabilities).max() <= 1e-15

    @given(measured_circuits())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_measured(self, c):
        self.assert_matches_reference(c)

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_matches_reference_families(self, family, style):
        circuits = list(family_circuits(family, style, max_n=4, all_masks=True))
        assert circuits
        for c in circuits:
            self.assert_matches_reference(c)
            self.assert_matches_reference(synth.compile(c))


class TestRunNoisyReference:
    """run_noisy shares one error-free reference row until each trajectory's
    first Pauli insertion; the loop that gave every trajectory its own row
    from the start is the reference, and counts must match it exactly."""

    NOISES = [
        NoiseModel(),
        NoiseModel(p1=0.05),
        NoiseModel(p2=0.05),
        NoiseModel(p1=0.02, p2=0.05, p_meas=0.03),
        NoiseModel(p2=1.0),
    ]

    @staticmethod
    def assert_matches_reference(c, noise, shots, seed):
        got = sim.run_noisy(c, noise, shots, seed)
        want = run_noisy_reference(c, noise, shots, seed)
        assert got.counts.tolist() == want.counts.tolist()

    @given(measured_circuits(), st.sampled_from(NOISES), st.integers(1, 200),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_measured(self, c, noise, shots, seed):
        self.assert_matches_reference(synth.compile(c), noise, shots, seed)

    @pytest.mark.parametrize("style", synth.ORACLE_STYLES)
    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_matches_reference_families(self, family, style):
        # the noise models take turns; in every family and style each one
        # meets measurement-free and measurement-bearing circuits alike
        circuits = list(family_circuits(family, style, max_n=5))
        assert len(circuits) >= len(self.NOISES)
        for i, c in enumerate(circuits):
            noise = self.NOISES[i % len(self.NOISES)]
            self.assert_matches_reference(synth.compile(c), noise, 40, i)

    @pytest.mark.parametrize(
        "n, mask, shots, seed, counts",
        [
            (6, "101101", 160, 11,
                [2, 5, 3, 1, 4, 6, 2, 3, 3, 2, 1, 0, 3, 3, 0, 4,
                 2, 2, 1, 4, 2, 4, 1, 3, 2, 2, 3, 5, 0, 4, 1, 0,
                 2, 3, 2, 2, 0, 1, 4, 3, 0, 2, 4, 1, 4, 12, 5, 3,
                 1, 4, 1, 1, 1, 4, 1, 4, 0, 2, 2, 4, 2, 2, 2, 3]),
            (7, "0110100", 80, 12,
                [1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1,
                 1, 0, 2, 1, 2, 0, 1, 0, 1, 2, 0, 0, 1, 1, 0, 0,
                 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
                 1, 0, 0, 0, 2, 1, 0, 1, 2, 1, 1, 1, 0, 1, 0, 0,
                 1, 1, 2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0,
                 0, 2, 0, 0, 1, 3, 1, 0, 0, 1, 0, 0, 1, 1, 2, 0,
                 0, 2, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0, 0, 1,
                 1, 3, 2, 0, 0, 1, 0, 1, 0, 0, 1, 1, 2, 0, 0, 2]),
        ],
        ids=["grover6", "grover7"],
    )
    def test_measurement_free_counts_pinned(self, n, mask, shots, seed, counts):
        # error-free trajectories share the reference row here; a given seed
        # keeps giving the counts the per-trajectory loop gave
        c = synth.compile(families.build_grover(OracleSpec(n, mask, "ancilla-relphase"), 1))
        d = sim.run_noisy(c, NoiseModel(p2=0.01), shots, seed=seed)
        assert d.counts.tolist() == counts


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            NoiseModel(p2=1.5)

    def test_noisy_requires_lowered(self):
        c = frag_circuit([cz(0, 1, 2)], 3)
        with pytest.raises(NotLowered):
            sim.run_noisy(c, NoiseModel(), 10, 0)


class TestRunNoisy:
    def test_zero_noise_matches_exact(self):
        c = families.build_grover(OracleSpec(3, "101", "plain-mcz"), 1)
        low = synth.lower(c)
        shots = 20000
        d = sim.run_noisy(low, NoiseModel(), shots, seed=11).marginal([0, 1, 2])
        exact = sim.run_exact(c).marginal([0, 1, 2]).as_probabilities()
        sampled = d.as_probabilities()
        for v in range(8):  # per-outcome binomial bands
            assert abs(sampled[v] - exact[v]) < 4 * binom_sigma(exact[v], shots)

    def test_full_depolarization_uniform(self):
        c = families.build_grover(OracleSpec(3, "111", "plain-mcz"), 1)
        low = synth.lower(c)
        shots = 20000
        d = sim.run_noisy(low, NoiseModel(p2=1.0), shots, seed=5).marginal([0, 1, 2])
        p = d.probability(0b111)
        assert abs(p - 1 / 8) < 4 * binom_sigma(1 / 8, shots)

    @pytest.mark.parametrize("walls", [False, True])
    def test_two_qubit_pauli_is_uniform(self, walls):
        # outcome 00 has 3 of the 15 Paulis (no X part; no Z part inside H walls)
        wall = [h(0), h(1)] if walls else []
        c = frag_circuit(wall + [cx(0, 1)] + wall, 2)
        shots = 6000
        p = sim.run_noisy(c, NoiseModel(p2=1.0), shots, seed=13).as_probabilities()
        for got, want in zip(p, np.array([3, 4, 4, 4]) / 15):
            assert abs(got - want) < 4 * binom_sigma(want, shots)

    def test_one_qubit_pauli_flips_two_thirds(self):
        shots = 6000
        d = sim.run_noisy(frag_circuit([z(0)], 1), NoiseModel(p1=1.0), shots, seed=17)
        assert abs(d.probability(1) - 2 / 3) < 4 * binom_sigma(2 / 3, shots)

    @pytest.mark.parametrize("p2", [0.2, 0.3])
    def test_pauli_pick_independent_of_hit(self, p2):
        # 12 of the 15 non-identity 2-qubit Paulis carry an X or Y part; a pick
        # drawn from the hit's own uniform would favour the first 15*p2 Paulis
        shots = 20000
        c = frag_circuit([cx(0, 1)], 2)
        d = sim.run_noisy(c, NoiseModel(p2=p2), shots, seed=21)
        want = p2 * 12 / 15
        assert abs(1 - d.probability(0b00) - want) < 4 * binom_sigma(want, shots)

    @pytest.mark.parametrize(
        "fewer, more", [(200, 300), (sim.TRAJECTORY_CHUNK, sim.TRAJECTORY_CHUNK + 500)]
    )
    def test_more_shots_extend_fewer(self, fewer, more):
        # trajectory t depends only on (seed, t), inside a chunk and across chunks;
        # 64 near-uniform outcomes make two independent samples differ below zero
        b = CircuitBuilder(6, 6)
        for q in range(6):
            b.h(q)
        b.measure(0, 0)
        b.add(x(1), condition=(0, 1))
        b.add(cx(1, 2))
        for q in range(1, 6):
            b.measure(q, q)
        c = b.build()
        noise = NoiseModel(p1=0.05, p2=0.1, p_meas=0.05)
        extra = sim.run_noisy(c, noise, more, seed=8).counts - sim.run_noisy(
            c, noise, fewer, seed=8
        ).counts
        assert (extra >= 0).all() and extra.sum() == more - fewer

    def test_seed_reproducibility(self):
        c = synth.lower(families.build_grover(OracleSpec(3, "011", "plain-mcz"), 1))
        noise = NoiseModel(p1=0.01, p2=0.02, p_meas=0.01)
        a = sim.run_noisy(c, noise, 5000, seed=42)
        b = sim.run_noisy(c, noise, 5000, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        c = synth.lower(families.build_grover(OracleSpec(3, "011", "plain-mcz"), 1))
        noise = NoiseModel(p2=0.05)
        a = sim.run_noisy(c, noise, 5000, seed=1)
        b = sim.run_noisy(c, noise, 5000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize(
        "circuit, noise, seed, counts",
        [
            (
                families.build_wielomianer_p43(OracleSpec(4, "1011", "plain-mcz")),
                NoiseModel(p1=0.01, p2=0.01, p_meas=0.05), 5,
                [4, 5, 5, 4, 8, 4, 15, 9, 3, 4, 10, 3, 6, 6, 6, 8,
                 12, 1, 25, 6, 14, 6, 60, 22, 8, 5, 6, 1, 13, 1, 10, 10],
            ),
            (
                families.build_grover(OracleSpec(5, "10110", "measurement-assisted"), 1),
                NoiseModel(p1=0.01, p2=0.02, p_meas=0.03), 6,
                [10, 1, 3, 5, 2, 4, 5, 1, 2, 7, 4, 1, 4, 4, 5, 4,
                 8, 3, 1, 2, 6, 4, 4, 1, 6, 4, 3, 4, 4, 5, 9, 5,
                 7, 4, 0, 3, 8, 3, 2, 5, 4, 10, 9, 1, 19, 8, 3, 9,
                 3, 4, 7, 5, 7, 4, 6, 3, 5, 5, 4, 3, 3, 7, 4, 4],
            ),
        ],
        ids=["wielomianer-p43", "measurement-assisted-grover5"],
    )
    def test_seeded_counts_pinned(self, circuit, noise, seed, counts):
        # mid-circuit measurements, readout flips and conditioned gates; a
        # given seed keeps giving these counts
        d = sim.run_noisy(synth.compile(circuit), noise, 300, seed=seed)
        assert d.counts.tolist() == counts

    def test_memory_budget_edge(self, monkeypatch):
        # 2 sites and 2 terminal bits: 10 rows of 7 uniforms, and 11 rows of 4 amplitudes
        c = frag_circuit([h(0), cx(0, 1)], 2)
        need = 10 * 7 * 8 + 11 * 4 * 16
        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", need)
        assert sim.run_noisy(c, NoiseModel(p2=0.5), 10, seed=1).shots == 10

        def unexpected(*args, **kwargs):
            raise AssertionError("drew uniforms before checking the budget")

        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", need - 1)
        monkeypatch.setattr(np.random, "default_rng", unexpected)
        with pytest.raises(OverBudget, match=r"10 trajectories of 7 uniforms .* over the"):
            sim.run_noisy(c, NoiseModel(p2=0.5), 10, seed=1)

    def test_readout_flip_only(self):
        b = CircuitBuilder(1, 1)
        b.measure(0, 0)
        c = b.build()
        shots = 40000
        d = sim.run_noisy(c, NoiseModel(p_meas=0.25), shots, seed=3)
        p1 = d.probability(1)
        assert abs(p1 - 0.25) < 4 * binom_sigma(0.25, shots)

    def test_mid_circuit_measurement_sampled(self):
        b = CircuitBuilder(2, 2)
        b.h(0).measure(0, 0)
        b.add(x(1), condition=(0, 1))
        b.measure(1, 1)
        d = sim.run_noisy(b.build(), NoiseModel(), 20000, seed=9)
        p = d.as_probabilities()
        assert abs(p[0b00] - 0.5) < 4 * binom_sigma(0.5, 20000)
        assert abs(p[0b11] - 0.5) < 4 * binom_sigma(0.5, 20000)
        assert p[0b01] == 0 and p[0b10] == 0


class TestDistribution:
    def test_marginal_orders_bits(self):
        probs = np.zeros(8)
        probs[0b101] = 1.0
        d = Distribution(3, probabilities=probs)
        m = d.marginal([2, 0])
        assert m.probability(0b11) == 1.0
        with pytest.raises(ValidationError):
            d.marginal([0, 0])
        with pytest.raises(ValidationError):
            d.marginal([5])

    def test_tv_distance(self):
        a = Distribution(1, probabilities=np.array([1.0, 0.0]))
        b = Distribution(1, probabilities=np.array([0.5, 0.5]))
        assert abs(a.tv_distance(b) - 0.5) < 1e-12

    def test_counts_validation(self):
        with pytest.raises(ValidationError):
            Distribution(1, counts=np.array([3, 4]), shots=10)

    def test_nan_probabilities_refused(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            Distribution(1, probabilities=[float("nan"), float("nan")])

    def test_nan_statevector_refused(self):
        """A NaN angle that bypasses the builder fails the norm check, not silently."""
        ops = (h(0), rz(float("nan"), 0), h(0), measure(0, 0))
        c = Circuit(1, 1, tuple(Instruction(g) for g in ops))
        with pytest.raises(ValidationError, match="norm drifted"):
            sim.run_exact(c)
