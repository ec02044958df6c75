"""Metrics, relabeled averaging, baselines, confidence intervals."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch import analysis, families, sim
from qsearch.analysis import (
    OracleRun,
    classical_baselines,
    confidence_interval,
    expected_quantum_calls,
    r_metric,
    relabel,
    relabel_average,
    success_probability,
)
from qsearch.errors import BadCounts, BadQ, WidthMismatch, ZeroTheoretical
from qsearch.families import FamilyRequest
from qsearch.sim import Distribution
from qsearch.synth import OracleSpec


def exact_dist(probs):
    return Distribution(int(np.log2(len(probs))), probabilities=np.asarray(probs, float))


def grover_run(n, mask):
    c = families.build(FamilyRequest("grover", OracleSpec(n, mask, "plain-mcz")))
    d = sim.run_exact(c).marginal(list(range(n)))
    return OracleRun(mask, d)


class TestSuccessProbability:
    def test_uniform(self):
        run = OracleRun("0110", exact_dist(np.full(16, 1 / 16)))
        assert abs(success_probability(run) - 0.0625) < 1e-15

    def test_grover_three_qubits(self):
        assert abs(success_probability(grover_run(3, "101")) - 0.78125) < 1e-12

    def test_counts(self):
        counts = np.zeros(4, dtype=int)
        counts[0b10] = 300
        counts[0b01] = 700
        run = OracleRun("10", Distribution(2, counts=counts, shots=1000))
        assert success_probability(run) == pytest.approx(0.30)


class TestRelabelAverage:
    def test_single_run_relabeling(self):
        probs = np.zeros(8)
        probs[0b111] = 1.0
        out = relabel_average([OracleRun("101", exact_dist(probs))])
        assert out.probability(0b010) == pytest.approx(1.0)  # 111 xor 101

    def test_all_masks_identical(self):
        runs = [grover_run(3, format(v, "03b")) for v in range(8)]
        relabeled = [relabel(r.distribution, r.mask).as_probabilities() for r in runs]
        avg = relabel_average(runs).as_probabilities()
        for r in relabeled:
            assert np.abs(r - avg).max() < 1e-12

    def test_uniform_stays_uniform(self):
        u = exact_dist(np.full(4, 0.25))
        out = relabel_average([OracleRun("00", u), OracleRun("11", u)])
        assert np.allclose(out.as_probabilities(), 0.25)

    def test_success_bucket_is_position_zero(self):
        runs = [grover_run(3, format(v, "03b")) for v in range(8)]
        avg = relabel_average(runs)
        assert abs(avg.probability(0) - 0.78125) < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            relabel_average(
                [OracleRun("00", exact_dist([0.5, 0.5, 0, 0])), OracleRun("0", exact_dist([1, 0]))]
            )

    def test_empty(self):
        from qsearch.errors import EmptyRunList

        with pytest.raises(EmptyRunList):
            relabel_average([])

    @given(st.integers(0, 7), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_relabel_involution(self, mask_val, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(8)
        p /= p.sum()
        d = exact_dist(p)
        mask = format(mask_val, "03b")
        twice = relabel(relabel(d, mask), mask)
        assert np.allclose(twice.as_probabilities(), p)


class TestRMetric:
    def test_table_three_qubit_row(self):
        assert r_metric(0.6614, 0.78125) == pytest.approx(0.846592, abs=1e-6)
        assert round(r_metric(0.6614, 0.78125), 2) == 0.85

    def test_table_two_qubit_row(self):
        assert r_metric(0.9518, 1.0) == pytest.approx(0.9518)

    def test_equal_gives_one(self):
        assert r_metric(0.5, 0.5) == pytest.approx(1.0)

    def test_zero_theoretical(self):
        with pytest.raises(ZeroTheoretical):
            r_metric(0.5, 0.0)


class TestClassicalBaselines:
    def test_single_model_four_qubits(self):
        single, _, _ = classical_baselines(4, 1)
        assert single == pytest.approx(1 / 16)

    def test_guess_model_six_qubits(self):
        _, guess, _ = classical_baselines(6, 1)
        assert guess == pytest.approx(2 / 64)

    def test_expected_calls_two_qubits(self):
        _, _, expected = classical_baselines(2, 1)
        assert expected == pytest.approx(2.5)

    def test_guess_dominates_single(self):
        for n in range(1, 7):
            for q in range(1, (1 << n) + 1):
                single, guess, _ = classical_baselines(n, q)
                assert guess >= single
                assert single <= 1.0 and guess <= 1.0

    def test_bad_q(self):
        with pytest.raises(BadQ):
            classical_baselines(3, 0)
        with pytest.raises(BadQ):
            classical_baselines(3, 9)


class TestExpectedQuantumCalls:
    def test_four_qubit_reference_value(self):
        assert expected_quantum_calls(0.66, 1) == pytest.approx(1.51515, abs=1e-4)
        assert expected_quantum_calls(0.66, 1) < 17 / 2

    def test_five_qubit_reference_value(self):
        assert expected_quantum_calls(0.26, 1) == pytest.approx(3.84615, abs=1e-4)
        assert expected_quantum_calls(0.26, 1) < 33 / 2

    def test_certain_success(self):
        assert expected_quantum_calls(1.0, 3) == 3

    def test_monotone_in_success(self):
        values = [expected_quantum_calls(p, 1) for p in (0.1, 0.3, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)


def _beta_quantile(a: float, b: float, q: float) -> float:
    """Brute-force quantile of Beta(a, b) by grid integration."""
    xs = np.linspace(1e-9, 1 - 1e-9, 200001)
    pdf = xs ** (a - 1) * (1 - xs) ** (b - 1)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    return float(xs[np.searchsorted(cdf, q)])


class TestConfidenceInterval:
    def test_zero_successes(self):
        low, high = confidence_interval(0, 100)
        assert low == 0.0
        assert high > 0.0

    def test_symmetry_at_half(self):
        low, high = confidence_interval(50, 100)
        assert abs((0.5 - low) - (high - 0.5)) < 1e-9

    def test_662_of_1000(self):
        # direct evaluation of the Wilson formula gives (0.63215, 0.69065);
        # the upper endpoint rounds to 0.69
        low, high = confidence_interval(662, 1000)
        assert low == pytest.approx(0.632112, abs=1e-5)
        assert high == pytest.approx(0.690649, abs=1e-5)
        assert low < 0.662 < high
        # cross-check against a Bayesian Jeffreys-prior oracle
        jlow = _beta_quantile(662.5, 338.5, 0.025)
        jhigh = _beta_quantile(662.5, 338.5, 0.975)
        assert abs(low - jlow) < 0.01
        assert abs(high - jhigh) < 0.01

    def test_contains_point_estimate(self):
        for s, n in ((1, 10), (5, 10), (99, 100), (250, 1000)):
            low, high = confidence_interval(s, n)
            assert low <= s / n <= high

    def test_bad_counts(self):
        with pytest.raises(BadCounts):
            confidence_interval(5, 0)
        with pytest.raises(BadCounts):
            confidence_interval(11, 10)


class TestCompileMetrics:
    def test_exact_runs(self):
        runs = [grover_run(3, format(v, "03b")) for v in range(8)]
        m = analysis.compile_metrics(runs, 0.78125, 1)
        assert m.p_succ == pytest.approx(0.78125)
        assert m.p_succ_worst == pytest.approx(0.78125)
        assert m.r == pytest.approx(1.0)
        assert m.ci[0] <= m.p_succ <= m.ci[1]
        assert m.classical_single_call == pytest.approx(1 / 8)

    def test_sampled_runs_take_shots_from_their_distribution(self):
        counts = np.array([0, 0, 300, 700])
        runs = [OracleRun("10", Distribution(2, counts=counts, shots=1000)),
                OracleRun("01", Distribution(2, counts=counts[::-1], shots=1000))]
        m = analysis.compile_metrics(runs, 0.5, 1)
        assert m.ci == confidence_interval(600, 2000)
