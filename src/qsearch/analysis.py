"""Success metrics, oracle-relabeled averaging and classical baselines.

The hardware-effectiveness ratio R = p_succ / p_t compares the measured
(oracle-averaged) success probability against the noiseless value of the
same circuit.  To average runs with different marked elements, outcome x
of the run with mask x0 is relabeled to x XOR x0 so that position 0 always
carries the success probability.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import (
    BadCounts,
    BadQ,
    EmptyRunList,
    WidthMismatch,
    ZeroSuccess,
    ZeroTheoretical,
)
from .sim import Distribution

# 95% two-sided normal quantile
_Z95 = 1.959963984540054


@dataclass
class OracleRun:
    """One circuit execution against a fixed marked pattern."""

    mask: str
    distribution: Distribution

    def __post_init__(self):
        if len(self.mask) != self.distribution.n_bits:
            raise WidthMismatch(
                f"mask width {len(self.mask)} != distribution width {self.distribution.n_bits}"
            )


@dataclass
class Metrics:
    p_succ: float
    p_succ_worst: float
    p_t: float
    r: float
    ci: tuple[float, float]
    oracle_calls_per_circuit: int
    expected_calls_quantum: float
    classical_single_call: float
    classical_guess_call: float
    classical_expected_calls: float


def success_probability(run: OracleRun) -> float:
    """Probability mass (or count fraction) at the marked pattern."""
    return run.distribution.probability(int(run.mask, 2))


def relabel(distribution: Distribution, mask: str) -> Distribution:
    """Map outcome x to x XOR mask; position 0 becomes the success bucket."""
    m = int(mask, 2)
    idx = np.arange(1 << distribution.n_bits) ^ m
    if distribution.exact:
        return Distribution(distribution.n_bits, probabilities=distribution.probabilities[idx])
    return Distribution(
        distribution.n_bits, counts=distribution.counts[idx], shots=distribution.shots
    )


def relabel_average(runs: list[OracleRun]) -> Distribution:
    """Equal-weight average of the relabeled distributions."""
    if not runs:
        raise EmptyRunList("need at least one oracle run")
    width = runs[0].distribution.n_bits
    if any(r.distribution.n_bits != width for r in runs):
        raise WidthMismatch("oracle runs have mixed widths")
    acc = np.zeros(1 << width)
    for run in runs:
        acc += relabel(run.distribution, run.mask).as_probabilities()
    return Distribution(width, probabilities=acc / len(runs))


def r_metric(p_succ: float, p_t: float) -> float:
    if p_t <= 0.0:
        raise ZeroTheoretical("theoretical success probability must be positive")
    return p_succ / p_t


def classical_baselines(n: int, oracle_calls: int) -> tuple[float, float, float]:
    """(single_model, guess_model, expected_calls) for N = 2^n.

    single_model: success iff one of q queried elements is the marked one.
    guess_model: q queries plus one free final guess, the strongest
    fixed-call classical bound.  expected_calls: exhaustive random search
    without replacement.
    """
    N = 1 << n
    q = oracle_calls
    if not 1 <= q <= N:
        raise BadQ(f"oracle calls {q} outside 1..{N}")
    single = q / N
    guess = (q + 1) / N if q < N else 1.0
    expected = (N + 1) / 2
    return single, guess, expected


def expected_quantum_calls(p_succ: float, oracle_calls_per_circuit: int) -> float:
    """Repeat-until-success expectation: calls per attempt / success rate."""
    if p_succ <= 0.0:
        raise ZeroSuccess("success probability must be positive")
    return oracle_calls_per_circuit / p_succ


def confidence_interval(successes: int, shots: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if shots < 1 or not 0 <= successes <= shots:
        raise BadCounts(f"bad counts {successes}/{shots}")
    z = _Z95
    phat = successes / shots
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = (z / denom) * sqrt(phat * (1.0 - phat) / shots + z * z / (4 * shots * shots))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == shots else min(1.0, center + half)
    return low, high


def compile_metrics(
    runs: list[OracleRun],
    p_t: float,
    oracle_calls_per_circuit: int,
) -> Metrics:
    """Aggregate per-oracle runs into the report metrics."""
    if not runs:
        raise EmptyRunList("need at least one oracle run")
    per_oracle = [success_probability(r) for r in runs]
    p_succ = float(np.mean(per_oracle))
    worst = float(min(per_oracle))
    n = len(runs[0].mask)
    shots = [r.distribution.shots or 0 for r in runs]  # 0 for an exact run
    total_shots = sum(shots)
    if total_shots:
        total_successes = round(sum(s * p for s, p in zip(shots, per_oracle)))
        ci = confidence_interval(int(total_successes), total_shots)
    else:
        ci = (p_succ, p_succ)
    single, guess, classical_expected = classical_baselines(n, oracle_calls_per_circuit)
    return Metrics(
        p_succ=p_succ,
        p_succ_worst=worst,
        p_t=p_t,
        r=r_metric(p_succ, p_t),
        ci=ci,
        oracle_calls_per_circuit=oracle_calls_per_circuit,
        expected_calls_quantum=expected_quantum_calls(p_succ, oracle_calls_per_circuit)
        if p_succ > 0
        else float("inf"),
        classical_single_call=single,
        classical_guess_call=guess,
        classical_expected_calls=classical_expected,
    )
