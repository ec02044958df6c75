#!/usr/bin/env python3
"""Fit a depolarizing rate to a target R and apply it across circuits.

Sweeps the two-qubit depolarizing probability on the 3-qubit Grover
circuit until the simulated R matches the reference 0.85, then reports
the R the same rate predicts for the 4-qubit partial-diffuser circuit
(exploratory; no asserted value).

Usage: python scripts/noise_fit.py [--target 0.85] [--shots 50000]
"""
import argparse

from qsearch import families, sim, synth
from qsearch.sim import NoiseModel
from qsearch.synth import OracleSpec


def estimate_r(circ, mask, p2, shots, seed):
    low = synth.compile(circ)
    data = circ.metadata["data_clbits"]
    exact = sim.run_exact(circ).marginal(data)
    p_t = exact.probability(int(mask, 2))
    noisy = sim.run_noisy(low, NoiseModel(p2=p2), shots, seed).marginal(data)
    return noisy.probability(int(mask, 2)) / p_t


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--target", type=float, default=0.85)
    parser.add_argument("--shots", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    grover3 = families.build_grover(OracleSpec(3, "101", "plain-mcz"), 1)
    lo, hi = 0.0, 0.08
    for step in range(18):  # bisection on the monotone response
        mid = (lo + hi) / 2
        r = estimate_r(grover3, "101", mid, args.shots, args.seed + step)
        if r > args.target:
            lo = mid
        else:
            hi = mid
    p2 = (lo + hi) / 2
    r3 = estimate_r(grover3, "101", p2, args.shots, args.seed + 99)
    print(f"fitted p2 = {p2:.5f}  ->  3-qubit Grover R = {r3:.3f} (target {args.target})")

    partial43 = families.build_partial(OracleSpec(4, "0110", "ancilla-relphase"), 3)
    r4 = estimate_r(partial43, "0110", p2, args.shots, args.seed + 100)
    print(f"same p2 on 4-qubit partial (k=3): R = {r4:.3f}  (reference hardware value: 0.63)")


if __name__ == "__main__":
    main()
