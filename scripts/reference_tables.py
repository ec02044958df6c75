#!/usr/bin/env python3
"""Rebuild the headline theory numbers and gate counts in one pass.

Prints the exact single-iteration success probabilities, the partial
diffuser values, the hardware-effectiveness ratios implied by the
reference measured probabilities, the classical comparisons, the
lowered two-qubit gate counts of the named circuit variants, and the
lowered two-qubit count of one plain-mcz Grover iteration per width.
"""
import numpy as np

from qsearch import analysis, families, sim, synth
from qsearch.circuit import census
from qsearch.families import Partition
from qsearch.synth import OracleSpec


def data_dist(circ):
    d = sim.run_exact(circ)
    return d.marginal(circ.metadata["data_clbits"])


def p_success(circ, mask):
    return data_dist(circ).probability(int(mask, 2))


def count2(circ):
    return census(synth.compile(circ)).two_qubit_count


def main():
    print("== single-iteration Grover, exact p_t ==")
    for n in range(2, 7):
        mask = "1" * n
        c = families.build_grover(OracleSpec(n, mask, "plain-mcz"), 1)
        p = p_success(c, mask)
        formula = (3 - 4 / 2**n) ** 2 / 2**n
        print(f"  n={n}:  simulator {p:.10f}   formula {formula:.10f}")

    print("== partial diffuser, exact p_t ==")
    for n, k in ((4, 3), (5, 4), (5, 3), (6, 3)):
        c = families.build_partial(OracleSpec(n, "1" * n, "plain-mcz"), k)
        print(f"  n={n}, k={k}:  {p_success(c, '1' * n):.8f}")

    print("== reference measured probabilities vs our p_t ==")
    rows = [
        ("2-qubit Grover (reference hw)", 0.9518, (3 - 4 / 4) ** 2 / 4),
        ("3-qubit Grover (reference hw)", 0.6614, (3 - 4 / 8) ** 2 / 8),
        ("4-qubit partial k=3 (reference hw)", 0.245, (3 - 0.5) ** 2 / 16),
        ("6-qubit partial k=3 (reference hw)", 0.06, 6.25 / 64),
    ]
    for label, p_meas, p_t in rows:
        print(f"  {label}: p_succ={p_meas:.4f} p_t={p_t:.6f} R={analysis.r_metric(p_meas, p_t):.3f}")

    print("== expected oracle calls vs classical ==")
    for n, p_meas in ((4, 0.66), (5, 0.26)):
        quantum = analysis.expected_quantum_calls(p_meas, 1)
        _, _, classical = analysis.classical_baselines(n, 1)
        print(f"  n={n}: quantum {quantum:.3f}  classical {classical:.1f}")

    print("== lowered two-qubit counts of the named 5-qubit variants ==")
    spec = OracleSpec(5, "10110", "ancilla-relphase")
    part = Partition((3, 2))
    variants = [
        ("Grover, 1 ancilla, relative-phase oracle (target 36)",
         families.build_grover(spec, 1)),
        ("Drzewker (3,2), partial uncompute (target 44)",
         families.build_drzewker(spec, part, uncompute="partial")),
        ("Wojter (3,2), layout-faithful partial uncompute",
         families.build_wojter(spec, part, uncompute="partial")),
        ("Wojter (3,2), fused sub-iterations (target 31)",
         families.build_wojter(spec, part, fused=True)),
        ("Partial Drzewker (3,2)",
         families.build_partial_drzewker(spec, part)),
        ("Wojter-AA (3,2)",
         families.build_wojter_aa(spec, part)),
        ("Grover, measurement-enhanced oracle",
         families.build_grover(OracleSpec(5, "10110", "measurement-assisted"), 1)),
    ]
    for label, circ in variants:
        print(f"  {label}: {count2(circ)} 2q gates, p_t={p_success(circ, '10110'):.6f}")

    print("== plain-mcz Grover, lowered 2q ==")
    for n in range(4, 11):
        circ = families.build_grover(OracleSpec(n, "1" * n, "plain-mcz"), 1)
        print(f"  n={n}  twoq={count2(circ)}")


if __name__ == "__main__":
    main()
