"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with -s to see the per-criterion PASS lines.
"""
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ancilla_block,
    binom_sigma,
    frag_circuit,
    ideal_oracle_diag,
    phase_aligned_distance,
    run_deferred,
    tv_distance,
    unitary_of,
)
from qsearch import analysis, families, qasm, sim, synth
from qsearch.circuit import CircuitBuilder, census
from qsearch.cli import ExperimentConfig, run_experiment
from qsearch.families import FamilyRequest, Partition
from qsearch.sim import NoiseModel
from qsearch.synth import OracleSpec


def _report(line: str) -> None:
    print(line)


def data_dist(circ):
    d = sim.run_exact(circ)
    return d.marginal(circ.metadata.get("data_clbits", list(range(d.n_bits))))


def grover_pt(n: int) -> float:
    N = 2**n
    return (3 - 4 / N) ** 2 / N


def test_criterion_1_closed_form_grover():
    """1-iteration Grover p_t from the dense simulator vs (3-4/N)^2/N."""
    t0 = time.time()
    stated = {2: 1.0, 3: 0.78125, 4: 0.47265625, 5: 0.2583008, 6: 0.1348267}
    for n in range(2, 7):
        mask = "1" * n
        c = families.build(FamilyRequest("grover", OracleSpec(n, mask, "plain-mcz")))
        p = data_dist(c).probability(int(mask, 2))
        assert abs(p - grover_pt(n)) < 1e-9, n
        assert abs(p - stated[n]) < 5e-7, n  # stated values are rounded prints
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(f"PASS criterion 1: closed-form p_t n=2..6 within 1e-9 ({elapsed:.2f}s)")


def test_criterion_2_table_metric_consistency():
    """R ratios recovered from the reference measured p_succ and our p_t."""
    r3 = analysis.r_metric(0.6614, grover_pt(3))
    assert abs(r3 - 0.85) <= 0.01
    r2 = analysis.r_metric(0.9518, grover_pt(2))
    assert abs(r2 - 0.95) <= 0.01
    _report(f"PASS criterion 2: R(3q)={r3:.4f}~0.85, R(2q)={r2:.4f}~0.95")


def test_criterion_3_partial_diffuser_theory():
    t0 = time.time()
    c43 = families.build(FamilyRequest(
        "partial", OracleSpec(4, "1111", "plain-mcz"), diffuser_size=3))
    p43 = data_dist(c43).probability(0b1111)
    assert abs(p43 - 0.390625) < 1e-9
    r4 = 0.245 / p43
    assert abs(r4 - 0.63) <= 0.01
    c63 = families.build(FamilyRequest(
        "partial", OracleSpec(6, "111111", "plain-mcz"), diffuser_size=3))
    p63 = data_dist(c63).probability(0b111111)
    assert abs(p63 - 0.09765625) < 1e-9
    r6 = 0.06 / p63
    assert 0.55 <= r6 <= 0.70
    assert 0.06 > 2 / 64  # beats the query-plus-guess classical bound
    assert 0.06 > 1 / 64
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(
        f"PASS criterion 3: p_t(4,3)={p43}, p_t(6,3)={p63}, "
        f"R4={r4:.4f}, R6={r6:.4f} ({elapsed:.2f}s)"
    )


def test_criterion_4_classical_comparison():
    e4 = analysis.expected_quantum_calls(0.66, 1)
    assert e4 < 17 / 2
    e5 = analysis.expected_quantum_calls(0.26, 1)
    assert e5 < 33 / 2
    _report(f"PASS criterion 4: E[calls] 4q {e4:.3f}<8.5, 5q {e5:.3f}<16.5")


def test_criterion_5_synthesis_equivalence_suite():
    t0 = time.time()
    worst_unitary = 0.0
    worst_tv = 0.0
    for n in range(2, 7):
        n_anc = synth.oracle_ancillas_needed(n, "ancilla-relphase")
        ancillas = tuple(range(n, n + n_anc))
        clbits = tuple(range(n_anc))
        for v in range(1 << n):
            mask = format(v, f"0{n}b")
            ideal = ideal_oracle_diag(n, mask)
            # plain style: direct unitary
            u = unitary_of(
                frag_circuit(synth.oracle(OracleSpec(n, mask, "plain-mcz")), n)
            )
            worst_unitary = max(worst_unitary, phase_aligned_distance(u, ideal))
            # ancilla style: block-restricted unitary plus leakage
            frag = synth.oracle(OracleSpec(n, mask, "ancilla-relphase"), ancillas=ancillas)
            u = unitary_of(frag_circuit(frag, n + n_anc))
            block, leak = ancilla_block(u, n, n_anc)
            worst_unitary = max(
                worst_unitary, leak, phase_aligned_distance(block, ideal)
            )
            # measurement-assisted: distributional against the plain oracle
            b = CircuitBuilder(n + n_anc, n + n_anc)
            for q in range(n):
                b.h(q)
            b.extend(
                synth.oracle(
                    OracleSpec(n, mask, "measurement-assisted"),
                    ancillas=ancillas,
                    clbits=tuple(n + j for j in range(n_anc)),
                )
            )
            for q in range(n):
                b.h(q)
            for q in range(n):
                b.measure(q, q)
            d_meas = sim.run_exact(b.build()).marginal(list(range(n)))
            b2 = CircuitBuilder(n, n)
            for q in range(n):
                b2.h(q)
            b2.extend(synth.oracle(OracleSpec(n, mask, "plain-mcz")))
            for q in range(n):
                b2.h(q)
            for q in range(n):
                b2.measure(q, q)
            d_plain = sim.run_exact(b2.build())
            worst_tv = max(worst_tv, tv_distance(d_meas, d_plain))
    assert worst_unitary < 1e-10
    assert worst_tv < 1e-10

    # relative-phase compute/uncompute pairs net exact for every method/k
    ideal_mcz = {k: np.diag([1.0] * ((1 << k) - 1) + [-1.0]).astype(complex) for k in range(3, 7)}
    cases = [
        ("relphase-maslov", 3, 1), ("relphase-maslov", 4, 1), ("relphase-maslov", 5, 1),
        ("relphase-maslov", 6, 2), ("margolus", 3, 1), ("margolus", 4, 2),
        ("margolus", 5, 2), ("margolus", 6, 3),
        ("exact-one-ancilla", 4, 1), ("exact-one-ancilla", 5, 1), ("exact-one-ancilla", 6, 1),
    ]
    for method, k, n_anc in cases:
        frag = synth.mcz_fragment(
            tuple(range(k)), method=method, ancillas=tuple(range(k, k + n_anc))
        )
        u = unitary_of(frag_circuit(frag, k + n_anc))
        block, leak = ancilla_block(u, k, n_anc)
        assert leak < 1e-10, (method, k)
        assert phase_aligned_distance(block, ideal_mcz[k]) < 1e-10, (method, k)

    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(
        f"PASS criterion 5: oracle equivalence all n<=6/styles/masks "
        f"(worst unitary {worst_unitary:.2e}, worst TV {worst_tv:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_6_deferred_measurement_p43():
    worst = 0.0
    for v in range(16):
        mask = format(v, "04b")
        c = families.build(FamilyRequest("wielomianer", OracleSpec(4, mask, "plain-mcz")))
        branching = sim.run_exact(c).marginal([0, 1, 2, 3])
        deferred = run_deferred(c).marginal([0, 1, 2, 3])
        worst = max(worst, tv_distance(branching, deferred))
    assert worst < 1e-10
    _report(f"PASS criterion 6: P43 deferred-measurement TV over 16 oracles {worst:.2e}")


def _equivariance_families(n):
    def builder(family, style="ancilla-relphase", **options):
        return lambda m: families.build(FamilyRequest(family, OracleSpec(n, m, style), **options))

    out = [(f"grover{n}", builder("grover", "ancilla-relphase" if n >= 4 else "plain-mcz"))]
    if n >= 3:
        out.append((f"partial{n}", builder("partial", "ancilla-relphase" if n >= 4 else "plain-mcz",
                                           diffuser_size=min(3, n - 1))))
    if n >= 3:
        part = Partition((n - 2, 2)) if n >= 4 else Partition((2, 1))
        out.append((f"wojter{n}", builder("wojter", partition=part)))
        out.append((f"drzewker{n}", builder("drzewker", partition=part)))
    if n == 5:
        out.append(("wojter-aa5", builder("wojter-aa", partition=Partition((3, 2)))))
        out.append(("pdrzewker5", builder("partial-drzewker", partition=Partition((3, 2)))))
    if n == 4:
        out.append(("wielomianer4", builder("wielomianer", "plain-mcz")))
    return out


def test_criterion_7_oracle_equivariance():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 6):  # exhaustive masks
        for name, builder in _equivariance_families(n):
            ref = None
            for v in range(1 << n):
                mask = format(v, f"0{n}b")
                p = data_dist(builder(mask)).as_probabilities()
                relabeled = p[np.arange(p.size) ^ v]
                if ref is None:
                    ref = relabeled
                else:
                    worst = max(worst, float(np.abs(relabeled - ref).max()))
    rng = np.random.default_rng(2024)
    sampled = sorted(int(v) for v in rng.choice(64, size=8, replace=False))
    for name, builder in _equivariance_families(6):
        ref = None
        for v in sampled:
            mask = format(v, "06b")
            p = data_dist(builder(mask)).as_probabilities()
            relabeled = p[np.arange(p.size) ^ v]
            if ref is None:
                ref = relabeled
            else:
                worst = max(worst, float(np.abs(relabeled - ref).max()))
    assert worst < 1e-10
    elapsed = time.time() - t0
    _report(f"PASS criterion 7: relabel equivariance worst deviation {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_8_gate_count_targets():
    def count2(circ):
        return census(synth.compile(circ)).two_qubit_count

    grover5 = families.build(FamilyRequest("grover", OracleSpec(5, "10110", "ancilla-relphase")))
    n_grover = count2(grover5)
    assert n_grover <= 1.15 * 36

    drz = families.build(FamilyRequest(
        "drzewker", OracleSpec(5, "10110", "ancilla-relphase"), partition=Partition((3, 2)),
        uncompute="partial"))
    n_drz = count2(drz)
    assert n_drz <= 1.15 * 44

    woj_faithful = families.build(FamilyRequest(
        "wojter", OracleSpec(5, "10110", "ancilla-relphase"), partition=Partition((3, 2)),
        uncompute="partial"))
    woj_fused = families.build(FamilyRequest(
        "wojter", OracleSpec(5, "10110", "ancilla-relphase"), partition=Partition((3, 2)),
        fused=True))
    n_w_faithful, n_w_fused = count2(woj_faithful), count2(woj_fused)
    assert n_w_fused <= 1.15 * 31
    # the fused decomposition is distribution-identical to the layout build
    assert tv_distance(data_dist(woj_faithful), data_dist(woj_fused)) < 1e-10
    _report(
        "PASS criterion 8: 2q counts grover5="
        f"{n_grover} (target 36), drzewker={n_drz} (target 44), "
        f"wojter fused={n_w_fused} (target 31; layout-faithful build {n_w_faithful}, "
        "sub-iteration fusion documented)"
    )


def test_reference_tables_script_counts():
    """scripts/reference_tables.py prints the paper's lowered two-qubit counts."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "reference_tables.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    counts = [
        (label, int(count))
        for label, count in re.findall(r"^  (.+): (\d+) 2q gates", out, flags=re.M)
    ]
    assert counts == [
        ("Grover, 1 ancilla, relative-phase oracle (target 36)", 36),
        ("Drzewker (3,2), partial uncompute (target 44)", 44),
        ("Wojter (3,2), layout-faithful partial uncompute", 51),
        ("Wojter (3,2), fused sub-iterations (target 31)", 25),
        ("Partial Drzewker (3,2)", 31),
        ("Wojter-AA (3,2)", 81),
        ("Grover, measurement-enhanced oracle", 38),
    ]


def test_reference_tables_script_plain_mcz_section():
    """The script's last section prints one plain-mcz Grover iteration's lowered 2q count."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "reference_tables.py")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.split("== plain-mcz Grover, lowered 2q ==\n")[1].splitlines() == [
        "  n=4  twoq=48",
        "  n=5  twoq=152",
        "  n=6  twoq=352",
        "  n=7  twoq=648",
        "  n=8  twoq=1040",
        "  n=9  twoq=1528",
        "  n=10  twoq=2112",
    ]


def test_noise_fit_script_output():
    """scripts/noise_fit.py's seeded bisection prints the same fit for a given shot count."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "noise_fit.py"), "--shots", "2000"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.splitlines() == [
        "fitted p2 = 0.01750  ->  3-qubit Grover R = 0.853 (target 0.85)",
        "same p2 on 4-qubit partial (k=3): R = 0.787  (reference hardware value: 0.63)",
    ]


def test_criterion_9_noise_model_properties():
    t0 = time.time()
    mask = "101"
    c = synth.lower(families.build(FamilyRequest("grover", OracleSpec(3, mask, "plain-mcz"))))
    p_t = grover_pt(3)

    shots0 = 100_000
    d0 = sim.run_noisy(c, NoiseModel(), shots0, seed=101).marginal([0, 1, 2])
    p0 = d0.probability(int(mask, 2))
    assert abs(p0 - p_t) < 4 * binom_sigma(p_t, shots0)

    grid = [0.0, 0.005, 0.01, 0.02, 0.05]
    shots = 50_000
    estimates = []
    for i, p2 in enumerate(grid):
        d = sim.run_noisy(c, NoiseModel(p2=p2), shots, seed=200 + i).marginal([0, 1, 2])
        estimates.append(d.probability(int(mask, 2)))
    for a, b in zip(estimates, estimates[1:]):
        slack = 3 * (binom_sigma(a, shots) + binom_sigma(b, shots))
        assert b <= a + slack

    d_full = sim.run_noisy(c, NoiseModel(p2=1.0), shots, seed=300).marginal([0, 1, 2])
    p_full = d_full.probability(int(mask, 2))
    assert abs(p_full - 1 / 8) < 3 * binom_sigma(1 / 8, shots)

    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        f"PASS criterion 9: noise p2=0 -> {p0:.4f}~{p_t:.4f}, grid "
        f"{[round(e, 4) for e in estimates]} non-increasing, p2=1 -> {p_full:.4f}~0.125 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_10_determinism_and_round_trip(tmp_path):
    cfg = ExperimentConfig(
        family="drzewker", n=5, partition=[3, 2], oracle_style="ancilla-relphase",
        oracle_set="sample:4:7", shots=4000, seed=77,
        noise={"p1": 0.001, "p2": 0.01, "p_meas": 0.002},
    )
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    s1 = json.dumps({k: v for k, v in r1.items() if k != "timing_seconds"}, sort_keys=True)
    s2 = json.dumps({k: v for k, v in r2.items() if k != "timing_seconds"}, sort_keys=True)
    assert s1 == s2

    circ = families.build(FamilyRequest(
        "drzewker", OracleSpec(5, "01011", "ancilla-relphase"), partition=Partition((3, 2))))
    assert qasm.parse(qasm.serialize(circ)) == circ

    path = tmp_path / "report.json"
    path.write_text(json.dumps(r1, indent=2, sort_keys=True))
    assert json.loads(path.read_text())["metrics"]["p_succ"] == r1["metrics"]["p_succ"]
    _report("PASS criterion 10: fixed-seed byte stability and artifact round-trips")


# scripts/parity_digest.py --max-n 3 lines, per mode: a refactor that moves
# any census, distribution, seeded count or report byte moves its digest
_PARITY_DIGESTS = {
    "": "7143eadd206fc7983a352d1b7936c2e74ad3c84803b9257f9a130594a3015f34",
    ", noisy 64 shots": "113865d9d5cfc5ee78c83525ad4d8ccf8d574a272aee1835811db58594fe1acc",
    ", reports": "80b62f42b3165a8d5a9793bf6f002301d4a5f6f6c4f61428464594f54542d87c",
}


def test_parity_digest_script_is_deterministic():
    """scripts/parity_digest.py prints the same digest line on every run,
    with and without the seeded noisy counts, and with the written reports,
    and each line is the pinned one."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for flags, suffix in (([], ""), (["--noisy"], ", noisy 64 shots"), (["--reports"], ", reports")):
        lines = [
            subprocess.run(
                [sys.executable, str(root / "scripts" / "parity_digest.py"), "--max-n", "3", *flags],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for _ in range(2)
        ]
        assert lines[0] == lines[1]
        assert lines[0] == f"{_PARITY_DIGESTS[suffix]}  784 circuits, n <= 3{suffix}\n"
