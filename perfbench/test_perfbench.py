"""Tests of the benchmark's own helpers.  Run: python3 -m pytest perfbench"""
from __future__ import annotations

import pytest

import checks
import spans
import stats
from workloads import Plan, Row, WORKLOADS


# -- the "at least 10 samples beyond" tail rule ------------------------------

def test_tail_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]  # 100 samples
    t = stats.tail(values)
    assert (t["percentile"], t["value"], t["beyond"], t["qualified"]) == (90.0, 90.0, 10, True)


def test_tail_drops_to_median_below_one_hundred_samples():
    t = stats.tail([float(i) for i in range(1, 100)])  # 99: p90 has only 9 beyond
    assert t["percentile"] == 50.0 and t["beyond"] >= 10


def test_tail_reaches_p99_at_one_thousand_samples():
    t = stats.tail([float(i) for i in range(1000)])
    assert t["percentile"] == 99.0 and t["beyond"] == 10 and t["samples"] == 1000


def test_tail_with_too_few_samples_is_flagged():
    t = stats.tail([3.0, 1.0, 2.0])
    assert t["percentile"] == 50.0 and t["value"] == 2.0 and not t["qualified"]


def test_tail_ignores_input_order():
    values = [float(i) for i in range(200)]
    assert stats.tail(values) == stats.tail(list(reversed(values)))


# -- self time ---------------------------------------------------------------

def _span(name, parent, start, end):
    return [name, parent, 1, start, end, False]


def test_self_time_subtracts_union_of_children():
    recs = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 3.0),
        _span("b", 0, 2.0, 5.0),   # overlaps a: union 1..5
        _span("c", 0, 8.0, 12.0),  # clipped to the parent: 8..10
        _span("d", 1, 1.5, 2.5),   # grandchild: counts against a, not root
    ]
    own = spans.self_times(recs)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_totals_sum_calls_self_and_errors():
    recs = [_span("cli.main", None, 0.0, 4.0), _span("synth.lower", 0, 1.0, 2.0),
            _span("synth.lower", 0, 2.0, 3.0)]
    recs[2][spans.ERROR] = True
    totals = spans.layer_totals(recs)
    assert totals["synth.lower"] == {"calls": 2, "self_s": 2.0, "errors": 1, "total_s": 2.0}
    assert totals["cli.main"]["self_s"] == pytest.approx(2.0)
    assert totals["qasm.serialize"]["calls"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    env = pytest.importorskip("env")
    cli = env.import_cli()
    import qsearch
    from qsearch import circuit, families, sim

    originals = (circuit.peephole_cancel, circuit.census, sim.Distribution.marginal)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (circuit, cli, families, qsearch):
            assert module.peephole_cancel is not originals[0]
        for module in (circuit, cli, sim, qsearch):
            assert module.census is not originals[1]
        spec = qsearch.OracleSpec(5, "10110", "ancilla-relphase")
        c = qsearch.build(qsearch.FamilyRequest("drzewker", spec, partition=qsearch.Partition((3, 2))))
        cli.census(cli.peephole_cancel(qsearch.lower(c)))
    finally:
        tracer.uninstall()
    assert (cli.peephole_cancel, sim.census, sim.Distribution.marginal) == (
        originals[0], originals[1], originals[2])
    names = [rec[spans.NAME] for rec in tracer.spans]
    # families binds peephole_cancel itself; its calls nest under families.build
    nested = [rec for rec in tracer.spans if rec[spans.NAME] == "circuit.peephole_cancel"
              and rec[spans.PARENT] is not None]
    assert nested and names[nested[0][spans.PARENT]] == "families.build"
    assert tracer.counters["circuit.census.twoq"] == 44


# -- output checks -----------------------------------------------------------

WOJTER_FUSED = Row("run", "wojter", 5, "ancilla-relphase", (3, 2), fused=True)
GROVER3_NOISY = Row("run", "grover", 3, masks=("101",), shots=1000, noise="p2=0.01")


def _report(row, p_t, twoq, p_succ=None, counts=None, shots=None):
    n = row.n
    oracles = []
    for mask in row.mask_list():
        dist = [0.0] * (1 << n)
        dist[int(mask, 2)] = p_t
        dist[0 if int(mask, 2) else 1] += 1.0 - p_t
        oracles.append({"mask": mask, "p_t": p_t, "p_succ": p_t if p_succ is None else p_succ,
                        "shots": shots, "counts": counts, "exact_distribution": dist})
    return {"oracles": oracles, "census": {"two_qubit_count": twoq}}


def test_correct_report_passes():
    report = _report(WOJTER_FUSED, 25 / 32, 25)
    assert checks.check_run_report(WOJTER_FUSED, WOJTER_FUSED.mask_list(), report) == []


def test_wrong_gate_count_is_a_failure():
    report = _report(WOJTER_FUSED, 25 / 32, 26)
    problems = checks.check_run_report(WOJTER_FUSED, WOJTER_FUSED.mask_list(), report)
    assert any("two_qubit_count 26" in p for p in problems)


def test_wrong_pt_is_a_failure():
    report = _report(WOJTER_FUSED, 25 / 32 + 1e-8, 25)
    assert checks.check_run_report(WOJTER_FUSED, WOJTER_FUSED.mask_list(), report)
    grover = Row("run", "grover", 4)
    report = _report(grover, 0.47265625 + 2e-10, 48)
    assert checks.check_run_report(grover, grover.mask_list(), report)
    assert not checks.check_run_report(grover, grover.mask_list(), _report(grover, 0.47265625, 48))


def test_closed_forms():
    assert checks.grover_pt(3) == 0.78125
    assert checks.partial_pt(4, 3) == 0.390625
    assert checks.partial_pt(6, 3) == 0.09765625


def test_sampled_counts_must_sum_to_shots():
    counts = [0] * 8
    counts[5] = 700
    counts[0] = 299
    report = _report(GROVER3_NOISY, 0.78125, 12, p_succ=0.7, counts=counts, shots=1000)
    assert any("sum to 1000" in p for p in checks.check_run_report(GROVER3_NOISY, ["101"], report))
    counts[0] = 300
    report = _report(GROVER3_NOISY, 0.78125, 12, p_succ=0.7, counts=counts, shots=1000)
    assert checks.check_run_report(GROVER3_NOISY, ["101"], report) == []


def test_sampled_p_succ_outside_five_sigma_is_a_failure():
    counts = [1000] + [0] * 7
    high = _report(GROVER3_NOISY, 0.78125, 12, p_succ=0.9, counts=counts, shots=1000)
    low = _report(GROVER3_NOISY, 0.78125, 12, p_succ=0.0, counts=counts, shots=1000)
    assert checks.check_run_report(GROVER3_NOISY, ["101"], high)
    assert checks.check_run_report(GROVER3_NOISY, ["101"], low)


def test_noiseless_control_must_match_pt():
    control = Row("run", "grover", 3, masks=("101",), shots=1000, control=True)
    counts = [1000] + [0] * 7
    off = _report(control, 0.78125, 12, p_succ=0.7, counts=counts, shots=1000)
    near = _report(control, 0.78125, 12, p_succ=0.79, counts=counts, shots=1000)
    assert checks.check_run_report(control, ["101"], off)
    assert checks.check_run_report(control, ["101"], near) == []


def test_build_output_checks():
    row = Row("build", "grover", 5, "ancilla-relphase", masks=("10110", "00001"))
    out = ("circuit_grover_10110.qasm: two_qubit_count=36 (cx=36, cz=0) one_qubit=80\n"
           "circuit_grover_00001.qasm: two_qubit_count=37 (cx=37, cz=0) one_qubit=80\n")
    counts = checks.parse_build_counts(out)
    assert counts == {"10110": 36, "00001": 37}
    same = {"10110": "c1", "00001": "c2"}
    problems = checks.check_build_output(row, list(row.masks), counts, same, same)
    assert problems == ["00001: two_qubit_count 37 != pinned 36"]
    problems = checks.check_build_output(row, ["10110"], {"10110": 36}, {"10110": "x"}, {"10110": "y"})
    assert problems == ["10110: re-parsed circuit differs from the built circuit"]
    problems = checks.check_build_output(row, ["10110"], {"10110": 36}, {"10110": None}, {"10110": "y"})
    assert problems == ["10110: circuit file missing"]


# -- workload inputs ---------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, b = Plan(workload, 7, tmp_path / "a"), Plan(workload, 7, tmp_path / "b")
    assert a.rows == b.rows
    assert [a.next_seed() for _ in range(5)] == [b.next_seed() for _ in range(5)]
    assert [p.read_text() for p in a.configs if p] == [p.read_text() for p in b.configs if p]
