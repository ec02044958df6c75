"""CLI subcommands, config validation, report artifacts."""
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import binom_sigma, terminal_split
from qsearch import cli, families, qasm, sim, synth
from qsearch.circuit import CircuitTemplate, Hole, Instruction, census, cz
from qsearch.cli import (
    ExperimentConfig,
    _census_dict,
    _exact_oracles,
    build_request,
    cmd_build,
    cmd_plot,
    cmd_run,
    cmd_sweep,
    main,
    resolve_masks,
    run_experiment,
)
from qsearch.errors import ConfigError, NotLowered, ValidationError


def read_report(path: Path) -> dict:
    return json.loads(path.read_text())


def strip_timing(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if "timing_seconds" not in l]


class TestBuild:
    def test_writes_parsable_circuit(self, tmp_path):
        cfg = ExperimentConfig(family="grover", n=3, oracle_set=["111"])
        assert cmd_build(cfg, tmp_path) == 0
        path = tmp_path / "circuit_grover_111.qasm"
        assert path.exists()
        circ = qasm.parse(path.read_text())
        assert circ.metadata["family"] == "grover"

    def test_wojter_partial_not_larger_than_full(self, tmp_path):
        from qsearch import families, synth
        from qsearch.circuit import census
        from qsearch.families import FamilyRequest, Partition
        from qsearch.synth import OracleSpec

        spec = OracleSpec(5, "10110", "ancilla-relphase")
        partial = families.build(FamilyRequest(
            "wojter", spec, partition=Partition((3, 2)), uncompute="partial"))
        full = families.build(FamilyRequest(
            "wojter", spec, partition=Partition((3, 2)), uncompute="full"))
        c_partial = census(synth.compile(partial))
        c_full = census(synth.lower(full))
        assert c_partial.two_qubit_count <= c_full.two_qubit_count

    def test_plain_mcz_n16_builds_polynomially(self, tmp_path, capsys):
        """Plain-mcz Grover-16 lowers to thousands of 2q gates, not millions."""
        assert 2 * synth.mcz_twoq(15) <= 13_000  # oracle and diffuser; checked before building
        rc = main(["build", "--n", "16", "--oracle", "1" * 16, "--out", str(tmp_path)])
        assert rc == 0
        count = int(re.search(r"two_qubit_count=(\d+)", capsys.readouterr().out).group(1))
        assert count <= 13_000

    def test_partition_validation_names_field(self, capsys):
        rc = main(["build", "--family", "wojter", "--n", "5", "--partition", "3,3",
                   "--oracle", "10110"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "partition" in err

    def test_compiles_the_plan_template_once(self, tmp_path, monkeypatch):
        """build plans and compiles the set once, as run does: no circuit is
        compiled alone."""
        calls = []
        compile_template = synth.compile_template
        monkeypatch.setattr(synth, "compile_template",
                            lambda template: calls.append(template) or compile_template(template))
        monkeypatch.setattr(synth, "compile", None)
        assert main(["build", "--n", "4", "--oracle-set", "all", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        assert len(list(tmp_path.glob("*.qasm"))) == 16

    @pytest.mark.parametrize("argv,masks", [
        (["--n", "8", "--oracle-set", "sample:2:7"], ["10100000", "11110000"]),
        (["--family", "drzewker", "--n", "5", "--style", "ancilla-relphase",
          "--partition", "3,2", "--oracle-set", "all"], [format(v, "05b") for v in range(32)]),
    ], ids=["grover-8", "drzewker-5"])
    def test_counts_equal_each_circuit_compiled_alone(self, argv, masks, tmp_path, capsys):
        """The counts build prints from the compiled template are the census
        of each mask's circuit built and compiled alone."""
        assert main(["build", *argv, "--out", str(tmp_path)]) == 0
        cfg = cli.load_config(cli.make_parser().parse_args(["build", *argv]))
        assert resolve_masks(cfg) == masks
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(masks)
        for mask, line in zip(masks, lines):
            cens = census(synth.compile(families.build(build_request(cfg, mask))))
            assert line == (
                f"circuit_{cfg.family}_{mask}.qasm: two_qubit_count={cens.two_qubit_count} "
                f"(cx={cens.by_kind.get('cx', 0)}, cz={cens.by_kind.get('cz', 0)}) "
                f"one_qubit={cens.one_qubit_count}"
            )


class TestRun:
    def test_zero_noise_grover(self, tmp_path):
        shots = 20000
        cfg = ExperimentConfig(
            family="grover", n=3, oracle_set="all", shots=shots, seed=9, out=str(tmp_path)
        )
        assert cmd_run(cfg, tmp_path) == 0
        report = read_report(tmp_path / "report_grover_3q.json")
        p = report["metrics"]["p_succ"]
        sigma = binom_sigma(0.78125, shots * 8)
        assert abs(p - 0.78125) < 4 * sigma
        assert abs(report["metrics"]["r"] - 1.0) < 4 * sigma / 0.78125
        assert report["metrics"]["ci_low"] <= p <= report["metrics"]["ci_high"]

    def test_determinism(self, tmp_path):
        cfg = ExperimentConfig(
            family="grover", n=3, oracle_set=["101", "110"], shots=2000, seed=4,
            noise={"p1": 0.001, "p2": 0.01, "p_meas": 0.002}, out=str(tmp_path),
        )
        cmd_run(cfg, tmp_path)
        first = strip_timing(tmp_path / "report_grover_3q.json")
        cmd_run(cfg, tmp_path)
        second = strip_timing(tmp_path / "report_grover_3q.json")
        assert first == second

    def test_report_self_contained(self, tmp_path):
        cfg = ExperimentConfig(family="partial", n=4, diffuser_size=3,
                               oracle_set=["0110"], shots=0)
        report = run_experiment(cfg)
        assert report["schema_version"] == 1
        assert report["census"]["two_qubit_count"] > 0
        assert len(report["relabeled_average"]) == 16
        # re-analysis from the report alone: success bucket equals p_succ
        assert report["relabeled_average"][0] == pytest.approx(report["metrics"]["p_succ"])

    def test_report_is_strict_json_when_nothing_succeeds(self, tmp_path):
        # full depolarization and one shot: p_succ is 0 and the expected calls infinite
        argv = ["run", "--family", "grover", "--n", "4", "--oracle", "1011", "--shots", "1",
                "--noise", "p2=1", "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        text = (tmp_path / "report_grover_4q.json").read_text()
        report = json.loads(text, parse_constant=refuse)
        assert report["metrics"]["p_succ"] == 0.0
        assert report["metrics"]["expected_calls_quantum"] is None

    def test_error_names_oracle(self):
        # an error of the option set names its field, and no oracle of the set
        cfg = ExperimentConfig(family="wielomianer", n=5, oracle_set=["10110"])
        with pytest.raises(ValidationError) as exc:
            run_experiment(cfg)
        assert str(exc.value) == "n: the wielomianer circuit is defined for n=4"

    def test_unknown_field_rejected(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"family": "grover", "frobnicate": 1}))
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "argv, fills",
        [(["--n", "4"], 1), (["--n", "3", "--shots", "16"], 1)],
        ids=["exact-compiles-first-mask", "sampled-compiles-template-once"],
    )
    def test_compiles_each_circuit_once(self, argv, fills, tmp_path, monkeypatch):
        # one compile of the plan's template, whose first mask is filled for
        # the census; a sampled run walks the compiled template, filling none
        calls, filled = [], []
        compile_template, fill = synth.compile_template, CircuitTemplate.fill
        monkeypatch.setattr(synth, "compile_template",
                            lambda template: calls.append(template) or compile_template(template))
        monkeypatch.setattr(CircuitTemplate, "fill",
                            lambda self, *args: filled.append(args) or fill(self, *args))
        monkeypatch.setattr(synth, "compile", None)  # no circuit is compiled alone
        assert main(["run", "--oracle-set", "all", "--out", str(tmp_path)] + argv) == 0
        assert len(calls) == 1 and len(filled) == fills

    @pytest.mark.parametrize("shots", [0, 16])
    def test_census_is_first_masks(self, shots):
        cfg = ExperimentConfig(family="grover", n=3, oracle_set=["111", "000"], shots=shots)
        first, last = (
            _census_dict(census(synth.compile(families.build(build_request(cfg, m)))))
            for m in cfg.oracle_set
        )
        assert first["one_qubit_count"] != last["one_qubit_count"]
        assert run_experiment(cfg)["census"] == first


class TestPlot:
    def _report(self, tmp_path, shots=0):
        cfg = ExperimentConfig(
            family="grover", n=3, oracle_set="all", shots=shots, seed=2, out=str(tmp_path)
        )
        cmd_run(cfg, tmp_path)
        return tmp_path / "report_grover_3q.json"

    def test_exact_only_measured_equals_theory(self, tmp_path):
        path = self._report(tmp_path, shots=0)
        assert cmd_plot(path) == 0
        rows = (tmp_path / "report_grover_3q.csv").read_text().splitlines()
        assert rows[0] == "pattern,theoretical,measured"
        assert len(rows) == 1 + 8  # 2^3 data rows
        for row in rows[1:]:
            _, theory, measured = row.split(",")
            assert theory == measured

    def test_success_bucket_matches_report(self, tmp_path):
        path = self._report(tmp_path, shots=5000)
        cmd_plot(path)
        report = read_report(path)
        rows = (tmp_path / "report_grover_3q.csv").read_text().splitlines()
        first = rows[1].split(",")
        assert first[0] == "000"
        assert float(first[2]) == pytest.approx(report["metrics"]["p_succ"], abs=1e-5)

    def test_pgfplots_fragment(self, tmp_path):
        path = self._report(tmp_path)
        cmd_plot(path)
        tex = (tmp_path / "report_grover_3q.tex").read_text()
        assert tex.count(r"\addplot") == 2
        assert r"\begin{axis}" in tex and r"\end{axis}" in tex

    def test_missing_report(self):
        rc = main(["plot", "/nonexistent/report.json"])
        assert rc == 1


class TestSweep:
    def test_single_zero_point(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            family="grover", n=3, oracle_set=["111"], shots=20000, seed=1, out=str(tmp_path)
        )
        assert cmd_sweep(cfg, [0.0], tmp_path) == 0
        rows = (tmp_path / "sweep_grover_3q.csv").read_text().splitlines()
        assert rows[0] == "p2,p_succ,r"
        p2, p, r = rows[1].split(",")
        assert float(p2) == 0.0
        assert abs(float(r) - 1.0) < 4 * binom_sigma(0.78125, 20000) / 0.78125

    def test_full_depolarization_point(self, tmp_path):
        cfg = ExperimentConfig(
            family="grover", n=3, oracle_set=["101"], shots=20000, seed=1, out=str(tmp_path)
        )
        cmd_sweep(cfg, [1.0], tmp_path)
        rows = (tmp_path / "sweep_grover_3q.csv").read_text().splitlines()
        p = float(rows[1].split(",")[1])
        assert abs(p - 1 / 8) < 4 * binom_sigma(1 / 8, 20000)

    def test_builds_simulates_and_compiles_each_mask_once(self, tmp_path, monkeypatch):
        # reusing each mask's exact stage must leave a fixed-seed sweep's CSV as it was:
        # one plan, one walk of its template over the 32 masks, and one compile
        # of the template, for the trajectory simulator, whose first mask is
        # filled for the census
        calls = {"plan": 0, "fill": 0, "walked": 0, "compile_template": 0}

        def counting(module, name, count=lambda *args: 1):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name if name in calls else "walked"] += count(*args)
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(families, "plan")
        counting(CircuitTemplate, "fill")
        counting(sim, "run_exact_template", lambda template, masks: len(masks))
        counting(synth, "compile_template")
        argv = ["sweep", "--family", "grover", "--n", "5", "--style", "ancilla-relphase",
                "--oracle-set", "all", "--shots", "16", "--grid", "0,0.01,0.02,0.05,0.1",
                "--seed", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == {"plan": 1, "fill": 1, "walked": 32, "compile_template": 1}
        assert (tmp_path / "sweep_grover_5q.csv").read_text() == (
            "p2,p_succ,r\n"
            "0,0.253906,0.982987\n"
            "0.01,0.197266,0.763705\n"
            "0.02,0.142578,0.551985\n"
            "0.05,0.0839844,0.325142\n"
            "0.1,0.0527344,0.204159\n"
        )

    def test_bad_grid_point_refused_before_any_build(self, tmp_path, monkeypatch):
        def unexpected(*args):
            raise AssertionError("built a circuit before checking the grid")

        monkeypatch.setattr(families, "plan", unexpected)
        cfg = ExperimentConfig(family="grover", n=3, oracle_set=["111"], shots=10)
        with pytest.raises(ValidationError, match="p2=2.0 outside"):
            cmd_sweep(cfg, [0.0, 2.0], tmp_path)

    def test_grid_must_ascend(self, tmp_path):
        cfg = ExperimentConfig(family="grover", n=3, oracle_set=["111"], shots=10)
        with pytest.raises(Exception):
            cmd_sweep(cfg, [0.1, 0.0], tmp_path)


class TestConfig:
    def test_all_only_small_n(self):
        cfg = ExperimentConfig(family="grover", n=7, oracle_set="all")
        with pytest.raises(Exception) as exc:
            cfg.validate()
        assert "oracle_set" in str(exc.value)

    def test_sample_oracle_set(self):
        from qsearch.cli import resolve_masks

        cfg = ExperimentConfig(family="grover", n=5, oracle_set="sample:8:42")
        masks = resolve_masks(cfg)
        assert len(masks) == 8 == len(set(masks))
        assert all(len(m) == 5 for m in masks)
        assert masks == resolve_masks(cfg)  # seeded, stable

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["run", "--oracle-set", "sample:x:1"], None),
            (["run", "--n", "3", "--oracle-set", "sample:3:-1"], None),
            (["build", "--n", "3", "--oracle-set", "sample:3:-1"], None),
            (["run", "--noise", "p2=abc"], None),
            (["sweep", "--grid", "0,abc"], None),
            (["run"], {"n": "3"}),
            (["run"], [1, 2]),
            (["run"], {"partition": "3,2"}),
            (["run"], {"partition": []}),
            (["run"], {"noise": {"p2": "x"}}),
            (["run"], {"shots": 1.5}),
            (["run"], {"oracle_set": [101]}),
            (["run"], {"seed": -1}),
            (["run"], {"out": 5}),
            (["run", "--n", "abc"], None),
            (["run", "--family", "nope"], None),
            (["run", "--noise", "p2=0.1"], {"noise": None}),
            (["build"], {"oracle_set": []}),
            (["run"], {"oracle_set": ["101", "101"]}),
            (["run", "--family", "grover", "--n", "10", "--style", "measurement-assisted",
              "--iterations", "3", "--oracle", "1111111111"], None),
            (["run", "--n", "3", "--iterations", "100000", "--oracle", "101"], None),
            (["run", "--n", "3", "--iterations", "1000", "--oracle", "101"], None),
            (["run", "--noise", "p2=0.01,p2=0.02"], None),
            (["run", "--noise", "pm=0.005,p_meas=0.1"], None),
            (["sweep", "--n", "3", "--oracle", "111", "--grid", "0,0.05,0.5"], None),
            (["run", "--noise", "p2=0.5"], None),
        ],
        ids=["sample-spec", "sample-seed-negative", "sample-seed-negative-build", "noise-rate", "grid-value", "n-string", "json-list",
             "partition-string", "partition-empty", "noise-string", "shots-float", "oracle-set-int",
             "seed-negative", "out-int", "n-flag-string", "family-flag-choice",
             "noise-null-with-flag", "oracle-set-empty", "oracle-set-repeated",
             "exact-branching-too-wide", "oracle-calls-far-over", "oracle-calls-over",
             "noise-rate-twice", "noise-rate-twice-by-alias", "sweep-without-shots",
             "noise-without-shots"],
    )
    def test_bad_input_is_one_error_line(self, argv, config, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSEARCH_OUT", str(tmp_path))
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "partial", "--n", "4", "--oracle", "1011", "--iterations", "3"],
             "iterations: only grover repeats its round, got 3 for partial"),
            (["--family", "wojter", "--n", "5", "--partition", "3,2", "--oracle", "10110",
              "--diffuser-size", "2"],
             "diffuser_size: only partial takes a diffuser size, not wojter"),
            (["--family", "grover", "--n", "5", "--oracle", "10110", "--partition", "3,2"],
             "partition: only wojter, wojter-aa, drzewker, partial-drzewker take a partition, "
             "not grover"),
            (["--family", "drzewker", "--n", "5", "--partition", "3,2", "--oracle", "10110",
              "--fused"],
             "fused: only wojter has a fused form, not drzewker"),
            (["--family", "wielomianer", "--n", "4", "--oracle", "1011", "--uncompute", "full"],
             "uncompute: only wojter, wojter-aa, drzewker, partial-drzewker take an uncompute "
             "mode, not wielomianer"),
            (["--family", "grover", "--n", "3", "--oracle", "101",
              "--uncompute", "measurement-assisted"],
             "uncompute: only wojter, wojter-aa, drzewker, partial-drzewker take an uncompute "
             "mode, not grover"),
            (["--family", "wojter", "--n", "5", "--partition", "3,2", "--oracle", "10110",
              "--fused", "--uncompute", "full"],
             "uncompute: the fused form of wojter has no uncompute mode"),
            (["--family", "drzewker", "--n", "4", "--partition", "4", "--oracle", "1011",
              "--uncompute", "full"],
             "uncompute: with the one-part partition [4] drzewker is grover, which takes no "
             "uncompute mode"),
            (["--family", "wojter-aa", "--n", "5", "--partition", "3,2", "--oracle", "10110",
              "--style", "plain-mcz", "--uncompute", "measurement-assisted"],
             "uncompute: plain-mcz has no ancillas to measure, so measurement-assisted builds "
             "what full builds"),
        ],
        ids=["iterations", "diffuser-size", "partition", "fused", "uncompute-wielomianer",
             "uncompute-grover", "uncompute-fused", "uncompute-one-part",
             "uncompute-plain-mcz"],
    )
    def test_option_the_family_ignores_refused(self, flags, message, tmp_path, capsys):
        """The circuit would not read the option, yet the report would record it."""
        for command in ("run", "build"):
            assert main([command, *flags, "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, rate", [(["sweep", "--grid", "0,0.05,0.5"], False),
                                            (["run", "--noise", "p2=0.5"], True)])
    def test_noise_without_shots_refused(self, argv, rate, tmp_path, capsys):
        # exact-only, every grid point would print one p_succ and the report
        # would record a rate that had no effect
        assert main(argv + ["--n", "3", "--oracle", "111", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: shots: ") and err.count("\n") == 1
        assert ("nonzero rate" in err) == rate
        assert list(tmp_path.iterdir()) == []

    def test_repeated_mask_named(self):
        cfg = ExperimentConfig(family="grover", n=3, oracle_set=["110", "101", "101"])
        with pytest.raises(ConfigError, match="oracle_set: mask '101' is repeated"):
            resolve_masks(cfg)

    @pytest.mark.parametrize(
        "exc", [MemoryError("Unable to allocate 3.80 GiB for an array"), MemoryError()],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_is_one_runtime_error_line(self, exc, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(sim.NoisyTemplatePlan, "sample", exhausted)
        rc = main(["run", "--n", "3", "--oracle", "101", "--shots", "8", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_oracle_calls_refused_before_simulating(self, tmp_path, monkeypatch, capsys):
        argv = ["--n", "3", "--iterations", "9", "--oracle", "101", "--out", str(tmp_path)]
        assert main(["build"] + argv) == 0
        capsys.readouterr()

        def unexpected(*args):
            raise AssertionError("simulated before checking the oracle calls")

        monkeypatch.setattr(sim, "run_exact_template", unexpected)
        assert main(["run"] + argv) == 1
        assert capsys.readouterr().err == "error: oracle calls 9 outside 1..8\n"

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--grid", "0,0.1"]])
    def test_oracle_calls_refused_before_building(self, command, tmp_path, monkeypatch, capsys):
        def unexpected(*args):
            raise AssertionError("built before checking the oracle calls")

        monkeypatch.setattr(families, "plan", unexpected)
        argv = ["--n", "3", "--iterations", "100000", "--oracle", "101", "--shots", "8",
                "--out", str(tmp_path)]
        assert main(command + argv) == 1
        assert capsys.readouterr().err == "error: oracle calls 100000 outside 1..8\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "wojter", "--n", "6", "--partition", "3,3", "--oracle-set", "all"],
             "partition: trailing block must have 1 or 2 qubits (exact block search)"),
            (["--family", "wielomianer", "--n", "5", "--oracle", "10110"],
             "n: the wielomianer circuit is defined for n=4"),
            (["--family", "wojter-aa", "--n", "2", "--partition", "1,1",
              "--style", "ancilla-relphase", "--oracle-set", "all"],
             "oracle calls 5 outside 1..4"),
        ],
        ids=["trailing-block", "wielomianer-width", "wojter-aa-calls"],
    )
    def test_option_set_error_names_no_mask(self, flags, message, tmp_path, capsys):
        assert main(["run", *flags, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []  # not even the output directory

    def test_noisy_memory_budget_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sim, "MAX_NOISY_BYTES", 1 << 16)
        rc = main(["run", "--n", "3", "--oracle", "101", "--shots", "100", "--noise", "p2=0.01",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: oracle 101: 100 trajectories") and err.count("\n") == 1
        assert "over the 0.00 GiB budget" in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_plot_rejects_non_finite_averages(self, value, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(f'{{"config": {{"n": 1}}, "relabeled_theoretical": [{value}, 0.5], '
                        '"relabeled_average": [0.5, 0.5]}')
        assert main(["plot", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: report: {path} has malformed relabeled averages\n")
        assert not (tmp_path / "report.csv").exists()

    def test_plot_rejects_non_report(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3}))
        assert main(["plot", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSEARCH_OUT", str(tmp_path))
        rc = main(["build", "--family", "grover", "--n", "2", "--oracle", "11"])
        assert rc == 0
        assert (tmp_path / "circuit_grover_11.qasm").exists()


# CLI fuzzing: random flag lists and config objects, bounded to n <= 4 and
# shots <= 64 so that every accepted input runs in milliseconds.

_JUNK = st.sampled_from(["abc", "", "-1", "1.5", "3,2", "p2", "sample:x:1"])
_FLAG_VALUES = {
    "--family": st.sampled_from(families.FAMILIES),
    "--n": st.integers(-1, 4).map(str),
    "--iterations": st.integers(-1, 2).map(str),
    "--partition": st.sampled_from(["2,1", "2,2", "3,1", "1,1", "0,2"]),
    "--diffuser-size": st.integers(-1, 4).map(str),
    "--oracle": st.text("01", max_size=4),
    "--oracle-set": st.sampled_from(["all", "sample:2:1", "sample:9:1", "sample:1"]),
    "--style": st.sampled_from(synth.ORACLE_STYLES),
    "--uncompute": st.sampled_from(families.UNCOMPUTE_MODES),
    "--shots": st.integers(-1, 64).map(str),
    "--noise": st.sampled_from(["p2=0.01", "p1=0.1,pm=0.2", "p2=2", "p3=1", "p2=abc"]),
    "--seed": st.integers(-1, 9).map(str),
}
_GRID = st.sampled_from(["0", "0,0.1", "0.1,0", "0,abc", "1"])
_JSON_JUNK = st.sampled_from([None, True, -1, 1.5, "3", [], {}, [1], {"p2": "x"}])
_CONFIG_VALUES = {
    "family": st.sampled_from(families.FAMILIES),
    "n": st.integers(-1, 4),
    "oracle_set": st.one_of(st.sampled_from(["all", "sample:2:3"]),
                            st.lists(st.text("01", min_size=1, max_size=4), max_size=3)),
    "oracle_style": st.sampled_from(synth.ORACLE_STYLES),
    "uncompute": st.sampled_from(families.UNCOMPUTE_MODES),
    "fused": st.booleans(),
    "iterations": st.integers(0, 2),
    "partition": st.lists(st.integers(0, 3), max_size=3),
    "diffuser_size": st.integers(0, 4),
    "shots": st.integers(-1, 64),
    "noise": st.dictionaries(st.sampled_from(["p1", "p2", "p_meas", "p9"]),
                             st.floats(-0.5, 1.5), max_size=3),
    "seed": st.integers(-1, 9),
}


def _mostly(good, junk):
    """Draw from good, or from junk one time in six."""
    return st.integers(0, 5).flatmap(lambda k: junk if k == 0 else good)


@st.composite
def cli_inputs(draw):
    """(argv without --config, config JSON value or None)."""
    command = draw(_mostly(st.sampled_from(["build", "run", "sweep", "plot"]), st.just("bogus")))
    argv = [command]
    if command == "plot":
        reports = ["missing.json", "report_grover_2q.json", "cfg.json", "."]
        argv.append(draw(st.sampled_from(reports)))
    else:
        for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=5, unique=True)):
            argv += [flag, draw(_mostly(_FLAG_VALUES[flag], _JUNK))]
    if command == "sweep":
        argv += draw(_mostly(_GRID.map(lambda g: ["--grid", g]), st.just([])))
    argv += draw(st.lists(st.sampled_from(["--fused", "--fused", "--bogus", "7"]), max_size=1))
    fields = st.fixed_dictionaries({}, optional={
        **{k: _mostly(v, _JSON_JUNK) for k, v in _CONFIG_VALUES.items()},
        "out": _mostly(st.none(), st.just(5)),
    })
    junk = st.one_of(_JSON_JUNK, st.just({"bogus": 1}))
    config = draw(st.one_of(st.none(), _mostly(fields, junk)))
    return argv, config


class TestExactBatches:
    """`run` and `sweep` walk the run's plan template once for every mask, by
    one sim.run_exact_template call, which runs the masks in groups of at
    most sim._BLOCK amplitudes."""

    def test_groups_do_not_change_distributions(self, monkeypatch):
        cfg = ExperimentConfig(family="grover", n=3, oracle_set="all",
                               oracle_style="measurement-assisted")
        c = families.build(build_request(cfg, "000"))
        width = sim._exact_width(c.n_qubits, terminal_split(c)[0])
        assert width > 3  # n wires and m mid-circuit measurements
        walk, histograms = sim.run_exact_template, sim._terminal_histograms
        results = {}
        for block, group in ((1 << width, 1), ((2 << width) + 1, 2), (1 << (width + 3), 8)):
            calls, sizes = [], []
            monkeypatch.setattr(sim, "run_exact_template",
                                lambda template, keys: calls.append(keys) or walk(template, keys))
            monkeypatch.setattr(sim, "_terminal_histograms",
                                lambda *args: sizes.append(args[-1]) or histograms(*args))
            monkeypatch.setattr(sim, "_BLOCK", block)
            oracles, _, _, _ = _exact_oracles(cfg, cfg.validate())
            assert calls == [resolve_masks(cfg)] and sizes == [group] * (8 // group)
            assert [o[0] for o in oracles] == resolve_masks(cfg)
            results[group] = [o[2].probabilities for o in oracles]
        for group in (2, 8):
            assert all(map(np.array_equal, results[1], results[group]))

    def test_shared_instructions_run_once(self, tmp_path, monkeypatch):
        # each fixed instruction once for all 32 masks, and each hole once,
        # as one step for the masks that make it
        cfg = ExperimentConfig(family="wojter-aa", n=5, oracle_style="ancilla-relphase",
                               partition=[3, 2])
        template = families.plan(cfg.validate()).template
        gates = sum(i.gate.name not in ("measure", "barrier") for part in template._fixed for i in part)
        gates += len(template._holes)  # each made by some of the 32 masks
        calls = [0]

        def counting(run):
            def counted(*args):
                calls[0] += 1
                return run(*args)
            return counted

        monkeypatch.setattr(sim, "_apply_gate", counting(sim._apply_gate))
        monkeypatch.setattr(sim, "_apply_hole", counting(sim._apply_hole))
        masks = resolve_masks(cfg)
        for m in masks:
            sim.run_exact(families.build(build_request(cfg, m)))
        one_by_one, calls[0] = calls[0], 0
        argv = ["run", "--family", "wojter-aa", "--n", "5", "--style", "ancilla-relphase",
                "--partition", "3,2", "--oracle-set", "all", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls[0] == gates and 8 * gates <= one_by_one

    def test_too_wide_refused_before_simulating(self, tmp_path, monkeypatch, capsys):
        def unexpected(*args):
            raise AssertionError("simulated before checking the exact width")

        monkeypatch.setattr(sim, "_apply_gate", unexpected)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"oracle_set": ["0000000000", "1111111111"]}))
        assert main(["run", "--family", "grover", "--n", "10", "--style", "measurement-assisted",
                     "--iterations", "3", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: oracle 0000000000: 14 qubits and 12 mid-circuit measurements "
            "exceed exact limit 24\n")

    def test_too_wide_makes_no_hole_and_compiles_none(self, tmp_path, monkeypatch, capsys):
        # the template's width is checked before any mask fills a hole
        def unexpected(*args):
            raise AssertionError("made a hole or ran a gate before checking the exact width")

        compiled, compile_template = [], synth.compile_template
        monkeypatch.setattr(Hole, "made", unexpected)
        monkeypatch.setattr(sim, "_apply_gate", unexpected)
        monkeypatch.setattr(synth, "compile_template",
                            lambda t: compiled.append(t) or compile_template(t))
        argv = ["run", "--family", "grover", "--n", "10", "--style", "measurement-assisted",
                "--iterations", "3", "--oracle-set", "sample:64:0", "--shots", "10",
                "--out", str(tmp_path)]
        assert main(argv) == 1
        first = resolve_masks(ExperimentConfig(n=10, oracle_set="sample:64:0"))[0]
        assert capsys.readouterr().err == (
            f"error: oracle {first}: 14 qubits and 12 mid-circuit measurements "
            "exceed exact limit 24\n")
        assert compiled == []

    def test_error_names_the_failing_mask(self, tmp_path, monkeypatch, capsys):
        # the oracle's hole step writes NaN on mask 101's rows, which drifts
        # only 101's norm
        apply_hole = sim._apply_hole

        def nan_for_101(state, n, hole, rows, key_bits):
            apply_hole(state, n, hole, rows, key_bits)
            state[rows[(key_bits == [True, False, True]).all(axis=1)]] = np.nan

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"oracle_set": ["110", "101", "011"]}))
        monkeypatch.setattr(sim, "_apply_hole", nan_for_101)
        assert main(["run", "--n", "3", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: oracle 101: statevector norm drifted\n"

    @pytest.mark.parametrize("masks", [["101"], ["110", "101"]], ids=["census", "sampler"])
    def test_named_error_keeps_its_class(self, masks, tmp_path, monkeypatch, capsys):
        # NotLowered(index, message) cannot be rebuilt from its message alone; a
        # compile that leaves 101 a gate on three qubits fails the first mask's
        # census, or, second, run_noisy_template's plan
        compile_template = synth.compile_template

        def leaky(template):
            compiled = compile_template(template)
            kept = compiled._kept

            def unlowered_for_101(mask):
                flags, made = kept(mask)
                if mask == "101":
                    made = [made[0] + (Instruction(cz(0, 1, 2)),), *made[1:]]
                return flags, made

            compiled._kept = unlowered_for_101
            return compiled

        monkeypatch.setattr(synth, "compile_template", leaky)
        cfg = ExperimentConfig(n=3, oracle_set=masks, shots=10, noise={"p2": 0.01})
        with pytest.raises(NotLowered) as info:
            run_experiment(cfg)
        assert str(info.value).startswith("oracle 101: instruction ")
        assert isinstance(info.value.index, int)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"oracle_set": masks}))
        assert main(["run", "--n", "3", "--config", str(path), "--shots", "10",
                     "--noise", "p2=0.01", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: oracle 101: instruction ") and err.count("\n") == 1


class TestFuzz:
    @given(cli_inputs())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_input_exits_cleanly(self, tmp_path, monkeypatch, capsys, inputs):
        argv, config = inputs
        monkeypatch.setenv("QSEARCH_OUT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", "cfg.json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print beside the error line
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        if rc == 0:
            assert err == ""
        else:
            assert err.startswith("error:") and err.count("\n") == 1


class TestNoisyBatches:
    """`run` and `sweep` plan a run's masks once over the compiled template
    (sim.plan_noisy_template) and sample each noise point by one call of
    the plan, which runs them in groups (sim._noisy_group) bounded by
    sim.MAX_NOISY_BYTES."""

    def test_groups_do_not_change_reports(self, monkeypatch):
        cfg = ExperimentConfig(family="wielomianer", n=4, oracle_set="all", shots=50,
                               noise={"p1": 0.01, "p2": 0.02, "p_meas": 0.03}, seed=5)
        compiled = synth.compile_template(families.plan(build_request(cfg, "0000")).template)
        needs = sim.plan_noisy_template(compiled, resolve_masks(cfg), cfg.shots).needs
        assert 2 * min(needs) > max(needs)  # so a budget of k * max holds k masks
        plan_noisy_template, noisy_group = sim.plan_noisy_template, sim._noisy_group
        reports = {}
        for group in (1, 2, 16):
            calls, sizes = [], []

            def walk(template, masks, *args):
                calls.append(len(masks))
                return plan_noisy_template(template, masks, *args)

            def grouped(template, split, kept, *args):
                sizes.append(len(kept))
                return noisy_group(template, split, kept, *args)

            monkeypatch.setattr(sim, "plan_noisy_template", walk)
            monkeypatch.setattr(sim, "_noisy_group", grouped)
            monkeypatch.setattr(sim, "MAX_NOISY_BYTES", group * max(needs))
            report = run_experiment(cfg)
            assert calls == [16] and sizes == [group] * (16 // group)
            report.pop("timing_seconds")
            reports[group] = json.dumps(report, sort_keys=True)
        assert reports[1] == reports[2] == reports[16]

    def test_sweep_samples_each_point_in_one_group(self, tmp_path, monkeypatch):
        sizes = []
        sample = sim.NoisyTemplatePlan.sample

        def walk(plan, noise, seeds):
            sizes.append(len(seeds))
            return sample(plan, noise, seeds)

        monkeypatch.setattr(sim.NoisyTemplatePlan, "sample", walk)
        argv = ["sweep", "--n", "3", "--oracle-set", "all", "--shots", "20", "--grid", "0,0.1",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert sizes == [8, 8]

    def test_sweep_plans_its_masks_once(self, tmp_path, monkeypatch):
        # nothing a key's plan holds depends on the noise or the seed: one
        # keep-flag pass for the census and one per mask, for all 5 points
        calls = []
        kept = synth._CompiledTemplate._kept
        monkeypatch.setattr(synth._CompiledTemplate, "_kept",
                            lambda self, key: calls.append(key) or kept(self, key))
        argv = ["sweep", "--n", "5", "--style", "ancilla-relphase", "--oracle-set", "all",
                "--shots", "16", "--grid", "0,0.01,0.02,0.05,0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(calls) == 1 + 32

    @pytest.mark.parametrize("oracle_set, shots", [(["101"], 20), ("all", 20), ("all", 0)])
    def test_keep_flags_once_per_mask(self, oracle_set, shots, monkeypatch):
        # the first mask's census and its walk plan share one keep-flag pass;
        # an exact-only run makes only the census's
        calls = []
        cancel_flags = synth._cancel_flags
        monkeypatch.setattr(synth, "_cancel_flags",
                            lambda *args: calls.append(args) or cancel_flags(*args))
        cfg = ExperimentConfig(n=3, oracle_style="ancilla-relphase", oracle_set=oracle_set,
                               shots=shots, noise={"p2": 0.01} if shots else {})
        run_experiment(cfg)
        assert len(calls) == (len(resolve_masks(cfg)) if shots else 1)


# The report writer: json.dumps(report, indent=2, sort_keys=True) and a
# newline, with each distinct float formatted once.

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1 / 3, 1e-300, float("nan"), float("inf"), float("-inf")]),
    st.floats(),
    st.floats().map(np.float64),
)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(), _FLOATS)
_JSON_LIKE = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple), st.dictionaries(st.text(), children)),
    max_leaves=60,
)


class TestReportWriter:
    @given(_JSON_LIKE)
    @settings(max_examples=300, deadline=None)
    def test_text_is_json_dumps(self, obj):
        # nested lists, tuples and str-keyed dicts; repeated floats, 0.0 beside
        # -0.0, NaN, infinities, np.float64, non-ASCII text, empty containers
        assert cli._report_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_zero_signs_and_repeats_keep_their_text(self):
        obj = {"a": [0.0, -0.0, 0.0, -0.0, np.float64(-0.0)], "b": [0.1] * 3 + [np.float64(0.1)]}
        assert cli._report_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
        assert '-0.0' in cli._report_text(obj)

    @pytest.mark.parametrize("obj", [
        {1: 0.5, 2: [1.5]},  # int keys, which json writes as strings
        {"a": {"b": (1, [2.5, {"c": None}])}, "": [], "é": {}},
        [re.RegexFlag.IGNORECASE, 2.0],  # an int subclass
    ])
    def test_other_keys_and_subclasses_as_json_writes_them(self, obj):
        assert cli._report_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj, error", [
        ({"a": np.int64(3)}, TypeError),
        ({"a": 1, 2: 3}, TypeError),  # keys json cannot sort
        (None, ValueError),  # replaced by a list that holds itself
    ])
    def test_refuses_what_json_refuses(self, obj, error):
        if obj is None:
            obj = [1.5]
            obj.append(obj)
        with pytest.raises(error) as want:
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(error) as got:
            cli._report_text(obj)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("family", families.FAMILIES)
    def test_run_report_bytes_are_json_dumps(self, family, tmp_path):
        # one fixed-seed sampled report per family, written by `qsearch run`
        cfg = ExperimentConfig(family=family, n=4, oracle_style="ancilla-relphase", shots=64,
                               noise={"p2": 0.02, "p_meas": 0.01}, seed=7, out=str(tmp_path),
                               partition=[2, 2] if family in families.BLOCK_FAMILIES else None,
                               diffuser_size=3 if family == "partial" else None)
        report = run_experiment(cfg)
        path = tmp_path / "report.json"
        cli.write_report(report, path)
        assert path.read_bytes() == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


class TestParser:
    def test_one_parser_per_process_carries_nothing_between_calls(self, tmp_path, monkeypatch,
                                                                  capsys):
        built = []
        make_parser = cli.make_parser
        monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make_parser())
        cli._parser.cache_clear()
        try:
            assert main(["run", "--n", "abc"]) == 1
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            common = ["run", "--n", "2", "--oracle", "10", "--out"]
            assert main(common + [str(tmp_path / "a"), "--seed", "5"]) == 0
            assert main(common + [str(tmp_path / "b")]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert read_report(tmp_path / "a" / "report_grover_2q.json")["config"]["seed"] == 5
        assert read_report(tmp_path / "b" / "report_grover_2q.json")["config"]["seed"] == 0
        assert capsys.readouterr().err.startswith("error: qsearch run: argument --n")
