#!/usr/bin/env python3
"""qsearch benchmark: one closed-loop client sending `qsearch` CLI requests in-process.

Each request is a call to ``qsearch.cli.main([...])`` with the request's
flags, a config file holding its oracle masks and its ``--seed``; the
report or circuit files it writes are checked after the timer stops.

    python3 perfbench/run.py --workload compile-exact --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is the result JSON; details
(environment, tail percentile, per-row latencies, spans) go to
``perfbench/out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import env  # first: fixes the BLAS thread count before numpy loads

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import spans
import stats
from workloads import WARMUP, WORKLOADS, Plan

HOLDOUT_SEED = 8_675_309
SETUP_PROBES = 7
MIN_REQUESTS = 100  # a p90 tail needs 100 samples for 10 beyond it
WALL_LIMIT_S = 130.0  # stop adding passes after this much wall time
PROBE = Path(__file__).resolve().parent / "probe.py"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Send one request; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this request, not the whole run
            traceback.print_exc()
            rc = 2
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def probe_setup(workload: str, outdir: Path) -> float:
    """Seconds from starting a fresh interpreter to its warm-up request being done."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), workload, str(outdir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=env.ROOT,
    )
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip()} {err.strip()[-300:]}")
    return ready - start


class Bench:
    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        import qsearch
        from qsearch.errors import QsearchError

        self.cli, self.qsearch, self.qsearch_error = cli, qsearch, QsearchError
        self.plan = Plan(workload, seed, workdir)
        self.rows = self.plan.rows
        self.outdir = workdir / "requests"
        self.outdir.mkdir()
        self.twoq: dict[int, dict[str, int]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    # -- output checks (never inside the timed region) ----------------------

    def _row_twoq(self, i: int) -> dict[str, int]:
        """Lowered two-qubit count per mask, from a `qsearch build` of the row."""
        if i not in self.twoq:
            row = self.rows[i]
            scratch = self.outdir / f"twoq{i}"
            rc, out, err, _ = call(self.cli, row.argv(self.plan.configs[i], 0, scratch, "build"))
            shutil.rmtree(scratch, ignore_errors=True)
            if rc != 0:
                raise RuntimeError(f"{row.label}: build for gate counts failed: {err.strip()}")
            self.twoq[i] = checks.parse_build_counts(out)
        return self.twoq[i]

    def _check(self, i: int, rc: int, stdout: str, stderr: str) -> list[str]:
        row = self.rows[i]
        if rc != 0:
            return [f"exit code {rc}: {stderr.strip()[-300:]}"]
        masks = row.mask_list()
        if row.command == "run":
            path = self.outdir / f"report_{row.family}_{row.n}q.json"
            try:
                report = json.loads(path.read_text())
                path.unlink()
            except (OSError, ValueError) as exc:
                return [f"report unreadable: {exc}"]
            try:
                problems = checks.check_run_report(row, masks, report)
            except (KeyError, TypeError) as exc:
                return [f"malformed report: {exc!r}"]
            try:
                counts = self._row_twoq(i)
            except RuntimeError as exc:
                return problems + [str(exc)]
            reported = (report.get("census") or {}).get("two_qubit_count")
            if reported != counts.get(masks[0]):
                problems.append(f"report census {reported} != built count {counts.get(masks[0])}")
            return problems
        q = self.qsearch
        parsed, built = {}, {}
        for mask in masks:
            path = self.outdir / f"circuit_{row.family}_{mask}.qasm"
            try:
                parsed[mask] = q.parse(path.read_text())
                path.unlink()
            except (OSError, self.qsearch_error) as exc:
                parsed[mask] = None
                log(f"{row.label} {mask}: {exc}")
            built[mask] = q.build(q.FamilyRequest(
                family=row.family,
                oracle=q.OracleSpec(row.n, mask, row.style),
                partition=q.Partition(row.partition) if row.partition else None,
                diffuser_size=row.diffuser_size,
                fused=row.fused,
            ))
        counts = checks.parse_build_counts(stdout)
        problems = checks.check_build_output(row, masks, counts, parsed, built)
        if not problems:
            self.twoq.setdefault(i, counts)
        return problems

    # -- requests -------------------------------------------------------------

    def request(self, i: int, seed: int, tracer: spans.Tracer | None = None) -> float:
        """Send row i once, check it, and return its latency in seconds."""
        row = self.rows[i]
        argv = row.argv(self.plan.configs[i], seed, self.outdir)
        if tracer is not None:
            tracer.request += 1
            tracer.install()
            try:
                rc, out, err, elapsed = call(self.cli, argv)
            finally:
                tracer.uninstall()
        else:
            rc, out, err, elapsed = call(self.cli, argv)
        problems = self._check(i, rc, out, err)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{row.label}: {p}" for p in problems]
            log(f"FAILED {row.label}: {problems[:3]}")
        return elapsed

    def run_pass(self, seeds: list[int], tracer: spans.Tracer | None = None) -> list[float]:
        return [self.request(i, seed, tracer) for i, seed in enumerate(seeds)]

    def new_seeds(self) -> list[int]:
        return [self.plan.next_seed() for _ in self.rows]

    def twoq_total(self) -> int:
        return sum(sum(self._row_twoq(i).values()) for i in range(len(self.rows)))


def measure_untraced(bench: Bench, seconds: float, started: float) -> dict:
    """Send whole passes until enough request time and requests have accumulated."""
    by_row: list[list[float]] = [[] for _ in bench.rows]
    pass_s: list[float] = []
    while True:
        times = bench.run_pass(bench.new_seeds())
        for samples, t in zip(by_row, times):
            samples.append(t)
        pass_s.append(sum(times))
        enough = sum(pass_s) >= seconds and len(pass_s) * len(bench.rows) >= MIN_REQUESTS
        if enough or time.perf_counter() - started > WALL_LIMIT_S:
            break
    latencies = [t for samples in by_row for t in samples]
    oracles = len(pass_s) * sum(row.oracle_count for row in bench.rows)
    shots = len(pass_s) * sum(row.oracle_count * row.shots for row in bench.rows)
    return {
        "timed_s": sum(pass_s),
        "pass_s": pass_s,
        "oracles_per_s": oracles / sum(pass_s),
        "shots_per_s": shots / sum(pass_s),
        "request_s.p50": statistics.median(latencies),
        "tail": stats.tail(latencies),
        "row_p50_s": {row.label: statistics.median(v) for row, v in zip(bench.rows, by_row)},
        "row_latencies_s": {row.label: v for row, v in zip(bench.rows, by_row)},
    }


def measure_traced(bench: Bench, seconds: float, started: float, tracer: spans.Tracer) -> dict:
    """Alternate an untraced and a traced pass over the same inputs."""
    untraced = traced = 0.0
    pairs = 0
    while True:
        seeds = bench.new_seeds()
        untraced += sum(bench.run_pass(seeds))
        traced += sum(bench.run_pass(seeds, tracer))
        pairs += 1
        if untraced >= seconds / 2 or time.perf_counter() - started > WALL_LIMIT_S:
            break
    totals = spans.layer_totals(tracer.spans)
    metrics: dict[str, float] = {}
    for layer in spans.LAYERS:
        t = totals[layer]
        metrics[f"{layer}.calls"] = t["calls"] / pairs
        metrics[f"{layer}.self_s"] = t["self_s"] / pairs
        metrics[f"{layer}.errors"] = t["errors"] / pairs
    counter_names = (
        "families.build.instrs_out", "synth.lower.instrs_out",
        "circuit.peephole_cancel.removed", "circuit.census.twoq",
        "sim.run_exact.amp_gates", "sim.run_noisy.shots", "sim.run_noisy.amp_gates",
        "sim.run_noisy.bytes_computed", "qasm.serialize.bytes", "cli.write_report.bytes",
    )
    for name in counter_names:
        metrics[name] = tracer.counters.get(name, 0) / pairs
    amp = tracer.counters.get("sim.run_noisy.amp_gates", 0)
    metrics["sim.run_noisy.ns_per_amp_gate"] = (
        totals["sim.run_noisy"]["self_s"] * 1e9 / amp if amp else 0.0
    )
    root = totals["cli.main"]
    metrics["trace.uncovered_share"] = root["self_s"] / root["total_s"] if root["total_s"] else 0.0
    metrics["trace.untraced_pass_s"] = untraced / pairs
    metrics["trace.traced_pass_s"] = traced / pairs
    metrics["trace.overhead_s"] = (traced - untraced) / pairs
    return {"pairs": pairs, "metrics": metrics}


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "errors": "count", "instrs_out": "count",
                   "removed": "count", "twoq": "count", "amp_gates": "count", "shots": "count",
                   "bytes_computed": "bytes", "bytes": "bytes", "ns_per_amp_gate": "ns",
                   "uncovered_share": "share", "untraced_pass_s": "s", "traced_pass_s": "s",
                   "overhead_s": "s"}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--holdout", action="store_true",
                        help=f"use the held-out seed {HOLDOUT_SEED} instead of --seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.holdout == (args.seed is not None):
        parser.error("give exactly one of --seed and --holdout")
    seed = HOLDOUT_SEED if args.holdout else args.seed
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        cli = env.import_cli()
    except (env.MissingProgram, ImportError) as exc:
        log(f"error: {exc}")
        return 2
    environment = env.environment(args.workload, seed, "holdout" if args.holdout else "workload")
    env.OUT.mkdir(exist_ok=True)
    workdir = env.OUT / f"work-{args.workload}-{seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        bench = Bench(cli, args.workload, seed, workdir)
        setup = sorted(probe_setup(args.workload, workdir) for _ in range(SETUP_PROBES)) \
            if args.trace == 0 else []
        own_setup = time.perf_counter()
        rc, _, err, _ = call(cli, WARMUP[args.workload] + ["--out", str(workdir)])
        if rc != 0:
            log(f"error: warm-up request failed: {err.strip()}")
            return 2
        own_setup = time.perf_counter() - own_setup

        detail: dict = {"environment": environment, "seconds": args.seconds, "trace": args.trace,
                        "rows": [row.label for row in bench.rows]}
        if args.trace == 0:
            m = measure_untraced(bench, args.seconds, started)
            twoq_total = bench.twoq_total()
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "oracles_per_s": (m["oracles_per_s"], "1/s"),
                "request_s.p50": (m["request_s.p50"], "s"),
                "request_s.tail": (m["tail"]["value"], "s"),
                "twoq_total": (twoq_total, "count"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            detail.update(
                setup_samples_s=setup, warmup_s=own_setup, tail=m["tail"], pass_s=m["pass_s"],
                timed_s=m["timed_s"], shots_per_s=m["shots_per_s"], row_p50_s=m["row_p50_s"],
                row_latencies_s=m["row_latencies_s"],
                twoq_by_row={bench.rows[i].label: sum(c.values()) for i, c in sorted(bench.twoq.items())},
            )
        else:
            tracer = spans.Tracer()
            t = measure_traced(bench, args.seconds, started, tracer)
            metrics = {
                name: (value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
                for name, value in t["metrics"].items()
            }
            detail["pairs"] = t["pairs"]
            tracer.write(env.OUT / f"spans-{args.workload}.json", {"environment": environment})
        detail["failed_share"] = bench.failed / bench.attempted
        detail["problems"] = bench.problems[:50]
        detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
        (env.OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1) + "\n")
        log(json.dumps({k: detail[k] for k in ("environment", "failed_share")}))
        result = {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
