"""Config-driven experiment runner.

Subcommands: build (emit circuit files + census), run (full experiment
report as JSON), plot (CSV + pgfplots fragment from a report), sweep
(noise grid).  Configuration comes from a JSON file via --config with
individual flag overrides; QSEARCH_OUT sets the default output directory.
Exit codes: 0 success, 1 validation error, 2 runtime error; errors print
as a single line prefixed "error:".
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from json.encoder import encode_basestring_ascii
from math import copysign, inf, isfinite
from pathlib import Path

import numpy as np

from . import __version__, analysis, families, qasm, sim, synth
from .circuit import CircuitTemplate, census, peephole_cancel  # noqa: F401 - perfbench's tests read it
from .errors import ConfigError, QsearchError, ValidationError
from .families import FamilyRequest, Partition
from .synth import OracleSpec

SCHEMA_VERSION = 1


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# (field, type test, what the field must be); validate checks these first.
_FIELD_TYPES = (
    ("family", _is_str, "a string"),
    ("n", _is_int, "an integer"),
    ("oracle_set", lambda v: _is_str(v) or isinstance(v, list) and all(map(_is_str, v)),
     "a string or a list of strings"),
    ("oracle_style", _is_str, "a string"),
    ("uncompute", _is_str, "a string"),
    ("fused", lambda v: isinstance(v, bool), "true or false"),
    ("iterations", _is_int, "an integer"),
    ("partition", lambda v: v is None or isinstance(v, list) and all(map(_is_int, v)),
     "a list of integers"),
    ("diffuser_size", lambda v: v is None or _is_int(v), "an integer"),
    ("shots", _is_int, "an integer"),
    ("noise", lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
     "an object of numbers"),
    ("seed", _is_int, "an integer"),
    ("out", lambda v: v is None or _is_str(v), "a string"),
)


@dataclass
class ExperimentConfig:
    family: str = "grover"
    n: int = 3
    oracle_set: object = "all"  # "all" | "sample:k:seed" | list of masks
    oracle_style: str = "plain-mcz"
    uncompute: str = "partial"
    fused: bool = False
    iterations: int = 1
    partition: list[int] | None = None
    diffuser_size: int | None = None
    shots: int = 0  # 0 = exact-only report
    noise: dict = field(default_factory=lambda: {"p1": 0.0, "p2": 0.0, "p_meas": 0.0})
    seed: int = 0
    out: str | None = None

    def validate(self) -> FamilyRequest:
        """Check the CLI's own fields, then make the run's request, which
        refuses an option set its family cannot build or would not read."""
        for name, is_type, what in _FIELD_TYPES:
            if not is_type(getattr(self, name)):
                raise ConfigError(f"{name}: must be {what}, got {getattr(self, name)!r}")
        if not 1 <= self.n <= 16:
            raise ConfigError(f"n: width {self.n} outside 1..16")
        if self.shots < 0:
            raise ConfigError("shots: must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.oracle_set == "all" and self.n > 6:
            raise ConfigError("oracle_set: 'all' only permitted for n <= 6")
        for k in self.noise:
            if k not in ("p1", "p2", "p_meas"):
                raise ConfigError(f"noise: unknown rate {k!r}")
        if self.shots == 0 and any(self.noise.values()):
            raise ConfigError("shots: noise acts only on sampled runs, so a nonzero rate needs "
                              "shots >= 1")
        return build_request(self, "0" * self.n)


def _derive_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def resolve_masks(cfg: ExperimentConfig) -> list[str]:
    spec = cfg.oracle_set
    if isinstance(spec, list):
        if not spec:
            raise ConfigError("oracle_set: the mask list is empty")
        seen = set()
        for m in spec:
            if len(m) != cfg.n or any(ch not in "01" for ch in m):
                raise ConfigError(f"oracle_set: mask {m!r} is not a pattern of {cfg.n} bits")
            if m in seen:
                raise ConfigError(f"oracle_set: mask {m!r} is repeated")
            seen.add(m)
        return list(spec)
    if spec == "all":
        return [format(v, f"0{cfg.n}b") for v in range(1 << cfg.n)]
    if isinstance(spec, str) and spec.startswith("sample:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("oracle_set: sample spec must be sample:<k>:<seed>")
        try:
            k, sample_seed = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"oracle_set: bad sample spec {spec!r}") from exc
        if not 1 <= k <= (1 << cfg.n):
            raise ConfigError(f"oracle_set: sample size {k} outside register")
        if sample_seed < 0:
            raise ConfigError(f"oracle_set: sample seed {sample_seed} must be >= 0")
        rng = np.random.default_rng(sample_seed)
        picks = rng.choice(1 << cfg.n, size=k, replace=False)
        return [format(int(v), f"0{cfg.n}b") for v in sorted(picks)]
    raise ConfigError(f"oracle_set: cannot interpret {spec!r}")


def build_request(cfg: ExperimentConfig, mask: str) -> FamilyRequest:
    return FamilyRequest(
        family=cfg.family,
        oracle=OracleSpec(cfg.n, mask, cfg.oracle_style),
        iterations=cfg.iterations,
        partition=None if cfg.partition is None else Partition(tuple(cfg.partition)),
        diffuser_size=cfg.diffuser_size,
        uncompute=cfg.uncompute,
        fused=cfg.fused,
    )


def _census_dict(c) -> dict:
    return {
        "two_qubit_count": c.two_qubit_count,
        "one_qubit_count": c.one_qubit_count,
        "measure_count": c.measure_count,
        "by_kind": dict(sorted(c.by_kind.items())),
        "cx_count": c.by_kind.get("cx", 0),
        "cz_count": c.by_kind.get("cz", 0),
    }


def cmd_build(cfg: ExperimentConfig, outdir: Path) -> int:
    """Write each mask's circuit and print its compiled census, from one
    families.plan and one synth.compile_template for the set, as run does."""
    request = cfg.validate()
    masks = resolve_masks(cfg)
    plan = families.plan(request)
    compiled = synth.compile_template(plan.template)
    outdir.mkdir(parents=True, exist_ok=True)
    for mask in masks:
        path = outdir / f"circuit_{cfg.family}_{mask}.qasm"
        path.write_text(qasm.serialize(plan.fill(mask)))
        cens = census(compiled.fill(mask))
        print(
            f"{path.name}: two_qubit_count={cens.two_qubit_count} "
            f"(cx={cens.by_kind.get('cx', 0)}, cz={cens.by_kind.get('cz', 0)}) "
            f"one_qubit={cens.one_qubit_count}"
        )
    return 0


def _named(exc: QsearchError, masks: list[str], at: int) -> QsearchError:
    """exc with "oracle <mask>: " before its message, for the mask whose key
    index an engine blamed (exc.circuit), else for masks[at].  The
    exception keeps its class and attributes: no constructor runs again."""
    exc.args = (f"oracle {masks[at if exc.circuit is None else exc.circuit]}: {exc}",)
    return exc


def _exact_oracles(
    cfg: ExperimentConfig, request: FamilyRequest
) -> tuple[list[tuple], dict, int, sim.NoisyTemplatePlan | None]:
    """Plan the set's oracles by one families.plan call and walk the plan's
    template once for every mask's exact distribution: (mask, data bits,
    exact data-bit distribution) per mask, the first mask's compiled census,
    the oracle calls per circuit and, when cfg samples, the compiled
    template's noisy plan of the masks (sim.plan_noisy_template).  Too many
    calls are refused before any build, and a template too wide to simulate
    exactly before any hole, naming the first mask.  Nothing here depends
    on the noise or the seed.
    """
    masks = resolve_masks(cfg)
    analysis.classical_baselines(cfg.n, request.oracle_calls)  # refuses calls outside 1..2^n
    plan = families.plan(request)
    data_bits = plan.metadata["data_clbits"]
    try:
        dists = sim.run_exact_template(plan.template, masks)
        compiled = synth.compile_template(plan.template)
        census_dict = _census_dict(census(compiled.fill(masks[0])))
        sampler = sim.plan_noisy_template(compiled, masks, cfg.shots) if cfg.shots > 0 else None
    except QsearchError as exc:
        raise _named(exc, masks, 0)
    oracles = [(mask, data_bits, dist.marginal(data_bits)) for mask, dist in zip(masks, dists)]
    return oracles, census_dict, request.oracle_calls, sampler


def _noise_model(cfg: ExperimentConfig) -> sim.NoiseModel:
    return sim.NoiseModel(**{k: float(v) for k, v in cfg.noise.items()})


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Build, simulate and analyze every oracle in the set."""
    request = cfg.validate()
    t0 = time.perf_counter()
    noise = _noise_model(cfg)
    return _report(cfg, noise, _exact_oracles(cfg, request), t0)


def _report(cfg: ExperimentConfig, noise: sim.NoiseModel, exact_oracles, t0: float) -> dict:
    """Sample every oracle under cfg's noise and seed when cfg.shots > 0, by
    one sample of the masks' noisy plan with a derived seed per mask, and
    analyze the runs; exact_oracles comes from _exact_oracles(cfg)."""
    oracles, census_dict, calls, sampler = exact_oracles
    masks = [mask for mask, _, _ in oracles]
    oracle_rows = []
    exact_runs: list[analysis.OracleRun] = []
    measured_runs: list[analysis.OracleRun] = []
    p_ts = []
    try:
        if cfg.shots > 0:
            seeds = [_derive_seed(cfg.seed, int(mask, 2)) for mask in masks]
            sampled = sampler.sample(noise, seeds)
        for i, (mask, data_bits, exact) in enumerate(oracles):
            dist = sampled[i].marginal(data_bits) if cfg.shots > 0 else exact
            p_t = exact.probability(int(mask, 2))
            p_ts.append(p_t)
            exact_runs.append(analysis.OracleRun(mask, exact))
            run = analysis.OracleRun(mask, dist)
            measured_runs.append(run)
            oracle_rows.append(
                {
                    "mask": mask,
                    "p_t": p_t,
                    "p_succ": analysis.success_probability(run),
                    "shots": cfg.shots or None,
                    "counts": run.distribution.counts.tolist()
                    if not run.distribution.exact
                    else None,
                    "exact_distribution": exact.probabilities.tolist(),
                }
            )
    except QsearchError as exc:
        raise _named(exc, masks, len(oracle_rows))

    p_t_avg = float(np.mean(p_ts))
    metrics = analysis.compile_metrics(measured_runs, p_t_avg, calls)
    relabeled_measured = analysis.relabel_average(measured_runs)
    relabeled_theory = analysis.relabel_average(exact_runs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": asdict(cfg),
        "oracles": oracle_rows,
        "p_t_average": p_t_avg,
        "relabeled_average": relabeled_measured.as_probabilities().tolist(),
        "relabeled_theoretical": relabeled_theory.as_probabilities().tolist(),
        "metrics": {
            "p_succ": metrics.p_succ,
            "p_succ_worst": metrics.p_succ_worst,
            "p_t": metrics.p_t,
            "r": metrics.r,
            "ci_low": metrics.ci[0],
            "ci_high": metrics.ci[1],
            "ci_method": "wilson-95",
            "oracle_calls_per_circuit": metrics.oracle_calls_per_circuit,
            # infinite when no run succeeded, which JSON cannot hold: null
            "expected_calls_quantum": metrics.expected_calls_quantum
            if isfinite(metrics.expected_calls_quantum) else None,
            "classical_single_call": metrics.classical_single_call,
            "classical_guess_call": metrics.classical_guess_call,
            "classical_expected_calls": metrics.classical_expected_calls,
        },
        "census": census_dict,
        "timing_seconds": round(time.perf_counter() - t0, 6),
    }
    return report


def _report_path(cfg: ExperimentConfig, outdir: Path) -> Path:
    return outdir / f"report_{cfg.family}_{cfg.n}q.json"


class _Unhandled(Exception):
    """A value _report_text leaves to json.dumps."""


def _report_text(report) -> str:
    """json.dumps(report, indent=2, sort_keys=True), character for character,
    with each distinct float formatted once.

    A report holds thousands of floats but few distinct values, and json's
    indenting encoder spends most of its time in float repr.  A dict with a
    key that is not exactly a str, a subclass of list, tuple or dict, any
    other type, and a structure too deep to recurse into go to json.dumps
    itself, which then writes or refuses the report as it always did.
    """
    floats: dict[float, str] = {}
    zeros = {1.0: float.__repr__(0.0), -1.0: float.__repr__(-0.0)}  # 0.0 == -0.0 as keys

    def number(v: float) -> str:
        text = floats.get(v)
        if text is None:
            if not v:  # NaN is truthy
                return zeros[copysign(1.0, v)]
            if v != v:  # json's forms of the non-finite values; NaN equals no key
                return "NaN"
            text = floats[v] = "Infinity" if v == inf else "-Infinity" if v == -inf \
                else float.__repr__(v)
        return text

    def value(o, indent: str) -> str:
        kind = type(o)
        if kind is float:
            return number(o)
        if kind is list or kind is tuple:
            if not o:
                return "[]"
            inner = indent + "  "
            items = [number(v) if type(v) is float else value(v, inner) for v in o]
            return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
        if kind is dict:
            if not o:
                return "{}"
            if not all(type(k) is str for k in o):
                raise _Unhandled
            inner = indent + "  "
            items = [f"{encode_basestring_ascii(k)}: {value(o[k], inner)}" for k in sorted(o)]
            return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
        # json's own order of tests, so subclasses of str, int and float go as json sends them
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return number(o)
        raise _Unhandled

    try:
        return value(report, "")
    except (_Unhandled, RecursionError):
        return json.dumps(report, indent=2, sort_keys=True)


def write_report(report: dict, path: Path) -> None:
    """Write json.dumps(report, indent=2, sort_keys=True) and a newline."""
    path.write_text(_report_text(report) + "\n")


def cmd_run(cfg: ExperimentConfig, outdir: Path) -> int:
    report = run_experiment(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    path = _report_path(cfg, outdir)
    write_report(report, path)
    m = report["metrics"]
    print(
        f"{path.name}: p_succ={m['p_succ']:.6g} p_t={m['p_t']:.6g} R={m['r']:.6g} "
        f"2q={report['census']['two_qubit_count']}"
    )
    return 0


def _sig6(v: float) -> str:
    return f"{v:.6g}"


def cmd_plot(report_path: Path, outdir: Path | None = None) -> int:
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"report: cannot read {report_path}: {exc}") from exc
    try:
        theory = report["relabeled_theoretical"]
        measured = report["relabeled_average"]
        n = report["config"]["n"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"report: {report_path} is not a qsearch report") from exc
    if not (_is_int(n) and 1 <= n <= 16 and all(
        isinstance(s, list) and len(s) == 1 << n
        and all(_is_number(p) and -inf < p < inf for p in s)  # NaN is not
        for s in (theory, measured)
    )):
        raise ConfigError(f"report: {report_path} has malformed relabeled averages")
    stem = report_path.with_suffix("")
    if outdir is not None:
        stem = outdir / stem.name
    csv_path = Path(f"{stem}.csv")
    tex_path = Path(f"{stem}.tex")
    lines = ["pattern,theoretical,measured"]
    for v in range(1 << n):
        lines.append(
            f"{format(v, f'0{n}b')},{_sig6(theory[v])},{_sig6(measured[v])}"
        )
    csv_path.write_text("\n".join(lines) + "\n")

    def coords(series):
        return " ".join(f"({v},{_sig6(p)})" for v, p in enumerate(series))

    tex = "\n".join(
        [
            r"\begin{tikzpicture}",
            r"\begin{axis}[",
            r"  ybar, bar width=2pt, xlabel={pattern (relabeled)},",
            r"  ylabel={probability}, ymin=0,",
            f"  xmin=-1, xmax={1 << n},",
            r"  legend style={at={(0.98,0.95)},anchor=north east}]",
            r"\addplot coordinates { " + coords(theory) + " };",
            r"\addplot coordinates { " + coords(measured) + " };",
            r"\legend{theoretical, measured}",
            r"\end{axis}",
            r"\end{tikzpicture}",
        ]
    )
    tex_path.write_text(tex + "\n")
    print(f"wrote {csv_path.name} and {tex_path.name}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, grid: list[float], outdir: Path) -> int:
    if not grid:
        raise ConfigError("grid: must be non-empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid: must be ascending")
    request = cfg.validate()
    if cfg.shots == 0:
        raise ConfigError("shots: a sweep samples each grid point, so it needs shots >= 1")
    points = []
    for i, p2 in enumerate(grid):
        point = replace(cfg, noise={**cfg.noise, "p2": p2}, seed=_derive_seed(cfg.seed, i))
        points.append((p2, point, _noise_model(point)))
    exact_oracles = _exact_oracles(cfg, request)  # once: only the noise and the seed vary by point
    rows = []
    for p2, point, noise in points:
        m = _report(point, noise, exact_oracles, time.perf_counter())["metrics"]
        rows.append((p2, m["p_succ"], m["r"]))
    lines = ["p2,p_succ,r"] + [f"{_sig6(a)},{_sig6(b)},{_sig6(c)}" for a, b, c in rows]
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"sweep_{cfg.family}_{cfg.n}q.csv"
    path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# argument handling -----------------------------------------------------------

def _number(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: bad number {text!r}") from exc


def _parse_noise(text: str) -> dict:
    out = {}
    alias = {"p1": "p1", "p2": "p2", "pm": "p_meas", "p_meas": "p_meas"}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"noise: bad entry {part!r}")
        k, v = part.split("=", 1)
        if k.strip() not in alias:
            raise ConfigError(f"noise: unknown rate {k.strip()!r}")
        rate = alias[k.strip()]
        if rate in out:
            raise ConfigError(f"noise: rate {rate!r} given twice in {text!r}")
        out[rate] = _number("noise", v)
    return out


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's fields, then each given flag over the field it names."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "grid")}
    raw: dict = {}
    path = flags.pop("config", None)
    if path:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config: {path} must hold a JSON object")
    cfg = ExperimentConfig()
    known = set(asdict(cfg))
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"config: unknown field {key!r}")
        setattr(cfg, key, value)
    if "oracle" in flags:  # --oracle-set wins over it
        flags.setdefault("oracle_set", [flags.pop("oracle")])
    if "partition" in flags:
        try:
            flags["partition"] = [int(p) for p in flags["partition"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"partition: bad value {flags['partition']!r}") from exc
    if "noise" in flags:
        if not isinstance(cfg.noise, dict):  # the flag's rates merge into the file's
            raise ConfigError(f"noise: must be an object of numbers, got {cfg.noise!r}")
        flags["noise"] = {**cfg.noise, **_parse_noise(flags["noise"])}
    for key, value in flags.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.out or os.environ.get("QSEARCH_OUT") or ".")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors follow the one-line error contract."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsearch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config")
    common.add_argument("--family", choices=families.FAMILIES)
    common.add_argument("--n", type=int)
    common.add_argument("--iterations", type=int)
    common.add_argument("--partition", help="comma list, e.g. 3,2")
    common.add_argument("--diffuser-size", type=int, dest="diffuser_size")
    common.add_argument("--oracle", help="single mask, e.g. 10110")
    common.add_argument("--oracle-set", dest="oracle_set", help="all | sample:k:seed")
    common.add_argument("--style", dest="oracle_style", choices=synth.ORACLE_STYLES)
    common.add_argument("--uncompute", choices=families.UNCOMPUTE_MODES)
    common.add_argument("--fused", action="store_true")
    common.add_argument("--shots", type=int)
    common.add_argument("--noise", help="p1=0,p2=0.01,pm=0.005")
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    sub.add_parser("build", parents=[common])
    sub.add_parser("run", parents=[common])
    sweep = sub.add_parser("sweep", parents=[common])
    sweep.add_argument("--grid", required=True, help="comma list of p2 values")
    plot = sub.add_parser("plot")
    plot.add_argument("report")
    plot.add_argument("--out")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """make_parser(), built once per process: parse_args keeps nothing
    from one call to the next."""
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "plot":
            outdir = Path(args.out) if args.out else None
            return cmd_plot(Path(args.report), outdir)
        cfg = load_config(args)
        outdir = _outdir(cfg)
        if args.command == "build":
            return cmd_build(cfg, outdir)
        if args.command == "run":
            return cmd_run(cfg, outdir)
        grid = [_number("grid", v) for v in args.grid.split(",")]
        return cmd_sweep(cfg, grid, outdir)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QsearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
