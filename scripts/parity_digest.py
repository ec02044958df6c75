#!/usr/bin/env python3
"""Print one SHA-256 over what building, compiling and exact simulation
produce for every small circuit, so that two checkouts can be compared.

For every family x oracle style x n = 1..max_n x the options the family
reads x mask (the block families at each uncompute mode and each
two-block partition (n-k2, k2), k2 = 1 and 2, that leaves block 1 a wire,
and wojter also fused; partial at diffuser size max(1, n-1); each option a
family does not read at its default), the digest covers the
`qasm.serialize` text of the built and of the compiled circuit, the
compiled census, and the raw bytes of the `run_exact` probabilities of
both.  A refused build adds its exception class and message instead.
Each option set's masks are filled from one `families.plan(request)`, as
`qsearch build` and `qsearch run` plan them, and each circuit is compiled
alone (`synth.compile`); a refused request, plan or fill comes before
the first circuit and is recorded for every mask.
With --noisy the digest also covers the raw bytes of the sampled counts
of every compiled circuit: NOISY_SHOTS shots at the rates in NOISE, each
mask seeded by its value, sampled by one `sim.run_noisy_template` call
over the same plan's compiled template (`synth.compile_template`), as
`qsearch run` samples, so two checkouts' trajectory samplers can be
compared too.  With --reports it also covers, per option set, the bytes
`cli.write_report` writes for the `run_experiment` report over every mask,
once exact-only and once at NOISY_SHOTS shots at NOISE, both at seed 0 and
with `timing_seconds` set to 0; a refused request adds its exception class
and message instead.  Run it once with each checkout's `src` on PYTHONPATH
and compare the two lines:

    PYTHONPATH=src python3 scripts/parity_digest.py --max-n 5
    PYTHONPATH=src python3 scripts/parity_digest.py --noisy --max-n 4
    PYTHONPATH=src python3 scripts/parity_digest.py --reports --max-n 4
"""
import argparse
import dataclasses
import hashlib
import itertools
import tempfile
from pathlib import Path

from qsearch import cli, families, qasm, sim, synth
from qsearch.circuit import census
from qsearch.errors import QsearchError
from qsearch.families import FamilyRequest, Partition
from qsearch.synth import OracleSpec

NOISE = sim.NoiseModel(p1=0.01, p2=0.02, p_meas=0.03)
NOISY_SHOTS = 64


def partitions(n: int) -> list:
    """The partitions a block family is built at for n: (n-1, 1) and (n-2, 2)
    while block 1 keeps a wire, and at n = 1 none, which it refuses."""
    return [[n - k2, k2] for k2 in (1, 2) if n - k2 >= 1] or [None]


def option_sets(max_n: int):
    """(family, style, n, uncompute mode, fused, partition) in a fixed order,
    each option at its default where the family does not read it."""
    for family, style, n in itertools.product(
        families.FAMILIES, synth.ORACLE_STYLES, range(1, max_n + 1)
    ):
        if family not in families.BLOCK_FAMILIES:
            yield family, style, n, "partial", False, None
            continue
        for partition in partitions(n):
            for uncompute in families.UNCOMPUTE_MODES:
                yield family, style, n, uncompute, False, partition
            if family == "wojter":
                yield family, style, n, "partial", True, partition


def report_bytes(family: str, style: str, n: int, uncompute: str, fused: bool,
                 partition: list | None, shots: int) -> bytes:
    """What `cli.write_report` writes for one option set's report over every
    mask, with its timing zeroed; or the refusal's class and message."""
    cfg = cli.ExperimentConfig(
        family=family, n=n, oracle_style=style, uncompute=uncompute, fused=fused, shots=shots,
        noise=dataclasses.asdict(NOISE if shots else sim.NoiseModel()),
        partition=partition,
        diffuser_size=max(1, n - 1) if family == "partial" else None,
    )
    try:
        report = cli.run_experiment(cfg)
    except QsearchError as exc:
        return f"{type(exc).__name__}: {exc}\n".encode()
    report["timing_seconds"] = 0.0
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "report.json"
        cli.write_report(report, path)
        return path.read_bytes()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5, help="largest search width (default 5)")
    parser.add_argument("--noisy", action="store_true",
                        help="also digest seeded sampled counts of every compiled circuit")
    parser.add_argument("--reports", action="store_true",
                        help="also digest the written exact and sampled report of every option set")
    args = parser.parse_args()
    digest = hashlib.sha256()
    built = 0
    for family, style, n, uncompute, fused, partition in option_sets(args.max_n):
        if args.reports:
            for shots in (0, NOISY_SHOTS):
                digest.update(report_bytes(family, style, n, uncompute, fused, partition, shots))
        masks = [format(v, f"0{n}b") for v in range(1 << n)]
        try:
            request = FamilyRequest(
                family, OracleSpec(n, masks[0], style),
                partition=None if partition is None else Partition(tuple(partition)),
                diffuser_size=max(1, n - 1) if family == "partial" else None,
                uncompute=uncompute, fused=fused,
            )
            plan = families.plan(request)
            circuits = [plan.fill(mask) for mask in masks]
            if args.noisy:
                sampled = sim.run_noisy_template(
                    synth.compile_template(plan.template), masks, NOISE,
                    NOISY_SHOTS, [int(mask, 2) for mask in masks])
        except QsearchError as exc:
            circuits = [exc] * len(masks)
        for i, (mask, circuit) in enumerate(zip(masks, circuits)):
            digest.update(f"{family} {style} {n} {uncompute} {fused} {partition} {mask}\n".encode())
            if isinstance(circuit, QsearchError):
                digest.update(f"{type(circuit).__name__}: {circuit}\n".encode())
                continue
            compiled = synth.compile(circuit)
            for c in (circuit, compiled):
                digest.update(qasm.serialize(c).encode())
                digest.update(sim.run_exact(c).probabilities.tobytes())
            digest.update(f"{census(compiled)!r}\n".encode())
            if args.noisy:
                digest.update(sampled[i].counts.tobytes())
            built += 1
    noisy = f", noisy {NOISY_SHOTS} shots" if args.noisy else ""
    reports = ", reports" if args.reports else ""
    print(f"{digest.hexdigest()}  {built} circuits, n <= {args.max_n}{noisy}{reports}")


if __name__ == "__main__":
    main()
