"""The benchmark's workloads: lists of `qsearch` CLI requests drawn from a seed.

A workload is a fixed list of rows sent round-robin by one closed-loop
client.  The workload seed picks every sampled oracle mask (passed to the
program as a config ``oracle_set`` list) and every request's ``--seed``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

RELPHASE = "ancilla-relphase"
README_NOISE = "p1=0,p2=0.01,pm=0.005"


@dataclass(frozen=True)
class Row:
    """One kind of request: a `qsearch run` or `qsearch build` invocation."""

    command: str
    family: str
    n: int
    style: str = "plain-mcz"
    partition: tuple[int, ...] | None = None
    diffuser_size: int | None = None
    fused: bool = False
    masks: tuple[str, ...] | None = None  # None: --oracle-set all
    shots: int = 0
    noise: str | None = None
    control: bool = False

    @property
    def label(self) -> str:
        parts = [self.command, self.family, f"n{self.n}", self.style]
        if self.partition:
            parts.append("p" + "-".join(map(str, self.partition)))
        if self.diffuser_size:
            parts.append(f"k{self.diffuser_size}")
        if self.fused:
            parts.append("fused")
        if self.control:
            parts.append("control")
        return ":".join(parts)

    def mask_list(self) -> list[str]:
        if self.masks is None:
            return [format(v, f"0{self.n}b") for v in range(1 << self.n)]
        return list(self.masks)

    @property
    def oracle_count(self) -> int:
        return len(self.mask_list())

    def flags(self) -> list[str]:
        out = ["--family", self.family, "--n", str(self.n), "--style", self.style]
        if self.partition:
            out += ["--partition", ",".join(map(str, self.partition))]
        if self.diffuser_size:
            out += ["--diffuser-size", str(self.diffuser_size)]
        if self.fused:
            out.append("--fused")
        if self.shots:
            out += ["--shots", str(self.shots)]
        if self.noise:
            out += ["--noise", self.noise]
        return out

    def argv(self, config: Path | None, seed: int, outdir: Path, command: str | None = None) -> list[str]:
        cmd = command or self.command
        out = [cmd] + self.flags()
        out += ["--config", str(config)] if self.masks is not None else ["--oracle-set", "all"]
        if cmd == "run":
            out += ["--seed", str(seed)]
        return out + ["--out", str(outdir)]


def _sample(rng: random.Random, n: int, k: int) -> tuple[str, ...]:
    return tuple(format(v, f"0{n}b") for v in sorted(rng.sample(range(1 << n), k)))


def compile_exact(rng: random.Random) -> list[Row]:
    part = (3, 2)
    rows = [Row("run", "grover", n) for n in range(2, 7)]
    rows += [
        Row("run", "grover", 5, RELPHASE),
        Row("run", "partial", 4, diffuser_size=3),
        Row("run", "partial", 6, diffuser_size=3),
        Row("run", "wojter", 5, RELPHASE, part),
        Row("run", "wojter", 5, RELPHASE, part, fused=True),
        Row("run", "drzewker", 5, RELPHASE, part),
        Row("run", "wojter-aa", 5, RELPHASE, part),
        Row("run", "partial-drzewker", 5, RELPHASE, part),
        Row("run", "wielomianer", 4),
        Row("run", "grover", 5, "measurement-assisted"),
        Row("build", "grover", 8, masks=_sample(rng, 8, 2)),
        Row("build", "grover", 9, masks=_sample(rng, 9, 1)),
    ]
    return rows


def paper_noisy(rng: random.Random) -> list[Row]:
    return [
        Row("run", "grover", 3, shots=400, noise=README_NOISE),
        Row("run", "drzewker", 5, RELPHASE, (3, 2), masks=("10110",), shots=600, noise="p2=0.01"),
        Row("run", "wielomianer", 4, masks=_sample(rng, 4, 2), shots=400, noise="p2=0.01,pm=0.005"),
        Row("run", "grover", 3, masks=_sample(rng, 3, 1), shots=2000,
            noise="p1=0,p2=0,pm=0", control=True),
    ]


def wide_noisy(rng: random.Random) -> list[Row]:
    return [
        Row("run", "grover", 6, RELPHASE, masks=_sample(rng, 6, 1), shots=160, noise="p2=0.01"),
        Row("run", "grover", 7, RELPHASE, masks=_sample(rng, 7, 1), shots=80, noise="p2=0.01"),
    ]


WORKLOADS = {
    "compile-exact": compile_exact,
    "paper-noisy": paper_noisy,
    "wide-noisy": wide_noisy,
}

# A small fixed request that loads every module and fills the simulator's
# caches before the first timed request.
WARMUP = {
    "compile-exact": ["run", "--family", "grover", "--n", "3", "--oracle-set", "all"],
    "paper-noisy": ["run", "--family", "grover", "--n", "3", "--oracle", "101",
                    "--shots", "64", "--noise", README_NOISE],
    "wide-noisy": ["run", "--family", "grover", "--n", "7", "--style", RELPHASE,
                   "--oracle", "0000000", "--shots", "8", "--noise", "p2=0.01"],
}


class Plan:
    """A workload's rows, their config files and its stream of request seeds."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.rows = WORKLOADS[workload](self.rng)
        self.configs: list[Path | None] = []
        for i, row in enumerate(self.rows):
            if row.masks is None:
                self.configs.append(None)
                continue
            path = workdir / f"row{i}.json"
            path.write_text(json.dumps({"oracle_set": list(row.masks)}))
            self.configs.append(path)

    def next_seed(self) -> int:
        return self.rng.randrange(1 << 31)
