"""Process set-up shared by run.py and its set-up probes.

Import this module before anything that imports numpy: it fixes the BLAS
thread count through the environment, which BLAS reads when it loads.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    pass


def import_cli():
    """Import ``qsearch.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qsearch" / "cli.py").is_file():
        raise MissingProgram(f"no qsearch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from qsearch import cli

    if Path(cli.__file__).resolve().parent != (SRC / "qsearch").resolve():
        raise MissingProgram(f"imported qsearch from {cli.__file__}, not from {SRC}")
    return cli


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seed_role: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seed_role": seed_role,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "blas_threads": {var: os.environ[var] for var in _BLAS_VARS},
        "platform": platform.platform(),
    }
