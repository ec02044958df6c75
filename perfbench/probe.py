"""Set-up probe: import qsearch, send the workload's warm-up request, say "ready".

run.py starts this script several times and times each
start up to the "ready" line; the median is the workload's ``setup_s``.
Usage: python3 perfbench/probe.py <workload> <output directory>
"""
import env  # first: fixes the BLAS thread count before numpy loads

import contextlib
import io
import sys

from workloads import WARMUP


def main() -> int:
    workload, outdir = sys.argv[1], sys.argv[2]
    cli = env.import_cli()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(WARMUP[workload] + ["--out", outdir])
    print("ready" if rc == 0 else f"warm-up failed with exit code {rc}", flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
