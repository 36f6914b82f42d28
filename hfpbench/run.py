"""hfpquad benchmark entry point.

    python3 hfpbench/run.py --workload floor-sweep --seed 1 --seconds 10 --trace 0

Runs one workload (floor-sweep, paper-tables or ie-solve) as a closed loop
from one process: each op starts when the previous one has finished.  The
seed fixes the op list; --seconds sizes it (see workloads.py).  Every op is
checked against its correctness gate.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
every op twice, traced and untraced in alternating order, and reports the
per-layer metrics, the tracing overhead and the span coverage of each op.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The op manifest, the
result and (traced) the spans are written to hfpbench/out/.  The exit code
is 0 only when every op passed its gate.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: BLAS threads for every measured process; the load itself is one thread
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: each of these silently switches the code path being measured
REFUSED_ENV = ("HFPQUAD_BACKEND", "HFPQUAD_THREADS")

WORKLOAD_NAMES = ("floor-sweep", "paper-tables", "ie-solve")


def prepare_env():
    """Refuse code-path switches, pin BLAS threads, put src/ on the path.

    Runs before numpy is imported, which reads the BLAS thread variables.
    """
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        raise SystemExit(
            f"refusing to run: {', '.join(refused)} is set and changes the measured code path"
        )
    if not (SRC / "hfpquad" / "__init__.py").is_file():
        raise SystemExit(f"hfpquad sources not found under {SRC}; run from a repository checkout")
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes that runner.measure_setup times
    parser.add_argument("--probe", choices=("import", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_env()
    import runner

    return runner.main(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
