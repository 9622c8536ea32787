"""nerboot benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
breakdown with ``--trace 1``.  The line before it records machine facts.
Exit code 0 means every output matched its stored reference.
"""

import os
import sys

# One BLAS thread per process, fixed before numpy loads, so that jobs=2 means
# two busy cores rather than two processes each running a thread pool.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import time  # noqa: E402

T_START = time.perf_counter()  # set-up probes count from here

import argparse  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

RUN_PY = Path(__file__).resolve()
ROOT = RUN_PY.parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the seconds since start (used internally)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "nerboot" / "__init__.py").is_file():
        print(f"error: no nerboot sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.setup_probe:
            bench.WORKLOADS[args.workload]().setup(args.seed % bench.REF_COUNT, workdir)
            print(time.perf_counter() - T_START)
            return 0
        result = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), RUN_PY, workdir
        )
    print("# machine " + json.dumps(bench.machine_facts()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
