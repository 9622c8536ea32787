"""Regenerate the stored reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Writes ``perfbench/refs/<workload>.npz`` for input sets 0..REF_COUNT-1,
each from one serial call (the study at jobs=1, which the timed jobs=2
calls must then match).  Refuses to store a run in which any world failed,
because the workloads are chosen so that none does.  Run it only when the
program's outputs change on purpose, and say so in the change.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402


def make(name: str) -> None:
    arrays = {}
    for k in range(bench.REF_COUNT):
        wl = bench.WORKLOADS[name]()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            wl.setup(k, Path(tmp))
            outputs, failures = wl.outputs(wl.call(serial=True))
        if outputs is None or (failures and any(failures.values())):
            raise SystemExit(f"{name} input set {k}: failed worlds {failures}")
        for key, value in outputs.items():
            arrays[f"k{k:02d}_{key}"] = np.asarray(value, dtype=np.float64)
        print(f"{name} input set {k} done", file=sys.stderr, flush=True)
    bench.REF_DIR.mkdir(exist_ok=True)
    np.savez_compressed(bench.REF_DIR / f"{name}.npz", **arrays)


if __name__ == "__main__":
    for name in sys.argv[1:] or list(bench.WORKLOADS):
        make(name)
