"""Host speed drift: two fixed kernels timed back to back.

    python3 perfbench/drift.py --seconds 200

Alternates a pure-Python kernel (`stroketok.metrics.levenshtein` on two
600-symbol strings) and a BLAS kernel (a loop of 256x256 matmuls) on one
thread, recording wall and process CPU time per call. Prints, per kernel,
the per-call swing, how process CPU time tracked wall time, and how far the
medians of non-overlapping 10 s, 60 s and 90 s windows spread (largest over
smallest). If CPU time tracks wall time, the host itself slowed down rather
than the scheduler taking time away.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from program import import_program  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=200)
    args = p.parse_args()
    import_program()
    from stroketok.metrics import levenshtein

    rng = np.random.default_rng(0)
    a, b = (list(rng.integers(0, 259, 600)) for _ in range(2))
    m = rng.normal(size=(256, 256))

    def py_kernel():
        levenshtein(a, b)

    def blas_kernel():
        x = m
        for _ in range(40):
            x = np.tanh(x @ m * 0.01)

    kernels = {"python": py_kernel, "blas": blas_kernel}
    samples = {k: [] for k in kernels}  # (start, wall, cpu)
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds:
        for name, fn in kernels.items():
            w0, c0 = time.perf_counter(), time.process_time()
            fn()
            samples[name].append((w0 - t_start, time.perf_counter() - w0, time.process_time() - c0))

    report = {}
    for name, rows in samples.items():
        wall = np.array([r[1] for r in rows])
        cpu = np.array([r[2] for r in rows])
        start = np.array([r[0] for r in rows])
        windows = {}
        for width in (10, 60, 90):
            meds = [
                float(np.median(wall[(start >= lo) & (start < lo + width)]))
                for lo in np.arange(0, args.seconds - width + 1e-9, width)
            ]
            if len(meds) >= 2:
                windows[f"{width}s"] = {"count": len(meds), "spread": max(meds) / min(meds)}
        report[name] = {
            "calls": len(rows),
            "median_call_s": float(statistics.median(wall)),
            "swing_p95_over_p5": float(np.percentile(wall, 95) / np.percentile(wall, 5)),
            "swing_max_over_min": float(wall.max() / wall.min()),
            "cpu_over_wall": float(cpu.sum() / wall.sum()),
            "window_median_spread": windows,
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
