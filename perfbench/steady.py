"""Steadiness runs: the benchmark command over several seeds, with quartiles.

    python3 perfbench/steady.py --workloads short-corpus,long-corpus,long-generate \
        --seeds 1-10 --seconds 40 --out perfbench/out/set1.json

Runs `run.py` once per seed and workload, one run at a time, cycling
through the workloads for each seed so that every workload's runs spread
over the whole set. Prints, per workload and end-to-end metric, the
median, the quartiles and the spread (distance between the quartiles as a
share of the median, from `statistics.quantiles(values, n=4)`), and writes
the raw results to --out.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated")
    p.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    names = args.workloads.split(",")
    results = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[name].append(result)
            print(f"{name} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  flush=True)
    out = {}
    for name, runs in results.items():
        out[name] = {"runs": runs, "summary": summarize(runs)}
        print(f"== {name}: failed share {[r['failed'] / r['attempted'] for r in runs]}")
        for metric, s in out[name]["summary"].items():
            print(f"{metric:24s} {s['median']:12.6g} {s['unit']:10s} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.3f}")
    Path(args.out).write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
