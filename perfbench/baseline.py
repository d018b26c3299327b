"""Record a baseline: every workload on several seeds, plus one traced run.

Run from the repository root:

    python3 perfbench/baseline.py                 # 10 seeds, all workloads
    python3 perfbench/baseline.py --workloads search --seeds 1,2,3,4,5

Each run is `perfbench/run.py` in its own process, one after another.  For
every end-to-end metric the file keeps the values, their median and the
quartile spread (third minus first quartile over the median, as
`statistics.quantiles(values, n=4)` gives them).  The traced run uses the
first seed.  The result goes to perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, "
          f"{proc.stderr.strip().splitlines()[0]}", file=sys.stderr, flush=True)
    return result


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default=",".join(str(s) for s in range(101, 111)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    record = {
        "program_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": args.seconds,
        "seeds": seeds,
        "times": "scaled to a host where one reference() call of perfbench/speed.py "
                 f"takes {REFERENCE_S} s; raw figures are on each run's stderr",
        "op_p90_ms": "90th percentile of the run's op latencies, "
                     "statistics.quantiles(latencies, n=10, method='inclusive')[8]",
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run(workload, seeds[0], args.seconds, 1)
        record["workloads"][workload] = {
            "ops_per_run": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "samples_beyond_p90": [r["attempted"] // 10 for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "end_to_end": summarize(runs),
            "traced": {"seed": seeds[0], "correct": traced["correct"],
                       "attempted": traced["attempted"], "failed": traced["failed"],
                       "wall_s": traced["wall_s"], "per_layer": traced["metrics"]},
        }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for workload, rec in record["workloads"].items():
        for name, m in rec["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {m['median']:.6g} {m['unit']:5s} "
                  f"spread {m['spread']:.3f}")


if __name__ == "__main__":
    main()
