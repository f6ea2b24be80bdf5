"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py                       # every workload, seeds 1..10
    python3 bench/spread.py --workloads stability-saa --seeds 1 2 3 4 5
    python3 bench/spread.py --trace 1 --seeds 0   # one traced run per workload

Runs the command of BENCHMARK.json once per (workload, seed), one at a
time, and keeps each run's result line in .bench_results/.  For every
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median, next to the metric's bound and a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            runs.append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{shown if not args.trace else ''}", flush=True)
        shares = [f"{r['failed']}/{r['attempted']}" for r in runs]
        print(f"== {workload}: failed/attempted = {shares}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {m['name']:45s} median {med:.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bound} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
