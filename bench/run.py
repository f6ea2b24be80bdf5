"""Run one benchmark workload of ``meanrisk`` and print its metrics.

    python3 bench/run.py --workload eval-recourse --seed 0 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` and written as JSON
files; every operation then goes through the public CLI in-process
(``meanrisk.cli.main``), imported from ``src/`` of the checkout this file
sits in.  Outputs are checked (checks.py) outside the timed passes.

``--trace 0`` times passes for ``--seconds`` and reports the end-to-end
metrics: ``pass_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes (spans.py) and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries reference figures (raw wall times, pass counts).
"""

from __future__ import annotations

import os

# Single-threaded BLAS; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The reference loop's median time on the machine the benchmark was tuned
# on (2-core x86-64 VM, Python 3.11, numpy 2.4); pass and set-up times are
# scaled by REF_NOMINAL_S / (loop time around them), so they read as
# seconds at that machine's usual speed.
REF_PY_ITERS = 12000
REF_ARRAY_ITERS = 60
REF_NOMINAL_S = 0.085

# Fresh processes whose set-up time is measured in each --trace 0 run.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def reference_loop() -> float:
    """Wall time of a fixed mix of work that uses nothing from meanrisk; it
    tracks the machine's current speed.  About half is plain Python with
    8-element numpy arrays (the interpreter-bound side of the workloads),
    half is fresh 4 MB arrays and 96 x 96 matrix products (the memory- and
    BLAS-bound side); with both halves the loop follows run-level swings in
    pass time more closely than either half alone."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    a = np.arange(8.0)
    for i in range(REF_PY_ITERS):
        k = i & 63
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += float((a * k).sum()) + len(str(k))
    m = np.full((96, 96), 1.0)
    for _ in range(REF_ARRAY_ITERS):
        acc += float(np.ones(1 << 19).sum())
        acc += float((m @ m).trace())
    return time.perf_counter() - t0


def import_cli():
    """``meanrisk.cli`` from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import meanrisk.cli
    except ImportError as err:
        sys.exit(f"bench: cannot import meanrisk from {SRC}: {err}")
    if not Path(meanrisk.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: meanrisk came from {meanrisk.cli.__file__}, not {SRC}")
    return meanrisk.cli


def run_pass(cli, ops) -> list:
    """Run every operation once; one (exit code, stdout, stderr) each.  An
    exception escaping the CLI counts as a failed operation."""
    results = []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
                code = f"{type(exc).__name__}: {exc}"
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def read_reports(wl: workloads.Workload) -> dict:
    if wl.out_dir is None:
        return {}
    reports = {}
    for name in checks.REPORT_FILES:
        path = os.path.join(wl.out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                reports[name] = fh.read()
    return reports


def stdouts(results) -> list:
    """Stdout of each operation, ``None`` where it failed."""
    return [out if code == 0 else None for code, out, _ in results]


def verify(cli, wl: workloads.Workload, reference) -> list:
    """Check the reference pass against computations made apart from the
    program.  Runs extra untimed CLI calls where a check needs them."""
    outs = stdouts(reference)
    if wl.name == "eval-recourse":
        return checks.check_eval(wl.files, list(workloads.MODELS), outs)
    if wl.name == "metrics-pairs":
        swapped = [
            workloads.metric_argv(wl.files, kind, q, pair, swap=True)
            for kind, q, pair in workloads.METRIC_OPS
        ]
        return checks.check_metrics(wl.files, outs, stdouts(run_pass(cli, swapped)))
    if outs[0] is None:
        return []
    first = read_reports(wl)
    run_pass(cli, wl.ops)
    return checks.check_stability(outs[0], first, read_reports(wl), workloads.SAA_SCHEDULE)


class Tally:
    """Operations attempted and failed in the measured passes, and any
    output that differs from the checked reference pass."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.want = [(code, out) for code, out, _ in reference]
        self.want_reports = read_reports(wl)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, results):
        for i, (code, out, err) in enumerate(results):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.error(f"operation {i} failed ({code}): {err.strip()[-300:]}")
            elif (code, out) != self.want[i]:
                self.error(f"operation {i}: output differs from the checked pass")
        if self.wl.out_dir is not None and read_reports(self.wl) != self.want_reports:
            self.error("reports differ from the checked pass")

    def error(self, text):
        if len(self.errors) < 20:
            self.errors.append(text)


def probe_setup(args) -> list:
    """Set-up time of SETUP_PROBES fresh processes, each from spawn until
    it would start its first timed pass, as (raw, scaled) pairs."""
    samples = []
    for _ in range(SETUP_PROBES):
        gc.collect()
        ref_before = reference_loop()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
        )
        ref_after = reference_loop()
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        raw = float(lines[1]) - t0
        samples.append((raw, raw * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))))
    return samples


def timed_run(args, cli, wl, tally) -> tuple:
    probes = probe_setup(args)
    raw, scaled, refs = [], [], []
    gc.collect()
    ref_prev = reference_loop()
    refs.append(ref_prev)
    deadline = time.perf_counter() + args.seconds
    while not raw or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        results = run_pass(cli, wl.ops)
        dt = time.perf_counter() - t0
        tally.add(results)
        gc.collect()
        ref_next = reference_loop()
        raw.append(dt)
        scaled.append(dt * REF_NOMINAL_S / (0.5 * (ref_prev + ref_next)))
        refs.append(ref_next)
        ref_prev = ref_next
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pass_s": {"value": statistics.median(scaled), "unit": "s"},
        "setup_s": {"value": statistics.median(s for _, s in probes), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    info = {
        "passes": len(raw),
        "pass_raw_s_median": statistics.median(raw),
        "pass_raw_s": raw,
        "ref_loop_s": refs,
        "setup_raw_s": [r for r, _ in probes],
        "setup_scaled_s": [s for _, s in probes],
    }
    return metrics, info


def traced_run(args, cli, wl, tally) -> tuple:
    untraced, traced, summaries = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        gc.collect()
        t0 = time.perf_counter()
        results = run_pass(cli, wl.ops)
        untraced.append(time.perf_counter() - t0)
        tally.add(results)
        gc.collect()
        with spans.Tracer() as tracer:
            t0 = time.perf_counter()
            results = run_pass(cli, wl.ops)
            traced.append(time.perf_counter() - t0)
        tally.add(results)
        summaries.append(tracer.summary())
    for name in spans.COUNT_METRICS:
        if name in summaries[0] and any(s[name] != summaries[0][name] for s in summaries):
            tally.error(f"{name} differs between traced passes")
    metrics = {}
    for name, unit, _ in spans.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif unit == "s":
            value = statistics.median(s[name] for s in summaries)
        else:
            value = summaries[0][name]
        metrics[name] = {"value": value, "unit": unit}
    info = {
        "passes": len(traced),
        "untraced_pass_s_median": statistics.median(untraced),
        "traced_pass_s_median": statistics.median(traced),
        "spans_per_pass": len(tracer.spans),
    }
    return metrics, info


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up pass, print READY <monotonic time>, exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.generate(args.workload, args.seed, str(workdir))
        reference = run_pass(cli, wl.ops)
        if args.setup_probe:
            print("READY", repr(time.monotonic()))
            return 0
        errors = verify(cli, wl, reference)
        tally = Tally(wl, reference)
        run = traced_run if args.trace else timed_run
        metrics, info = run(args, cli, wl, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    errors += tally.errors
    for line in errors:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
