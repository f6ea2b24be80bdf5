"""Self-tests of the benchmark's checkers, without the timed loop.

    python3 -m pytest -q bench/test_checks.py

Each checker must accept the program's output on a seed other than the
default one, and reject a planted wrong value.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

import checks
import run
import spans
import workloads

SEED = 7  # the benchmark's default seed is 0


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture
def workdir():
    path = run.WORK / f"selftest-{os.getpid()}"
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


def test_eval_accepts_program_and_rejects_q_off_by_1e_6(cli, workdir):
    wl = workloads.generate("eval-recourse", SEED, workdir)
    outs = run.stdouts(run.run_pass(cli, wl.ops))
    kinds = list(workloads.MODELS)
    assert checks.check_eval(wl.files, kinds, outs) == []

    for i, kind in enumerate(kinds):
        planted = json.loads(outs[i])
        planted["q"][1] += 1e-6
        bad = list(outs)
        bad[i] = json.dumps(planted)
        errors = checks.check_eval(wl.files, kinds, bad)
        assert errors and all(e.startswith(f"eval {kind}: Q off") for e in errors), errors


def test_metrics_accepts_program_and_rejects_w1_as_bl(cli, workdir):
    wl = workloads.generate("metrics-pairs", SEED, workdir)
    outs = run.stdouts(run.run_pass(cli, wl.ops))
    swapped_ops = [
        workloads.metric_argv(wl.files, kind, q, pair, swap=True)
        for kind, q, pair in workloads.METRIC_OPS
    ]
    swapped = run.stdouts(run.run_pass(cli, swapped_ops))
    assert checks.check_metrics(wl.files, outs, swapped) == []

    bl = workloads.METRIC_OPS.index(("bl", 1.0, "big"))
    w1 = workloads.METRIC_OPS.index(("wasserstein", 1.0, "big"))
    assert outs[bl] != outs[w1]
    bad, bad_swapped = list(outs), list(swapped)
    bad[bl], bad_swapped[bl] = outs[w1], swapped[w1]
    errors = checks.check_metrics(wl.files, bad, bad_swapped)
    assert len(errors) == 1 and errors[0].startswith("metrics bl"), errors


def _plant_row(reports: dict, step: int) -> dict:
    """Reports with delta_phi_abs > sup_delta_q at ``step``, in both the
    CSV and the JSON, so only the property check can catch it."""
    doc = json.loads(reports["report.json"])
    row = doc["rows"][step]
    row[4] = row[5] + 0.01
    lines = reports["report.csv"].decode().splitlines()
    fields = lines[step + 1].split(",")
    fields[4] = repr(row[4])
    lines[step + 1] = ",".join(fields)
    planted = dict(reports)
    planted["report.json"] = json.dumps(doc).encode()
    planted["report.csv"] = ("\n".join(lines) + "\n").encode()
    return planted


def test_stability_accepts_program_and_rejects_phi_drift_above_sup(cli, workdir):
    wl = workloads.generate("stability-saa", SEED, workdir)
    stdout = run.stdouts(run.run_pass(cli, wl.ops))[0]
    first = run.read_reports(wl)
    run.run_pass(cli, wl.ops)
    second = run.read_reports(wl)
    assert checks.check_stability(stdout, first, second, workloads.SAA_SCHEDULE) == []

    planted = _plant_row(first, 2)
    errors = checks.check_stability(stdout, planted, planted, workloads.SAA_SCHEDULE)
    assert len(errors) == 1 and "delta_phi_abs" in errors[0], errors


def test_tracer_counts_repeat_and_originals_return(cli, workdir):
    import meanrisk.metrics
    import meanrisk.optim

    original = meanrisk.optim.solve_lp
    wl = workloads.generate("metrics-pairs", SEED, workdir)
    summaries = []
    for _ in range(2):
        with spans.Tracer() as tracer:
            assert run.stdouts(run.run_pass(cli, wl.ops[:2]))[0] is not None
        summaries.append(tracer.summary())
    assert meanrisk.optim.solve_lp is original
    assert meanrisk.metrics.optim.solve_lp is original
    assert summaries[0]["metrics.bounded_lipschitz.calls"] == 2  # bl, and psi through bl
    for name in spans.COUNT_METRICS:
        if name in summaries[0]:
            assert summaries[0][name] == summaries[1][name], name
