"""Correctness checks for the benchmark's workloads.

Every check here is computed apart from ``meanrisk``: closed forms in
numpy, transport and assignment problems through ``scipy.optimize``, and
properties the stability method must have.  Each checker returns a list of
error strings; an empty list means the outputs were accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import scipy.optimize
import scipy.sparse

from workloads import METRIC_OPS

EVAL_TOL = 1e-8
METRIC_TOL = 1e-9
ARGMIN_TOL = 1e-8  # the CLI's default --tol
REPORT_FILES = ("report.csv", "report.json", "report.svg")
STABILITY_COLUMNS = ["step", "param", "d_bl", "d_psi", "delta_phi_abs", "sup_delta_q",
                     "argmin_excess", "error"]


def load_measure(path: str):
    """Points (k, dim) and weights (k,) of a measure file, weights
    normalized to sum to one."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    points = np.array([a["point"] for a in data["atoms"]], dtype=float)
    weights = np.array([a["weight"] for a in data["atoms"]], dtype=float)
    return points, weights / weights.sum()


# ---------------------------------------------------------------------------
# eval-recourse: closed forms of the four recourse families
# ---------------------------------------------------------------------------


def avar_sorted(values: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """(1/(1-alpha)) int_alpha^1 F^-1(beta) dbeta from the sorted values."""
    order = np.argsort(values)
    v, w = values[order], weights[order]
    upper = np.cumsum(w)
    lower = upper - w
    share = np.clip(np.minimum(upper, 1.0) - np.maximum(lower, alpha), 0.0, None)
    return float(share @ v) / (1.0 - alpha)


def miqp_value(x: float, z: np.ndarray) -> np.ndarray:
    """min { y^2 + (x - z) y : y integer, max(-z, -600) <= y <= 1100 },
    by brute force over every admissible integer."""
    ys = np.arange(-600.0, 1101.0)
    vals = ys[None, :] ** 2 + (x - z)[:, None] * ys[None, :]
    vals[ys[None, :] < -z[:, None]] = np.inf
    return vals.min(axis=1)


def closed_form_q(kind: str, decisions: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = []
    for x in decisions[:, 0]:
        if kind == "linear":
            out.append(avar_sorted(np.abs(x - z), w, 0.5))
        elif kind == "milp":
            out.append(float(np.maximum(0.0, np.ceil(z)) @ w))
        elif kind == "miqp":
            out.append(float(miqp_value(x, z) @ w))
        elif kind == "convex_mip":
            f = (7.0 - np.minimum(7.0, np.floor(np.abs(z) + 1.0))) ** 2
            out.append(float(f @ w))
        else:
            raise ValueError(f"no closed form for {kind!r}")
    return np.array(out)


def check_eval(files: dict, kinds, outputs) -> list:
    """``outputs[i]`` is the stdout of ``eval --all`` for model ``kinds[i]``,
    or ``None`` if that operation failed (it is then not checked)."""
    errors = []
    points, weights = load_measure(files["measure"])
    z = points[:, 0]
    for kind, text in zip(kinds, outputs):
        if text is None:
            continue
        try:
            got = json.loads(text)
        except json.JSONDecodeError as err:
            errors.append(f"eval {kind}: stdout is not JSON ({err})")
            continue
        decisions = np.array(got["decisions"], dtype=float)
        want = closed_form_q(kind, decisions, z, weights)
        q = np.array(got["q"], dtype=float)
        gap = np.max(np.abs(q - want))
        if not gap <= EVAL_TOL:
            errors.append(f"eval {kind}: Q off the closed form by {gap:.3e}")
        if not abs(got["phi"] - want.min()) <= EVAL_TOL:
            errors.append(f"eval {kind}: phi {got['phi']!r} vs closed form {want.min()!r}")
        # A decision within round-off of the tolerance edge may go either way.
        edge = want.min() + ARGMIN_TOL
        must = {tuple(d) for d, v in zip(decisions, want) if v <= edge - EVAL_TOL}
        may = {tuple(d) for d, v in zip(decisions, want) if v <= edge + EVAL_TOL}
        arg = {tuple(float(c) for c in d) for d in got["argmin"]}
        if not (must <= arg <= may):
            errors.append(f"eval {kind}: argmin {sorted(arg)} vs closed form {sorted(must)}")
    return errors


# ---------------------------------------------------------------------------
# metrics-pairs: transport and CDF computations through scipy/numpy
# ---------------------------------------------------------------------------


def w1_cdf(mu, nu) -> float:
    """1-D W1 = int |F_mu - F_nu| dt over the merged support."""
    (p1, w1), (p2, w2) = mu, nu
    grid = np.union1d(p1[:, 0], p2[:, 0])
    f1 = np.array([w1[p1[:, 0] <= t].sum() for t in grid])
    f2 = np.array([w2[p2[:, 0] <= t].sum() for t in grid])
    return float(np.abs(f1 - f2)[:-1] @ np.diff(grid))


def transport_cost(w_src, w_dst, cost: np.ndarray) -> float:
    """Minimum-cost coupling by ``scipy.optimize.linprog`` on sparse
    marginal constraints."""
    n_s, n_d = cost.shape
    rows = scipy.sparse.vstack(
        [
            scipy.sparse.kron(scipy.sparse.eye(n_s), np.ones((1, n_d))),
            scipy.sparse.kron(np.ones((1, n_s)), scipy.sparse.eye(n_d)),
        ]
    ).tocsr()
    res = scipy.optimize.linprog(
        cost.reshape(-1),
        A_eq=rows,
        b_eq=np.concatenate([w_src, w_dst]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def bl_transport(mu, nu) -> float:
    """Bounded-Lipschitz distance as W1 under the cost min(|x - y|, 2)."""
    (p1, w1), (p2, w2) = mu, nu
    d = np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=2)
    return transport_cost(w1, w2, np.minimum(d, 2.0))


def w2_assignment(mu, nu) -> float:
    """W2 of two uniform n-atom measures by optimal assignment."""
    (p1, _), (p2, _) = mu, nu
    cost = np.sum((p1[:, None, :] - p2[None, :, :]) ** 2, axis=2)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].mean()))


def moment(measure, q: float) -> float:
    points, weights = measure
    return float(np.linalg.norm(points, axis=1) ** q @ weights)


def check_metrics(files: dict, outputs, swapped) -> list:
    """``outputs[i]`` / ``swapped[i]`` are the stdouts of METRIC_OPS[i] with
    the two measures in given / reversed order, ``None`` where the
    operation failed (it is then not checked)."""
    errors = []
    measures = {}

    def pair(tag):
        if tag not in measures:
            measures[tag] = (load_measure(files[f"{tag}_mu"]), load_measure(files[f"{tag}_nu"]))
        return measures[tag]

    for (kind, q, tag), text, back in zip(METRIC_OPS, outputs, swapped):
        name = f"{kind}(q={q}, {tag})"
        if text is None or back is None:
            continue
        try:
            got, rev = float(json.loads(text)), float(json.loads(back))
        except (json.JSONDecodeError, TypeError, ValueError) as err:
            errors.append(f"metrics {name}: stdout is not a number ({err})")
            continue
        if not abs(got - rev) <= METRIC_TOL:
            errors.append(f"metrics {name}: not symmetric, {got!r} vs {rev!r}")
        mu, nu = pair(tag)
        if kind == "bl":
            want = bl_transport(mu, nu)
        elif kind == "psi":
            want = bl_transport(mu, nu) + abs(moment(mu, q) - moment(nu, q))
        elif kind == "wasserstein" and tag == "plane":
            want = w2_assignment(mu, nu)
        elif kind == "wasserstein" and q == 1.0:
            want = w1_cdf(mu, nu)
        elif kind == "fm" and q == 1.0:
            want = w1_cdf(mu, nu)
        elif kind == "fm":
            if not got >= w1_cdf(mu, nu) - METRIC_TOL:
                errors.append(f"metrics {name}: {got!r} below W1 {w1_cdf(mu, nu)!r}")
            continue
        else:
            raise ValueError(f"no reference for {name}")
        if not abs(got - want) <= METRIC_TOL:
            errors.append(f"metrics {name}: {got!r} vs reference {want!r}")
    return errors


# ---------------------------------------------------------------------------
# stability-saa: properties of the report
# ---------------------------------------------------------------------------


def _csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_stability(stdout: str, reports: dict, second_reports: dict, n_schedule) -> list:
    """``reports`` / ``second_reports`` map each report file name to the
    bytes two separate passes wrote."""
    errors = []
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"stability: stdout is not JSON ({err})"]
    if summary.get("uniform_integrability") is not True:
        errors.append("stability: uniform-integrability verdict is not true")
    if summary.get("rows") != len(n_schedule):
        errors.append(f"stability: {summary.get('rows')} rows for {len(n_schedule)} steps")
    for name in REPORT_FILES:
        if name not in reports:
            return errors + [f"stability: {name} missing"]
        if reports[name] != second_reports.get(name):
            errors.append(f"stability: {name} differs between two passes")

    header, csv_rows = _csv_rows(reports["report.csv"].decode("utf-8"))
    doc = json.loads(reports["report.json"].decode("utf-8"))
    if header != STABILITY_COLUMNS or doc["columns"] != STABILITY_COLUMNS:
        errors.append(f"stability: columns {header} / {doc['columns']}")
        return errors
    json_rows = doc["rows"]
    if len(csv_rows) != len(json_rows):
        errors.append(f"stability: {len(csv_rows)} csv rows vs {len(json_rows)} json rows")
        return errors
    for crow, jrow in zip(csv_rows, json_rows):
        if crow[-1] != jrow[-1] or [float(v) for v in crow[:-1]] != [float(v) for v in jrow[:-1]]:
            errors.append(f"stability: csv row {crow} differs from json row {jrow}")
    params = [row[1] for row in json_rows]
    if params != [float(n) for n in n_schedule]:
        errors.append(f"stability: params {params} vs schedule {list(n_schedule)}")
    for row in json_rows:
        step, _, d_bl, d_psi, dphi, sup_dq, excess, error = row
        if error:
            errors.append(f"stability: step {step} error {error!r}")
            continue
        if not 0.0 <= d_bl <= d_psi:
            errors.append(f"stability: step {step} needs 0 <= d_bl {d_bl!r} <= d_psi {d_psi!r}")
        if not dphi <= sup_dq:
            errors.append(f"stability: step {step} delta_phi_abs {dphi!r} > sup_delta_q {sup_dq!r}")
        if not excess >= 0.0:
            errors.append(f"stability: step {step} argmin_excess {excess!r} < 0")
    first, last = json_rows[0][2], json_rows[-1][2]
    if not last < first / 5.0:
        errors.append(f"stability: d_bl {last!r} at the last step is not below {first!r} / 5")
    if doc["uniform_integrability"]["verdict"] is not True:
        errors.append("stability: report.json verdict is not true")
    try:
        ET.fromstring(reports["report.svg"])
    except ET.ParseError as err:
        errors.append(f"stability: report.svg is not XML ({err})")
    return errors
