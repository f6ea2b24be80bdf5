"""Command-line front end.

Subcommands: eval, metrics, stability, certify.  stdout carries only the
machine-readable JSON payload; diagnostics go to stderr.  Exit codes:
0 ok, 2 configuration error, 3 model/math error, 4 gate failure.  Output
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import metrics as metrics_mod
from .errors import ConfigError, MeanRiskError, in_range
from .measure import DiscreteMeasure, box_sampler
from .objective import MeanRiskModel, Q, _argmin, q_profile
from .recourse import certify_growth
from .stability import SEEDED_KINDS, PerturbationScheme, run_experiment, trend_check
from .svgchart import render_loglog_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_GATE = 4

# what turning parsed JSON into a package object raises on a malformed
# document: a missing key or entry, a wrong type or shape, a bad number, a
# float too large for an integer field (int(1e400)), or an expression nested
# deeper than the interpreter's recursion limit
MALFORMED = (MeanRiskError, KeyError, IndexError, TypeError, ValueError, OverflowError,
             RecursionError)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"missing file: {path}") from err
    except (OSError, json.JSONDecodeError, RecursionError) as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err


def _load_measure(path: str) -> DiscreteMeasure:
    try:
        return DiscreteMeasure.from_dict(_load_json(path))
    except ConfigError:
        raise
    except MALFORMED as err:
        raise ConfigError(f"bad measure in {path}: {type(err).__name__}: {err}") from err


def _load_model(path: str) -> MeanRiskModel:
    try:
        return MeanRiskModel.from_dict(_load_json(path))
    except ConfigError:
        raise
    except MALFORMED as err:
        raise ConfigError(f"bad model in {path}: {type(err).__name__}: {err}") from err


def _load_scheme(text: str) -> PerturbationScheme:
    if os.path.exists(text):
        data = _load_json(text)
    else:
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as err:
            raise ConfigError(f"scheme is neither a file nor inline JSON: {err}") from err
    try:
        return PerturbationScheme.from_dict(data)
    except MALFORMED as err:
        raise ConfigError(f"bad scheme: {type(err).__name__}: {err}") from err


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _argmin_tol(args) -> float:
    return 1e-8 if args.tol is None else in_range(args.tol, "--tol", ge=0, error=ConfigError)


def cmd_eval(args) -> int:
    tol = _argmin_tol(args)
    model = _load_model(args.model)
    base = _load_measure(args.measure)
    if args.x is None and not args.all:
        raise ConfigError("eval needs --x INDEX or --all")
    if args.x is not None:
        if not (0 <= args.x < len(model.decisions)):
            raise ConfigError(f"--x {args.x} outside the {len(model.decisions)} decisions")
        x = model.decisions.points[args.x]
        _emit({"x": [float(v) for v in x], "q": Q(model, x, base)})
        return EXIT_OK
    values = q_profile(model, base)
    arg = _argmin(model, values, tol)
    _emit(
        {
            "phi": float(np.min(values)),
            "q": [float(v) for v in values],
            "decisions": [[float(v) for v in row] for row in model.decisions.points],
            "argmin": [[float(v) for v in row] for row in arg.points],
        }
    )
    return EXIT_OK


def cmd_metrics(args) -> int:
    mu = _load_measure(args.measure)
    nu = _load_measure(args.measure2)
    kind = args.kind
    try:
        if kind == "bl":
            value = metrics_mod.bounded_lipschitz(mu, nu)
        elif kind == "wasserstein":
            value = metrics_mod.wasserstein(mu, nu, args.q)
        elif kind == "fm":
            value = metrics_mod.fortet_mourier(mu, nu, args.q)
        elif kind == "psi":
            value = metrics_mod.psi_metric(mu, nu, args.q)
        else:
            raise ConfigError(f"unknown metric kind {kind!r}")
    except MeanRiskError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err)) from err
    _emit(value)
    return EXIT_OK


def _parse_gate(text: str):
    parts = text.replace(":", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"gate must be 'column:factor', got {text!r}")
    try:
        return parts[0], float(parts[1])
    except ValueError as err:
        raise ConfigError(f"bad gate factor in {text!r}") from err


def cmd_stability(args) -> int:
    tol = _argmin_tol(args)
    if args.seed is not None:
        in_range(args.seed, "--seed", ge=0, error=ConfigError)
    model = _load_model(args.model)
    base = _load_measure(args.measure)
    scheme = _load_scheme(args.scheme)
    if args.seed is not None and scheme.kind in SEEDED_KINDS:
        scheme = dataclasses.replace(scheme, seed=args.seed)
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create the output directory: {err}") from err
    report = run_experiment(model, base, scheme, argmin_tol=tol)

    _atomic_write(os.path.join(out_dir, "report.csv"), report.to_csv_text())
    _atomic_write(os.path.join(out_dir, "report.json"), report.to_json_text())
    steps = [float(r.step + 1) for r in report.rows]
    series = [
        (name, steps, [getattr(r, name) for r in report.rows])
        for name in ("d_bl", "d_psi", "delta_phi_abs", "sup_delta_q", "argmin_excess")
    ]
    svg = render_loglog_chart(series, "stability run: distances and deviations vs step")
    _atomic_write(os.path.join(out_dir, "report.svg"), svg)

    gates = []
    failed = False
    for text in args.gate or []:
        column, factor = _parse_gate(text)
        try:
            res = trend_check(report, column, factor)
        except MeanRiskError as err:
            raise ConfigError(str(err)) from err
        gates.append(
            {
                "column": column,
                "factor": factor,
                "passed": res.passed,
                "slope": res.slope,
            }
        )
        failed = failed or not res.passed
    _emit(
        {
            "out": out_dir,
            "rows": len(report.rows),
            "uniform_integrability": bool(report.ui_verdict),
            "gates": gates,
        }
    )
    return EXIT_GATE if failed else EXIT_OK


def cmd_certify(args) -> int:
    for flag, value, bound in (("--n", args.n, {"ge": 1}), ("--xcount", args.xcount, {"ge": 1}),
                               ("--seed", args.seed, {"ge": 0}), ("--gamma", args.gamma, {"gt": 0})):
        if value is not None:
            in_range(value, flag, error=ConfigError, **bound)
    model = _load_model(args.model)
    try:
        lo, hi = (float(v) for v in args.zbox.split(":"))
    except ValueError as err:
        raise ConfigError(f"--zbox must be 'lo:hi', got {args.zbox!r}") from err
    in_range(hi - lo, "--zbox width hi - lo", gt=0, error=ConfigError)
    s = model.recourse.s
    sampler = box_sampler([lo] * s, [hi] * s)
    gamma = args.gamma if args.gamma is not None else model.gamma
    xs = model.decisions.points[: args.xcount]
    cert = certify_growth(model.recourse, xs, sampler, gamma, args.n, args.seed)
    _emit(cert.to_dict())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanrisk",
        description="mean-risk two-stage objectives, probability metrics and stability runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate Q / phi / argmin on a model and measure")
    p.add_argument("--model", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--x", type=int, default=None, help="decision index")
    p.add_argument("--all", action="store_true", help="evaluate the whole decision grid")
    p.add_argument("--tol", type=float, default=None, help="argmin tolerance")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("metrics", help="distance between two measure files")
    p.add_argument("--measure", required=True)
    p.add_argument("--measure2", required=True)
    p.add_argument("--kind", required=True, choices=["bl", "wasserstein", "fm", "psi"])
    p.add_argument("--q", type=float, default=1.0)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("stability", help="run a perturbation experiment")
    p.add_argument("--model", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--scheme", required=True, help="scheme file or inline JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scheme seed")
    p.add_argument("--tol", type=float, default=None, help="argmin tolerance")
    p.add_argument("--gate", action="append", help="'column:factor' trend gate; repeatable")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("certify", help="empirical growth certificate for a model")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--zbox",
        required=True,
        help="'lo:hi' sampling box per coordinate; write a negative lo as --zbox=-1:1",
    )
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--xcount", type=int, default=None, help="use only the first K decisions")
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MeanRiskError as err:
        print(f"model error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
