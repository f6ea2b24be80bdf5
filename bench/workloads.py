"""Input generation for the three benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` and written as
JSON files into a work directory; the program under test only ever sees
those files (and the CLI arguments naming them), never the seed.

A workload is a fixed list of CLI operations; one pass runs every operation
once, in order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("eval-recourse", "metrics-pairs", "stability-saa")

# Atoms of every generated 1-D measure lie in this interval.
Z_LO, Z_HI = -2.0, 3.0

DECISIONS = [[0.0], [0.25], [0.5], [0.75], [1.0]]

EVAL_ATOMS = 100
PAIR_SIZES = {"big": 80, "mid": 40}
PAIR_2D_ATOMS = 16
SAA_BASE_ATOMS = 60
SAA_SCHEDULE = [100, 1000, 10000, 100000]


# (kind, order q, pair) for each metrics-pairs operation.  The dense BL LP
# on the 80+80 pair dominates; the 2-D W2 goes through transport_plan.
METRIC_OPS = [
    ("bl", 1.0, "big"),
    ("psi", 2.0, "mid"),
    ("wasserstein", 1.0, "big"),
    ("fm", 1.0, "big"),
    ("fm", 2.0, "big"),
    ("wasserstein", 2.0, "plane"),
]


def _affine(matrix, constant):
    return {"affine": {"matrix": matrix, "constant": constant}}


# The four recourse families of the demo models, on a shared decision grid.
# Their closed forms (checks.py) are
#   linear      f(x, z) = |x - z|
#   milp        f(x, z) = max(0, ceil(z))
#   miqp        f(x, z) = min { y^2 + (x - z) y : y integer, max(-z, -600) <= y <= 1100 }
#   convex_mip  f(x, z) = (7 - min(7, floor(|z| + 1)))^2
MODELS = {
    "linear": {
        "recourse": {
            "kind": "linear",
            "n": 1,
            "s": 1,
            "A": [[1.0, -1.0]],
            "h_map": _affine([[1.0, -1.0]], [0.0]),
            "q_map": _affine([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
        },
        "risk": {"kind": "avar", "alpha": 0.5},
        "gamma": 2.0,
    },
    "milp": {
        "recourse": {
            "kind": "milp",
            "n": 1,
            "s": 1,
            "A": [[-1.0, 1.0]],
            "q": [0.0, 1.0],
            "h_map": _affine([[0.0, 1.0]], [0.0]),
            "m1": 1,
            "m2": 1,
            "integer_bounds": [[0.0, 1100.0]],
        },
        "risk": {"kind": "expectation"},
        "gamma": 1.0,
    },
    "miqp": {
        "recourse": {
            "kind": "miqp",
            "n": 1,
            "s": 1,
            "A": [[-1.0]],
            "D": [[1.0]],
            "h_map": _affine([[0.0, 1.0]], [0.0]),
            "q_map": _affine([[1.0, -1.0]], [0.0]),
            "m1": 0,
            "m2": 1,
            "integer_bounds": [[-600.0, 1100.0]],
        },
        "risk": {"kind": "expectation"},
        "gamma": 2.0,
    },
    "convex_mip": {
        "recourse": {
            "kind": "convex_mip",
            "n": 1,
            "s": 1,
            "v": ["pow", ["affine", [1.0], 7.0], 2],
            "g": [["abs", ["var", 0]]],
            "h_map": {
                "expr": [["sum", ["norm", ["affine", [0.0, 1.0], 0.0]], ["const", 1.0]]],
                "exponent": 1.0,
            },
            "m1": 0,
            "m2": 1,
            "integer_bounds": [[-20.0, 20.0]],
            "continuous_box": [],
            "gamma_K": 1.0,
        },
        "risk": {"kind": "expectation"},
        "gamma": 6.0,
    },
}


@dataclass
class Workload:
    """Generated inputs of one workload and the CLI operations of a pass.

    ``ops`` holds one argv list per operation; ``files`` maps a short name
    to each generated input path; ``out_dir`` is where ``stability`` writes
    its reports (``None`` for the other workloads).
    """

    name: str
    files: dict
    ops: list
    out_dir: str | None = None


def measure_dict(points, weights) -> dict:
    points = np.asarray(points, dtype=float).reshape(len(weights), -1)
    return {
        "dim": int(points.shape[1]),
        "atoms": [
            {"point": [float(v) for v in p], "weight": float(w)}
            for p, w in zip(points, weights)
        ],
    }


def random_measure_1d(rng: np.random.Generator, n: int) -> dict:
    """n atoms uniform on [Z_LO, Z_HI] with weights uniform on [0.5, 1.5],
    normalized."""
    points = rng.uniform(Z_LO, Z_HI, size=n)
    weights = rng.uniform(0.5, 1.5, size=n)
    return measure_dict(points, weights / weights.sum())


def uniform_measure_2d(rng: np.random.Generator, n: int) -> dict:
    return measure_dict(rng.uniform(0.0, 1.0, size=(n, 2)), np.full(n, 1.0 / n))


def model_dict(kind: str) -> dict:
    return dict(MODELS[kind], decisions={"points": DECISIONS}, p=1.0)


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def generate(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    files = {}
    ops = []
    out_dir = None

    if name == "eval-recourse":
        files["measure"] = _write(workdir, "measure.json", random_measure_1d(rng, EVAL_ATOMS))
        for kind in MODELS:
            files[kind] = _write(workdir, f"model_{kind}.json", model_dict(kind))
            ops.append(["eval", "--model", files[kind], "--measure", files["measure"], "--all"])

    elif name == "metrics-pairs":
        for tag, n in PAIR_SIZES.items():
            files[f"{tag}_mu"] = _write(workdir, f"{tag}_mu.json", random_measure_1d(rng, n))
            files[f"{tag}_nu"] = _write(workdir, f"{tag}_nu.json", random_measure_1d(rng, n))
        files["plane_mu"] = _write(workdir, "plane_mu.json", uniform_measure_2d(rng, PAIR_2D_ATOMS))
        files["plane_nu"] = _write(workdir, "plane_nu.json", uniform_measure_2d(rng, PAIR_2D_ATOMS))
        for kind, q, pair in METRIC_OPS:
            ops.append(metric_argv(files, kind, q, pair))

    else:
        base = random_measure_1d(rng, SAA_BASE_ATOMS)
        files["measure"] = _write(workdir, "base.json", base)
        files["model"] = _write(workdir, "model_milp.json", model_dict("milp"))
        scheme = {
            "kind": "saa",
            "n_schedule": SAA_SCHEDULE,
            "seed": int(rng.integers(0, 2**31 - 1)),
        }
        files["scheme"] = _write(workdir, "scheme.json", scheme)
        out_dir = os.path.join(workdir, "out")
        ops.append(
            [
                "stability",
                "--model", files["model"],
                "--measure", files["measure"],
                "--scheme", files["scheme"],
                "--out", out_dir,
            ]
        )
    return Workload(name=name, files=files, ops=ops, out_dir=out_dir)


def metric_argv(files: dict, kind: str, q: float, pair: str, swap: bool = False) -> list:
    first, second = files[f"{pair}_mu"], files[f"{pair}_nu"]
    if swap:
        first, second = second, first
    return ["metrics", "--measure", first, "--measure2", second, "--kind", kind, "--q", repr(q)]
