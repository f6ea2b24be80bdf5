"""Convex expression trees over a variable vector.

Node set: constant, variable, affine, sum, nonnegative scale, max, absolute
value, even integer power, Euclidean norm.  Convexity is enforced by
construction: nonaffine nodes only accept children whose curvature keeps
the whole tree convex (abs, even powers and norms require affine children;
sums, maxima and nonnegative scalings accept convex ones).  Every node can
report values and subgradients, all the solvers need, at many points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GrammarError, as_int, finite_result, in_range

AFFINE = "affine"
CONVEX = "convex"

_KINDS = ("const", "var", "affine", "sum", "scale", "max", "abs", "pow", "norm")


@dataclass(frozen=True)
class ConvexExpr:
    kind: str
    children: tuple = ()
    coeffs: tuple = ()  # affine: coefficient per variable
    value0: float = 0.0  # const value / affine offset / scale factor
    exponent: int = 0  # even power
    index: int = -1  # variable index

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GrammarError(f"unknown node kind {self.kind!r}")

    # -- curvature -------------------------------------------------------

    @property
    def curvature(self) -> str:
        if self.kind in ("const", "var", "affine"):
            return AFFINE
        if self.kind == "sum":
            return AFFINE if all(c.curvature == AFFINE for c in self.children) else CONVEX
        if self.kind == "scale":
            return self.children[0].curvature
        return CONVEX

    @property
    def width(self) -> int:
        """How many leading coordinates of the point the tree reads."""
        own = {"var": self.index + 1, "affine": len(self.coeffs)}.get(self.kind, 0)
        return max([own] + [c.width for c in self.children])

    # -- evaluation ------------------------------------------------------

    def values(self, Y: np.ndarray) -> np.ndarray:
        """The values at the rows of Y; OutOfRange at the first that overflows."""
        return table((self,), Y)[:, 0]

    def value(self, y: np.ndarray) -> float:
        """The value at the point y (a row of one, see values)."""
        return float(self.values([y])[0])

    def eval_with_subgradient(self, y: np.ndarray):
        """Return (value, subgradient) at the point y; OutOfRange, naming the
        expression and the point, when either overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            (v,), (g,) = self._eval(np.asarray([y], dtype=float), len(y))
        if not (math.isfinite(v) and np.all(np.isfinite(g))):
            finite_result(float(v), self._at(y))
            finite_result(float(np.max(np.abs(g))), f"the subgradient of {self._at(y)}")
        return float(v), g

    def _at(self, y) -> str:
        return f"expression {self.to_prefix()} at y = {[float(c) for c in y]}"

    def _eval(self, Y: np.ndarray, d: int):
        """(values, subgradients) at the rows of Y, each as for a point alone:
        the subgradients keep their first d columns (none for values alone)."""
        k, rows = self.kind, len(Y)
        G = np.zeros((rows, d))
        if k == "const":
            return np.full(rows, self.value0), G
        if k == "var":
            G[:, self.index:self.index + 1] = 1.0
            return Y[:, self.index].copy(), G
        if k == "affine":
            a = np.asarray(self.coeffs, dtype=float)
            G[:, : len(a)] = a[:d]
            return affine_rows(Y, a[None, :], self.value0)[:, 0], G
        if k in ("scale", "abs", "pow"):
            v, g = self.children[0]._eval(Y, d)
            if k == "scale":
                return self.value0 * v, self.value0 * g
            if k == "abs":
                return np.abs(v), np.sign(v)[:, None] * g
            return v**self.exponent, (self.exponent * v ** (self.exponent - 1))[:, None] * g
        parts = [c._eval(Y, d) for c in self.children]
        if k == "max":  # the first strict maximum
            best = np.full(rows, -np.inf)
            for v, g in parts:
                better = v > best
                best = np.where(better, v, best)
                G = np.where(better[:, None], g, G)
            return best, G
        total = np.zeros(rows)  # sum and norm accumulate child by child from 0.0
        for v, g in parts:
            total += v if k == "sum" else v * v
            G += g if k == "sum" else v[:, None] * g
        if k == "sum":
            return total, G
        nrm = np.sqrt(total)  # norm
        zero = nrm == 0.0
        G /= np.where(zero, 1.0, nrm)[:, None]
        G[zero] = 0.0
        return nrm, G

    # -- growth ----------------------------------------------------------

    def growth_exponent(self) -> float:
        """Exponent gamma with |e(y)| <= kappa(||y||^gamma + 1), read off the
        tree; constants and affine pieces count as exponent one."""
        k = self.kind
        if k in ("const", "var", "affine", "norm"):
            return 1.0
        if k in ("sum", "max"):
            return max(c.growth_exponent() for c in self.children)
        if k in ("scale", "abs"):
            return self.children[0].growth_exponent()
        if k == "pow":
            return self.exponent * self.children[0].growth_exponent()
        raise GrammarError(f"unknown node kind {k!r}")

    # -- prefix serialization ---------------------------------------------

    def to_prefix(self):
        k = self.kind
        if k == "const":
            return ["const", self.value0]
        if k == "var":
            return ["var", self.index]
        if k == "affine":
            return ["affine", list(self.coeffs), self.value0]
        if k == "scale":
            return ["scale", self.value0, self.children[0].to_prefix()]
        if k == "pow":
            return ["pow", self.children[0].to_prefix(), self.exponent]
        if k == "abs":
            return ["abs", self.children[0].to_prefix()]
        return [k] + [c.to_prefix() for c in self.children]


def affine_rows(Y: np.ndarray, M: np.ndarray, c) -> np.ndarray:
    """Y[:, :M.shape[1]] @ M.T + c as a fold from 0.0 adding column j's term
    for j = 0, 1, ..., then c, in elementwise ufuncs: a row's bits do not
    depend on its batch, as a BLAS product's may."""
    out = np.zeros((len(Y), len(M)))
    for j in range(M.shape[1]):
        out += Y[:, j:j + 1] * M[:, j]
    return out + c


def table(trees, Y) -> np.ndarray:
    """The values of every tree (columns) at every row of Y; OutOfRange at the
    first row, then tree, that overflows, naming both."""
    Y = np.asarray(Y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        V = np.array([t._eval(Y, 0)[0] for t in trees]).reshape(len(trees), len(Y)).T
    bad = ~np.isfinite(V)
    if bad.any():  # the message is built only on failure
        i, j = divmod(int(np.argmax(bad)), len(trees))
        finite_result(float(V[i, j]), trees[j]._at(Y[i]))
    return V


def const(v: float) -> ConvexExpr:
    return ConvexExpr("const", value0=in_range(v, "constant", error=GrammarError))


def var(i: int) -> ConvexExpr:
    i = as_int(i, "variable index", GrammarError)
    if i < 0:
        raise GrammarError("variable index must be nonnegative")
    return ConvexExpr("var", index=i)


def affine(coeffs, offset: float = 0.0) -> ConvexExpr:
    coeffs = tuple(in_range(c, "affine coefficient", error=GrammarError) for c in coeffs)
    return ConvexExpr("affine", coeffs=coeffs,
                      value0=in_range(offset, "affine offset", error=GrammarError))


def vsum(*children: ConvexExpr) -> ConvexExpr:
    if not children:
        raise GrammarError("sum needs at least one child")
    return ConvexExpr("sum", children=tuple(children))


def scale(factor: float, child: ConvexExpr) -> ConvexExpr:
    factor = in_range(factor, "scale factor", ge=0, error=GrammarError)
    return ConvexExpr("scale", children=(child,), value0=factor)


def vmax(*children: ConvexExpr) -> ConvexExpr:
    if not children:
        raise GrammarError("max needs at least one child")
    return ConvexExpr("max", children=tuple(children))


def vabs(child: ConvexExpr) -> ConvexExpr:
    if child.curvature != AFFINE:
        raise GrammarError("abs requires an affine child")
    return ConvexExpr("abs", children=(child,))


def even_power(child: ConvexExpr, exponent: int) -> ConvexExpr:
    exponent = as_int(exponent, "power exponent", GrammarError)
    if exponent < 2 or exponent % 2 != 0:
        raise GrammarError(f"power must be an even integer >= 2, got {exponent}")
    if child.curvature != AFFINE:
        raise GrammarError("even powers require an affine child")
    return ConvexExpr("pow", children=(child,), exponent=exponent)


def norm(*children: ConvexExpr) -> ConvexExpr:
    if not children:
        raise GrammarError("norm needs at least one child")
    if any(c.curvature != AFFINE for c in children):
        raise GrammarError("norm requires affine children")
    return ConvexExpr("norm", children=tuple(children))


def from_prefix(node) -> ConvexExpr:
    """Parse the prefix-notation encoding used in the JSON schemas."""
    if not isinstance(node, (list, tuple)) or not node:
        raise GrammarError(f"bad expression node {node!r}")
    head = node[0]
    if head == "const":
        return const(node[1])
    if head == "var":
        return var(node[1])
    if head == "affine":
        return affine(node[1], node[2] if len(node) > 2 else 0.0)
    if head == "sum":
        return vsum(*(from_prefix(c) for c in node[1:]))
    if head == "scale":
        return scale(node[1], from_prefix(node[2]))
    if head == "max":
        return vmax(*(from_prefix(c) for c in node[1:]))
    if head == "abs":
        return vabs(from_prefix(node[1]))
    if head == "pow":
        return even_power(from_prefix(node[1]), node[2])
    if head == "norm":
        return norm(*(from_prefix(c) for c in node[1:]))
    raise GrammarError(f"unknown expression head {head!r}")
