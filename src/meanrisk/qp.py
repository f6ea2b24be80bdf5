"""The dual active-set method of Goldfarb & Idnani ("A numerically stable
dual method for solving strictly convex quadratic programs", Math.
Programming 27, 1983) for many QPs min y'Dy + q.y over A y <= b that share
D and A, stepped in lockstep.

Each input keeps factors J and R with J'N = [R; 0] for its active rows N
(as columns of the form N'y >= -b), J = L^-T of 2D = LL' at the start.  A
step takes the most violated row (the largest A y - (b + feas_tol), the
lowest index on ties) and either adds it after a full primal-dual step,
by Givens rotations, or drops the active row whose multiplier reaches
zero first after a partial step; a row dependent on the active ones
(DEPENDENT) takes a dual step only.  An input whose violated row allows no step is left
unsolved: its feasible set is empty, or it lost numerical control.  Every
input does its own arithmetic in elementwise ufuncs (_sum_products), so a
row's bits do not depend on the batch that holds it.
"""

import numpy as np

from .errors import NumericalFailure

# a violated row counts as linearly dependent on the active rows when the
# part of d = J'n off the active columns has |d2|^2 <= DEPENDENT |d|^2
DEPENDENT = 1e-24


def _sum_products(X, V) -> np.ndarray:
    """The sum over the last axis of X * V (broadcast), added left to right
    by elementwise ufuncs, so that every row's bits are its own in any
    batch (a stacked matmul makes one BLAS call per row, and costs that)."""
    out = X[..., 0] * V[..., 0]
    for c in range(1, X.shape[-1]):
        out = out + X[..., c] * V[..., c]
    return out


def _back_substitute(R, d, q) -> np.ndarray:
    """Per row, r with R[:q, :q] r[:q] = d[:q] for the upper triangular
    leading block of R, and r = 0 from q on."""
    r = np.zeros(R.shape[::2])
    for i in range(d.shape[1] - 1, -1, -1):
        on = i < q
        if on.any():
            # r is zero at i and below, so this sums R[i, c] r[c] over c > i
            r[:, i] = np.where(on, (d[:, i] - _sum_products(R[:, i], r)) / R[:, i, i], 0.0)
    return r


def _givens(a, b, on, *targets):
    """Where on, rotate the pairs (i, j) of columns (axis 2) or rows (axis
    1) of each target (X, i, j, axis) in place by the Givens rotation that
    takes (a, b) to (hypot(a, b), 0); returns that hypot."""
    h = np.hypot(a, b)
    c, s, on = (a / h)[:, None], (b / h)[:, None], on[:, None]
    for X, i, j, axis in targets:
        x, y = np.take(X, i, axis=axis), np.take(X, j, axis=axis)
        index = (slice(None),) * axis
        X[index + (i,)] = np.where(on, c * x + s * y, x)
        X[index + (j,)] = np.where(on, c * y - s * x, y)
    return h


def dual_active_set(D, J0, A, Q, B, Y, feas_tol, step_cap) -> tuple:
    """Minimum of y'Dy + Q[j].y over A y <= B[j] for positive definite D,
    from the unconstrained minimum Y[j], with J0 = L^-T of 2D = LL'.

    Returns (ok, points): the points the steps accumulated, and ok where
    the method stopped with every row within feas_tol and, with the active
    rows' multipliers taken from the factors (u = R^-1 J1'(2Dy + q)), the
    stationarity and active-row residuals are at most 1e-7 and u >= -1e-9,
    as for a KKT point.  An input that needs more than step_cap steps
    raises NumericalFailure."""
    k, n = Y.shape
    cols, Y = np.arange(n + 1), Y.copy()
    J = np.repeat(J0[None], k, axis=0)
    # per input: R, the active rows and their multipliers in R's column
    # order, then at position nact the row being added and its multiplier
    R = np.zeros((k, n, n + 1))
    act, U = np.zeros((k, n + 1), dtype=np.intp), np.zeros((k, n + 1))
    nact = np.zeros(k, dtype=np.intp)
    adding, done = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    live, steps = np.arange(k), 0
    while True:
        pick = live[~adding[live]]
        if len(pick):
            # a - b > 0 exactly where a > b, so the largest excess decides
            excess = _sum_products(A, Y[pick, None, :]) - (B[pick] + feas_tol)
            p, q = np.argmax(excess, axis=1), nact[pick]
            done[pick] = ~(excess[np.arange(len(pick)), p] > 0.0)
            act[pick, q], U[pick, q], adding[pick] = p, 0.0, True
            live = live[~done[live]]
        if not len(live):
            break
        q, rows = nact[live], np.arange(len(live))
        p = act[live, q]
        Js, N, Yl = J[live], -A[p], Y[live]  # N y >= -b is the row being added
        d = _sum_products(Js.transpose(0, 2, 1), N[:, None, :])  # J'n
        inact = cols[:n] >= q[:, None]
        z = _sum_products(Js, np.where(inact, d, 0.0)[:, None, :])  # the primal step J2 d2
        active = q.any()  # else r = 0 on the (no) active rows, and no partial step
        r = _back_substitute(R[live], np.where(inact, 0.0, d), q) if active else (
            np.zeros((len(live), n + 1)))
        r[rows, q] = -1.0  # so U -= t r is the dual step, +t on the row being added
        l, t1 = np.zeros(len(live), dtype=np.intp), np.full(len(live), np.inf)
        if active:
            ratio = np.where(r > 0.0, U[live] / r, np.inf)
            l = np.argmin(ratio, axis=1)
            t1 = ratio[rows, l]  # the partial step that zeroes u_l
        zn = _sum_products(z, N)
        indep = zn > DEPENDENT * _sum_products(d, d)
        slack = B[live, p] - _sum_products(A[p], Yl)
        t2 = np.where(indep, np.maximum(-slack / zn, 0.0), np.inf)  # the full step
        t = np.minimum(t1, t2)
        go = t < np.inf  # else the input stops unsolved
        if steps == step_cap and go.any():
            raise NumericalFailure("dual active-set step cap exceeded")
        steps += 1
        full = indep & (t2 <= t)
        if not go.all():
            live, q, l, t, indep, full, Js, d, z, r, Yl = (
                a[go] for a in (live, q, l, t, indep, full, Js, d, z, r, Yl))
        Y[live] = np.where(indep[:, None], Yl + t[:, None] * z, Yl)
        U[live] -= t[:, None] * r
        add, drop = live[full], live[~full]
        if len(add):
            Ja, Ra, qa, da = Js[full], R[add], q[full], d[full]
            for j in range(n - 1, 0, -1):  # zero d below qa
                rot = (j > qa) & (da[:, j] != 0.0)
                if rot.any():
                    h = _givens(da[:, j - 1], da[:, j], rot, (Ja, j - 1, j, 2))
                    da[:, j - 1] = np.where(rot, h, da[:, j - 1])
                    da[:, j] = np.where(rot, 0.0, da[:, j])
            Ra[np.arange(len(add)), :, qa] = da
            J[add], R[add] = Ja, Ra
            nact[add] += 1
            adding[add] = False
        if len(drop):
            Jd, qd = Js[~full], q[~full]
            # shift the columns after l left, and rotate R back to triangular
            src = np.minimum(cols + (cols >= l[~full, None]), n)
            Rd = np.take_along_axis(R[drop], src[:, None, :], axis=2)
            act[drop] = np.take_along_axis(act[drop], src, axis=1)
            U[drop] = np.take_along_axis(U[drop], src, axis=1)
            for j in range(n - 1):
                rot = (j >= l[~full]) & (j < qd - 1) & (Rd[:, j + 1, j] != 0.0)
                if rot.any():
                    h = _givens(Rd[:, j, j], Rd[:, j + 1, j], rot, (Rd, j, j + 1, 1),
                                (Jd, j, j + 1, 2))
                    Rd[:, j, j] = np.where(rot, h, Rd[:, j, j])
                    Rd[:, j + 1, j] = np.where(rot, 0.0, Rd[:, j + 1, j])
            J[drop], R[drop] = Jd, Rd
            nact[drop] -= 1
    # the checks of a KKT point, on the inputs where the method stopped
    j = np.flatnonzero(done)
    q, As, on = nact[j], A[act[j]], cols < nact[j][:, None]
    grad = _sum_products(2.0 * D, Y[j, None, :]) + Q[j]
    Jg = _sum_products(J[j].transpose(0, 2, 1), grad[:, None, :])  # J'(2Dy + q)
    u = _back_substitute(R[j], np.where(on[:, :n], Jg, 0.0), q)
    stat = grad + _sum_products(As.transpose(0, 2, 1), u[:, None, :])
    resid = np.where(on, _sum_products(As, Y[j, None, :]) - B[j[:, None], act[j]], 0.0)
    ok = np.zeros(k, dtype=bool)
    ok[j] = (np.all(np.abs(stat) <= 1e-7, axis=1) & np.all(np.abs(resid) <= 1e-7, axis=1)
             & np.all(~on | (u >= -1e-9), axis=1))
    return ok, Y
