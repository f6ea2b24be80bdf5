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
(DEPENDENT) takes a dual step only.  A violated row p that allows no step
has n_p = N r with every r <= 0, and the input stops at the Farkas ray of
multipliers 1 on p and -r on the active rows.  Every input does its own
arithmetic in elementwise ufuncs (_sum_products), so a row's bits do not
depend on the batch that holds it.
"""

import numpy as np

from .errors import NumericalFailure

# a violated row counts as linearly dependent on the active rows when the
# part of d = J'n off the active columns has |d2|^2 <= DEPENDENT |d|^2
DEPENDENT = 1e-24
# lam'A of a Farkas ray lam is zero but for round-off, a few eps of the sum of
# lam_i ||a_i||_inf; nearly parallel rows with more off-part may meet far out
FARKAS_TOL = 64 * np.finfo(float).eps


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

    Returns (ok, empty, points): the points the steps accumulated; ok where
    the method ended with every row within feas_tol and, with the active
    rows' multipliers taken from the factors (u = R^-1 J1'(2Dy + q)), the
    stationarity and active-row residuals are at most 1e-7 and u >= -1e-9,
    as for a KKT point; and empty where it stopped at a Farkas ray lam >= 0
    with lam.(b + feas_tol) < 0 and |lam'A| <= FARKAS_TOL sum_i lam_i
    ||a_i||_inf: A y <= b + feas_tol has no solution but for the round-off
    in lam'A.  A q far above b can lose the point, and so the ray, to
    cancellation: an input with q != 0 whose ray fails is decided again on
    its rows alone, from y = 0 with q = 0.  An input that needs more than
    step_cap steps raises NumericalFailure."""
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
        del Js  # the add and drop paths gather their own rows of J, which no step changes
        r = _back_substitute(R[live], np.where(inact, 0.0, d), q)
        r[rows, q] = -1.0  # so U -= t r is the dual step, +t on the row being added
        l, t1 = np.zeros(len(live), dtype=np.intp), np.full(len(live), np.inf)
        if q.any():  # else no row is active, and there is no partial step
            ratio = np.where(r > 0.0, U[live] / r, np.inf)
            l = np.argmin(ratio, axis=1)
            t1 = ratio[rows, l]  # the partial step that zeroes u_l
        zn = _sum_products(z, N)
        indep = zn > DEPENDENT * _sum_products(d, d)
        slack = B[live, p] - _sum_products(A[p], Yl)
        t2 = np.where(indep, np.maximum(-slack / zn, 0.0), np.inf)  # the full step
        t = np.minimum(t1, t2)
        over = indep & (t == np.inf)  # a full step that overflowed, taken as -slack z/zn
        go = (t < np.inf) | over  # else row p is dependent on the active rows, with r <= 0
        if steps == step_cap and go.any():
            raise NumericalFailure("dual active-set step cap exceeded")
        steps += 1
        full = indep & (t2 <= t)
        Yl = np.where(over[:, None], Yl - slack[:, None] * (z / zn[:, None]),
                      np.where(indep[:, None], Yl + t[:, None] * z, Yl))
        if not go.all():
            U[live[~go]] = -r[~go]  # a stopped input's Farkas ray: 1 on p, -r on the active rows
            live, q, l, t, full, d, r, Yl = (a[go] for a in (live, q, l, t, full, d, r, Yl))
        Y[live] = Yl
        U[live] = np.where(r != 0.0, U[live] - t[:, None] * r, U[live])  # inf * 0 is NaN
        add, drop = live[full], live[~full]
        if len(add):
            Ja, qa, da = J[add], q[full], d[full]
            for j in range(n - 1, 0, -1):  # zero d below qa
                rot = (j > qa) & (da[:, j] != 0.0)
                if rot.any():
                    h = _givens(da[:, j - 1], da[:, j], rot, (Ja, j - 1, j, 2))
                    da[:, j - 1] = np.where(rot, h, da[:, j - 1])
                    da[:, j] = np.where(rot, 0.0, da[:, j])
            J[add], R[add, :, qa] = Ja, da
            nact[add] += 1
            adding[add] = False
        if len(drop):
            Jd, qd = J[drop], q[~full]
            # shift the columns after l left, and rotate R back to triangular
            src = np.minimum(cols + (cols >= l[~full, None]), n)
            Rd = R[drop[:, None, None], cols[:n, None], src[:, None, :]]
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
    # the checks of a KKT point where the method ended, of a Farkas ray lam = U where it stopped
    end, stop = np.flatnonzero(done), np.flatnonzero(~done)
    ok, empty = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    As, gap, on = A[act[end]], np.take_along_axis(B[end], act[end], 1), cols < nact[end, None]
    grad = _sum_products(2.0 * D, Y[end, None, :]) + Q[end]
    Jg = _sum_products(J[end].transpose(0, 2, 1), grad[:, None, :])  # J'(2Dy + q)
    u = _back_substitute(R[end], np.where(on[:, :n], Jg, 0.0), nact[end])
    stat = grad + _sum_products(As.transpose(0, 2, 1), u[:, None, :])
    resid = np.where(on, _sum_products(As, Y[end, None, :]) - gap, 0.0)
    ok[end] = (np.all(np.abs(stat) <= 1e-7, axis=1) & np.all(np.abs(resid) <= 1e-7, axis=1)
               & np.all(~on | (u >= -1e-9), axis=1))
    if len(stop):
        As, gap, Us = A[act[stop]], np.take_along_axis(B[stop], act[stop], 1), U[stop]
        # the round-off in r leaves entries of about eps on rows outside the ray
        lam = np.where(np.abs(Us) > FARKAS_TOL * np.max(np.abs(Us), axis=1)[:, None], Us, 0.0)
        lamA = _sum_products(As.transpose(0, 2, 1), lam[:, None, :])
        size = _sum_products(lam, np.max(np.abs(As), axis=2))  # the sum of lam_i ||a_i||
        empty[stop] = (np.all(lam >= 0.0, axis=1) & (_sum_products(lam, gap + feas_tol) < 0.0)
                       & np.all(np.abs(lamA) <= FARKAS_TOL * size[:, None], axis=1))
    # decided again on the rows alone, one at a time (it is rare): b and feas_tol
    # scaled alike to |b| near 1, the tolerance no finer than round-off there
    for i in np.flatnonzero(~done & ~empty & np.any(Q != 0.0, axis=1)):
        s, z = np.ldexp(1.0, -np.frexp(np.max(np.abs(B[i])))[1]), np.zeros((1, n))
        tol = max(s * feas_tol, FARKAS_TOL)
        empty[i] = dual_active_set(D, J0, A, z, s * B[i:i + 1], z, tol, step_cap)[1][0]
    return ok, empty, Y
