"""Quadrature helpers shared by the basis, measure and operator layers.

Everything that touches the weight works in log space: the integrands
``r^(2n+1) * omega(r)`` underflow doubles for modest n, so sums are taken as
``exp(peak) * sum(exp(log_terms - peak))``.  Monomial norms and radial
moments share one Gauss-Legendre rule with per-row convergence: norms on one
panel per row, a window around the integrand's peak, and moments on panels
graded toward the outer edge of the support.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError, DomainError
from .weights import RadialWeight

#: relative tolerance of every monomial norm table
MONOMIAL_NORM_TOL = 1e-9

#: Gauss-Legendre orders tried, in turn, on every row still open (and on a
#: radial measure's total mass, in measures)
GAUSS_ORDERS = (16, 32, 64, 128, 256, 512, 1024)


def _log_row_sums(lf: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(lf))), overwriting lf; a row of -inf gives -inf."""
    peak = np.max(lf, axis=1, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0  # a row of -inf terms sums to log 0 = -inf
    lf -= peak
    np.exp(lf, out=lf)
    with np.errstate(divide="ignore"):
        return peak[:, 0] + np.log(np.sum(lf, axis=1))


def _converge_rows(level, n_rows: int, tol: float, what: str) -> np.ndarray:
    """Per-row convergence of log integrals over the Gauss-Legendre orders.

    level(q, rows) returns the order-q log integrals of the rows indexed by
    rows.  A row is done once two successive orders agree within tol, or
    are both -inf; rows still open after the last order raise
    ConvergenceError naming what.
    """
    out = np.empty(n_rows)
    rows, prev = np.arange(n_rows), None
    for q in GAUSS_ORDERS:
        cur = level(q, rows)
        if prev is not None:
            with np.errstate(invalid="ignore"):
                done = np.abs(cur - prev) < tol
            done |= ~np.isfinite(cur) & ~np.isfinite(prev)
            out[rows[done]] = cur[done]
            rows, cur = rows[~done], cur[~done]
            if rows.size == 0:
                return out
        prev = cur
    raise ConvergenceError(
        f"{what} failed to reach tol={tol:g} by Gauss-Legendre order "
        f"{GAUSS_ORDERS[-1]} on {rows.size} of {n_rows} rows"
    )


def log_monomial_norms(w: RadialWeight, degree_max: int) -> np.ndarray:
    """log h_n for n = 0..degree_max, h_n = 2 * int_0^1 r^(2n+1) omega(r) dr.

    The integrand exp((2n+1) log r - 2 phi(r)) is single-peaked; its maximizer
    is found by vectorized bisection on the derivative, and the integral is
    taken on a window around the peak (the integrand vanishes to below
    exp(peak - 60) at the window edges) by one Gauss-Legendre panel per row
    of order q = 16, 32, ..., 1024.  A row is done once two successive
    orders agree within MONOMIAL_NORM_TOL; rows open after q = 1024 raise
    ConvergenceError.  Degrees are processed in chunks of 20000.
    """
    if degree_max < 0:
        raise DomainError("degree_max must be >= 0")
    degrees = np.arange(degree_max + 1)
    out = np.empty(degree_max + 1)
    for start in range(0, degree_max + 1, 20_000):
        ns = degrees[start : start + 20_000].astype(float)
        out[start : start + 20_000] = _log_norm_chunk(w, ns)
    return out


def _log_norm_chunk(w, ns):
    def logf(r, n_col):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = (2.0 * n_col + 1.0) * np.log(r) - 2.0 * w.phi(r)
        return np.where(np.isfinite(v), v, -np.inf)

    n_col = ns[:, None]

    # peak of (2n+1) log r - 2 phi(r): bisection on (2n+1)/r - 2 phi'(r)
    lo = np.full_like(ns, 1e-12)
    hi = np.full_like(ns, 1.0 - 1e-15)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):
            dg = (2.0 * ns + 1.0) / mid - 2.0 * w.phi_prime(mid)
        pos = dg > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    r_star = 0.5 * (lo + hi)
    g_star = logf(r_star[:, None], n_col)[:, 0]

    # curvature from central second differences; sets the window scale
    h = 1e-5 * (1.0 - r_star)
    g_pm = logf(np.column_stack([r_star - h, r_star + h]), n_col)
    g2 = (g_pm[:, 0] - 2.0 * g_star + g_pm[:, 1]) / (h * h)
    sigma = 1.0 / np.sqrt(np.maximum(-g2, 1e-300))

    half = 12.0 * sigma
    win_lo = np.maximum(r_star - half, 1e-12)
    win_hi = np.minimum(r_star + half, 1.0 - 1e-16)
    for _ in range(60):
        edge = np.column_stack([win_lo, win_hi])
        ge = logf(edge, n_col)
        need_lo = (ge[:, 0] > g_star - 60.0) & (win_lo > 1e-12)
        need_hi = (ge[:, 1] > g_star - 60.0) & (win_hi < 1.0 - 1e-16)
        if not (need_lo.any() or need_hi.any()):
            break
        half = half * 1.6
        win_lo = np.where(need_lo, np.maximum(r_star - half, 1e-12), win_lo)
        win_hi = np.where(need_hi, np.minimum(r_star + half, 1.0 - 1e-16), win_hi)

    def level(q, rows):
        cur = np.empty(rows.size)
        step = (1 << 21) // q  # at most 2^21 terms at a time
        for i in range(0, rows.size, step):
            sel = rows[i : i + step]
            r, wr = gauss_legendre_nodes(win_lo[sel, None], win_hi[sel, None], q)
            cur[i : i + step] = _log_row_sums(logf(r, n_col[sel]) + np.log(wr))
        return cur

    return np.log(2.0) + _converge_rows(
        level, ns.size, MONOMIAL_NORM_TOL, "monomial norm quadrature"
    )


def radial_log_moments(
    w: RadialWeight, degree_max: int, log_density=None, support=(0.0, 1.0)
) -> np.ndarray:
    """log of int_a^b r^(2n+1) omega(r) g(r) dr for n = 0..degree_max.

    log_density(r) is the log of a nonnegative radial density g (None means
    g = 1).  The integrand of row n concentrates in a layer of width
    ~ b/(2n+1) at the outer support edge, so 48 panels are graded
    geometrically toward b down to that scale, and every panel gets
    Gauss-Legendre of order q = 16, 32, ..., 1024, with log r and
    log(weight) - 2 phi(r) + log g(r) computed once per order for all rows.
    A row is done once two successive orders agree within 1e-10; rows open
    after q = 1024 raise ConvergenceError, and rows that integrate to zero
    come back as -inf.  Rows run in chunks of 512 (fewer above q = 64, so a
    chunk holds at most 2^21 terms).
    """
    a, b = float(support[0]), float(support[1])
    if not (0.0 <= a < b <= 1.0):
        raise DomainError(f"bad radial support [{a}, {b}]")
    b = min(b, 1.0 - 1e-15)

    eps = min(0.25, 1.0 / (2.0 * degree_max + 3.0))
    grade = np.geomspace(1.0, eps, 48)
    edges = np.concatenate([b - (b - a) * grade, [b]])
    exps = 2.0 * np.arange(degree_max + 1) + 1.0

    def level(q, rows):
        r, wr = gauss_legendre_nodes(edges[:-1, None], edges[1:, None], q)
        r = r.ravel()
        log_r = np.log(r)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            base = np.log(wr.ravel()) - 2.0 * w.phi(r)
            if log_density is not None:
                base += log_density(r)
        base[np.isnan(base)] = -np.inf
        cur = np.empty(rows.size)
        step = min(512, (1 << 21) // r.size)
        for i in range(0, rows.size, step):
            lf = np.multiply.outer(exps[rows[i : i + step]], log_r)
            lf += base
            cur[i : i + step] = _log_row_sums(lf)
        return cur

    return _converge_rows(level, degree_max + 1, 1e-10, "radial moment quadrature")


@functools.lru_cache(maxsize=None)
def gauss_legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(a, b, n: int):
    """Gauss-Legendre nodes and weights on [a, b].

    a and b may be arrays of panel edges; column arrays of shape (k, 1)
    give (k, n) nodes and weights, one panel per row.
    """
    x, w = gauss_legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def disk_nodes(center: complex, rho: float, n_r: int = 48, n_t: int = 128):
    """Quadrature nodes/weights for the euclidean disk D(center, rho).

    Weights are for the normalized area measure dA = dx dy / pi; they sum to
    rho^2 (the normalized area of the disk).
    """
    r, wr = gauss_legendre_nodes(0.0, rho, n_r)
    theta = np.arange(n_t) * (2.0 * np.pi / n_t)
    pts = center + r[:, None] * np.exp(1j * theta)[None, :]
    wts = (wr * r)[:, None] * np.full(n_t, 2.0 / n_t)[None, :]
    return pts.ravel(), wts.ravel()

