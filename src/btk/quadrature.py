"""Quadrature helpers shared by the basis, measure and operator layers.

Everything that touches the weight works in log space: the integrands
``r^(2n+1) * omega(r)`` underflow doubles for modest n, so integrals are
computed as ``exp(peak) * simpson(exp(log_integrand - peak))`` with the peak
located first.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError, DomainError
from .weights import RadialWeight

_LOG_FLOOR = -745.0  # exp underflows below this


def _simpson_pattern(n_panels: int) -> np.ndarray:
    """Composite Simpson weights (without the h/3 factor) for n_panels panels."""
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _log_simpson_rows(logf_rows: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Row-wise log of the composite Simpson sum.

    logf_rows: (k, m+1) log integrand values on equispaced nodes per row.
    widths: (k,) interval lengths.  Returns (k,) log integrals.
    """
    m = logf_rows.shape[1] - 1
    pat = _simpson_pattern(m)
    raw_peak = np.max(logf_rows, axis=1, keepdims=True)
    peak = np.where(np.isfinite(raw_peak), raw_peak, 0.0)
    s = np.einsum("j,ij->i", pat, np.exp(np.maximum(logf_rows - peak, _LOG_FLOOR)))
    with np.errstate(divide="ignore"):
        out = peak[:, 0] + np.log(s) + np.log(widths / (3.0 * m))
    # a row whose integrand vanishes identically integrates to exactly zero
    return np.where(np.isfinite(raw_peak[:, 0]), out, -np.inf)


def log_monomial_norms(
    w: RadialWeight,
    degree_max: int,
    tol: float = 1e-9,
    chunk: int = 20_000,
    max_doublings: int = 20,
) -> np.ndarray:
    """log h_n for n = 0..degree_max, h_n = 2 * int_0^1 r^(2n+1) omega(r) dr.

    The integrand exp((2n+1) log r - 2 phi(r)) is single-peaked; its maximizer
    is found by vectorized bisection on the derivative, and the integral is
    taken on a window around the peak (the integrand vanishes to below
    exp(peak - 60) at the window edges), doubling Simpson panels until the
    relative change drops below tol.
    """
    if degree_max < 0:
        raise DomainError("degree_max must be >= 0")
    if not (0.0 < tol <= 1e-6):
        raise DomainError("tol must lie in (0, 1e-6]")
    degrees = np.arange(degree_max + 1)
    out = np.empty(degree_max + 1)
    for start in range(0, degree_max + 1, chunk):
        ns = degrees[start : start + chunk].astype(float)
        out[start : start + chunk] = _log_norm_chunk(w, ns, tol, max_doublings)
    return out


def _log_norm_chunk(w, ns, tol, max_doublings):
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

    widths = win_hi - win_lo
    m = 32
    prev = None
    for attempt in range(max_doublings + 1):
        t = np.linspace(0.0, 1.0, m + 1)
        nodes = win_lo[:, None] + widths[:, None] * t[None, :]
        cur = _log_simpson_rows(logf(nodes, n_col), widths)
        if prev is not None and np.all(np.abs(cur - prev) < tol):
            return cur + np.log(2.0)
        prev = cur
        m *= 2
    raise ConvergenceError(
        f"monomial norm quadrature failed to reach tol={tol} after "
        f"{max_doublings} doublings"
    )


def radial_log_moments(
    w: RadialWeight,
    degree_max: int,
    log_density=None,
    support=(0.0, 1.0),
    tol: float = 1e-10,
    max_doublings: int = 16,
    n_panels: int = 48,
    row_chunk: int = 512,
) -> np.ndarray:
    """log of int_a^b r^(2n+1) omega(r) g(r) dr for n = 0..degree_max.

    log_density(r) is the log of a nonnegative radial density g (None means
    g = 1).  The integrand of row n concentrates in a layer of width
    ~ b/(2n+1) at the outer support edge, so the panels are graded
    geometrically toward b down to that scale; each panel then resolves a
    bounded dynamic range and per-panel Simpson converges with few nodes.
    Rows that integrate to zero (empty effective support) come back as -inf.
    """
    a, b = float(support[0]), float(support[1])
    if not (0.0 <= a < b <= 1.0):
        raise DomainError(f"bad radial support [{a}, {b}]")
    b = min(b, 1.0 - 1e-15)

    eps = min(0.25, 1.0 / (2.0 * degree_max + 3.0))
    grade = np.geomspace(1.0, eps, n_panels)
    edges = np.concatenate([b - (b - a) * grade, [b]])
    panel_w = np.diff(edges)

    def logf(r, ns_col):
        r_row = r[None, :]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = (2.0 * ns_col + 1.0) * np.log(r_row) - 2.0 * w.phi(r_row)
            v = np.broadcast_to(v, (ns_col.shape[0], r.shape[0])).copy()
            if log_density is not None:
                v += log_density(r_row)
        return np.where(np.isnan(v), -np.inf, v)

    out = np.empty(degree_max + 1)
    degrees = np.arange(degree_max + 1, dtype=float)
    for start in range(0, degree_max + 1, row_chunk):
        ns_col = degrees[start : start + row_chunk][:, None]
        k = ns_col.shape[0]
        m = 8
        prev = None
        for attempt in range(max_doublings + 1):
            t = np.linspace(0.0, 1.0, m + 1)
            nodes = edges[:-1, None] + panel_w[:, None] * t[None, :]
            lf = logf(nodes.ravel(), ns_col).reshape(k * n_panels, m + 1)
            vals = _log_simpson_rows(lf, np.tile(panel_w, k))
            cur = np.logaddexp.reduce(vals.reshape(k, n_panels), axis=1)
            if prev is not None:
                with np.errstate(invalid="ignore"):
                    done = np.abs(cur - prev) < tol
                done |= ~np.isfinite(cur) & ~np.isfinite(prev)
                if np.all(done):
                    out[start : start + k] = cur
                    break
            prev = cur
            m *= 2
        else:
            raise ConvergenceError(
                f"radial moment quadrature failed to reach tol={tol} after "
                f"{max_doublings} doublings"
            )
    return out


def simpson_doubling(f, a: float, b: float, tol: float = 1e-9,
                     m0: int = 64, max_doublings: int = 16) -> float:
    """Plain composite Simpson with panel doubling on [a, b].

    f must be vectorized.  Raises ConvergenceError when the relative change
    fails to drop below tol.
    """
    if b <= a:
        return 0.0
    m = m0
    prev = None
    for _ in range(max_doublings + 1):
        x = np.linspace(a, b, m + 1)
        y = f(x)
        cur = float(np.dot(_simpson_pattern(m), y) * (b - a) / (3.0 * m))
        if prev is not None:
            scale = max(abs(cur), abs(prev), 1e-300)
            if abs(cur - prev) <= tol * scale or abs(cur - prev) < 1e-300:
                return cur
        prev = cur
        m *= 2
    raise ConvergenceError(f"simpson doubling failed to reach tol={tol}")


@functools.lru_cache(maxsize=None)
def gauss_legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
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


def unit_disk_nodes(r_cap: float, n_r: int = 256, n_t: int = 256):
    """Tensor polar rule on {|z| <= r_cap} for the normalized area measure.

    Uniform (trapezoidal) angular rule: exact for trigonometric polynomials of
    degree < n_t, which makes monomial inner products exact in the angle.
    """
    r, wr = gauss_legendre_nodes(0.0, r_cap, n_r)
    theta = np.arange(n_t) * (2.0 * np.pi / n_t)
    pts = r[:, None] * np.exp(1j * theta)[None, :]
    wts = (wr * r)[:, None] * np.full(n_t, 2.0 / n_t)[None, :]
    return pts.ravel(), wts.ravel()
