"""Reference rules that only the tests use to cross-check the library."""

import numpy as np

from btk.basis import basis_columns, kernel_at_points, kernel_norm_sq
from btk.errors import ConvergenceError, DomainError
from btk.measures import (
    AtomicMeasure,
    RadialDensityMeasure,
    _checked_nodes,
    mu_hat_lp_norm,
    operator_factor,
)
from btk.quadrature import gauss_legendre_nodes


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
        pattern = np.ones(m + 1)
        pattern[1:-1:2] = 4.0
        pattern[2:-1:2] = 2.0
        cur = float(np.dot(pattern, f(x)) * (b - a) / (3.0 * m))
        if prev is not None:
            scale = max(abs(cur), abs(prev), 1e-300)
            if abs(cur - prev) <= tol * scale or abs(cur - prev) < 1e-300:
                return cur
        prev = cur
        m *= 2
    raise ConvergenceError(f"simpson doubling failed to reach tol={tol}")


def radial_factor(bt, mu, dim: int) -> np.ndarray:
    """Truncated polar-quadrature factor of a radial measure.

    The angular rule has 2*dim+3 uniform nodes, which integrates every
    e_n conj(e_m) phase factor exactly, so off-diagonals vanish to rounding;
    the radial rule has 256 Gauss-Legendre nodes on each half of the support.
    Checks the diagonal that assembly gives a radial measure.
    """
    lo, hi = mu.support
    n_t = 2 * dim + 3
    theta = np.arange(n_t) * (2.0 * np.pi / n_t)
    rs, wr = [], []
    mid = 0.5 * (lo + hi)
    for a, b in ((lo, mid), (mid, hi)):
        x, wq = gauss_legendre_nodes(a, b, 256)
        rs.append(x)
        wr.append(wq)
    r = np.concatenate(rs)
    wq = np.concatenate(wr) * 2.0 * r * mu.g(r) / n_t
    pts = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    f = basis_columns(bt, pts, dim)
    f *= np.sqrt(np.repeat(wq, n_t))
    return f


def matrix_trace(tm) -> float:
    """Trace of the truncated Toeplitz matrix, from its diagonal or factor rows."""
    if tm.diag is not None:
        return float(np.sum(tm.diag))
    return float(np.sum(np.abs(tm.factor[: tm.dim]) ** 2))


def dense_entries(tm) -> np.ndarray:
    """The dim x dim Hermitian matrix of tm, from its diagonal or factor rows."""
    if tm.diag is not None:
        return np.diag(tm.diag.astype(complex))
    f = tm.factor[: tm.dim]
    m = f.conj() @ f.T
    return 0.5 * (m + m.conj().T)


def log_normalized_kernel_sq_at(bt, z: complex, pts: np.ndarray) -> np.ndarray:
    """log |k_z(pt)|^2, vectorized over pts."""
    la, _ = kernel_at_points(bt, z, pts)
    return 2.0 * la - kernel_norm_sq(bt, z)


def berezin_measure(bt, mu, z: complex) -> float:
    """B(z) = int |k_z(xi)|^2 omega(xi) d mu(xi), one kernel series per node.

    The scalar oracle for berezin_many: a radial measure sums its diagonal
    symbols against |z|^(2n) / h_n, any other measure reads the checked node
    rule of operator_factor.
    """
    if abs(z) >= 1.0:
        raise DomainError("z must lie in the open unit disk")
    if mu.is_zero:
        return 0.0
    if isinstance(mu, RadialDensityMeasure):
        # <T_mu k_z, k_z> for a diagonal symbol: sum t_n |z|^(2n)/h_n / ||K_z||^2
        _, t, _ = operator_factor(bt, mu, bt.degree_max + 1)
        a = abs(z)
        n = np.arange(bt.degree_max + 1)
        if a == 0.0:
            base = np.where(n == 0, -bt.log_h, -np.inf)
        else:
            base = n * (2.0 * np.log(a)) - bt.log_h
        terms = np.exp(base - np.max(base))
        return float(np.sum(t * terms) / np.sum(terms))
    pts, wts = _checked_nodes(mu)
    log_k2 = log_normalized_kernel_sq_at(bt, z, pts)
    return float(np.sum(wts * np.exp(log_k2 + bt.weight.log_weight(np.abs(pts)))))


def region_radii_60_steps(w, xi: complex, delta: float, theta: np.ndarray) -> np.ndarray:
    """Boundary radius of an atom's region: 60 plain steps of the fixed-point map.

    Checks that the library's solve, which stops once its iterates cycle,
    returns the same bits.
    """
    rho = np.full(theta.shape, delta * float(w.tau(abs(xi))))
    e = np.exp(1j * theta)
    for _ in range(60):
        rho = delta * w.tau(np.minimum(np.abs(xi + rho * e), 1.0 - 1e-12))
    return rho


def gridded_muhat_lp_integral(w, mu, delta: float, ps: list, r_maxes: list) -> list:
    """Midpoint-grid integral of mu_hat^p d lambda_tau over the atoms' regions:
    per r_max in r_maxes, a list with one value per p in ps.

    The grid has 1200 x 1200 cells on the atoms' bounding box.  Each row's
    disk masses are computed once, on its cells in |z| <= max(r_maxes), and
    serve every p and every rung, which sums over its own |z| <= r_max.
    Checks the region rule of mu_hat_lp_norm on clustered atoms, overlapping
    ones included, to a few 1e-5 relative.  The cells scale with the
    bounding box, so atoms spread far apart leave small regions coarsely
    resolved: 0.85 and 0.9i beside a pair near 0.3 read 4.8% low at p = 1.
    """
    r_out = (4.0 / 3.0) * delta * w.tau(np.abs(mu.points))
    lo_x, hi_x = np.min(mu.points.real - r_out), np.max(mu.points.real + r_out)
    lo_y, hi_y = np.min(mu.points.imag - r_out), np.max(mu.points.imag + r_out)
    xs = np.linspace(lo_x, hi_x, 1201)
    ys = np.linspace(lo_y, hi_y, 1201)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0]) / np.pi
    totals = [[0.0] * len(ps) for _ in r_maxes]
    for row_y in cy:
        z = cx + 1j * row_y
        z = z[np.abs(z) <= max(r_maxes)]
        if z.size == 0:
            continue
        tau_z = w.tau(np.abs(z))
        mass = mu.disk_mass_many(z, delta * tau_z)
        pos = mass > 0
        terms = [mass[pos] ** p * tau_z[pos] ** (-2.0 * p - 2.0) for p in ps]
        r_pos = np.abs(z[pos])
        for rung, r_max in zip(totals, r_maxes):
            inner = r_pos <= r_max
            for k, t in enumerate(terms):
                rung[k] += cell * float(np.sum(t[inner]))
    return totals


def fubini_muhat_l1(w, mu, delta: float, r_max: float) -> float:
    """int mu_hat d lambda_tau over |z| <= r_max at p = 1, by Fubini.

    int mu_hat d lambda_tau = sum_j m_j int_{R_j} tau^(-4) dA, and each
    single-atom integral is the region rule's with nothing to share; so for
    overlapping atoms this checks the sharing against a sum that has none.
    """
    return sum(float(m) * mu_hat_lp_norm(w, AtomicMeasure([xi], [1.0]), delta, 1.0, r_max)
               for xi, m in zip(mu.points, mu.masses))
