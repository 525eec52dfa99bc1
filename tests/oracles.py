"""Reference rules that only the tests use to cross-check the library."""

import numpy as np

from btk.basis import basis_columns
from btk.errors import ConvergenceError
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
