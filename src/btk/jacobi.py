"""Round-robin Jacobi eigenvalue iteration for Hermitian matrices.

Each pivot (p, q) is annihilated by a complex rotation: the pivot's phase is
absorbed into the rotation so the remaining 2x2 problem is the classical real
one.  Pivots are visited in round-robin (Brent-Luk) order: a sweep is n - 1
rounds of floor(n/2) disjoint pairs (odd n gets a phantom index whose pairs
are dropped, so n rounds), and the rotations of one round commute, so they
are applied together as gathers and scatters on the paired columns, then on
the paired rows.  Nothing in the library calls it: ``btk.toeplitz`` takes
spectra from the factor, whose singular values keep the relative accuracy
that two-sided Jacobi on a Gram matrix loses.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep: per round, index arrays (p, q) with p < q covering disjoint pairs.

    Circle method: index 0 stays put while the others rotate one seat per
    round, so every pair of 0..n-1 meets exactly once.
    """
    m = n + (n % 2)
    seats = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        a, b = seats[: m // 2], seats[m - 1 : m // 2 - 1 : -1]
        keep = (a < n) & (b < n)
        rounds.append((np.minimum(a, b)[keep], np.maximum(a, b)[keep]))
        seats = np.concatenate(([0], seats[-1:], seats[1:-1]))
    return rounds


def jacobi_eigvalsh(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Sweeps over all pivots in round-robin order until the off-diagonal
    Frobenius norm drops below tol * ||matrix||_F.  Raises ConvergenceError
    after max_sweeps full sweeps.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if n == 0:
        return np.array([])
    if n == 1:
        return np.array([a[0, 0].real])
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)

    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        if _off_norm(a) <= tol * norm:
            return np.sort(np.diag(a).real)
        for p, q in rounds:
            apq = a[p, q]
            mag = np.abs(apq)
            live = mag > 1e-30 * norm
            p, q, apq, mag = p[live], q[live], apq[live], mag[live]
            phase = apq / mag
            theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
            sgn = np.where(theta >= 0.0, 1.0, -1.0)
            t = sgn / (np.abs(theta) + np.hypot(1.0, theta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # G e_p = c e_p - s conj(phase) e_q ; G e_q = s phase e_p + c e_q
            sph = s * phase
            col_p = a[:, p]
            col_q = a[:, q]
            a[:, p] = c * col_p - np.conj(sph) * col_q
            a[:, q] = sph * col_p + c * col_q
            row_p = a[p, :]
            row_q = a[q, :]
            a[p, :] = c[:, None] * row_p - sph[:, None] * row_q
            a[q, :] = np.conj(sph)[:, None] * row_p + c[:, None] * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
    if _off_norm(a) <= tol * norm:
        return np.sort(np.diag(a).real)
    raise ConvergenceError(
        f"Jacobi iteration failed to converge in {max_sweeps} sweeps"
    )
