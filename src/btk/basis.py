"""Monomial norms and reproducing kernels, all in log space.

For a radial weight the monomials z^n / sqrt(h_n) with
``h_n = 2 int_0^1 r^(2n+1) omega(r) dr`` are an orthonormal basis, and the
reproducing kernel is the series ``K_z(zeta) = sum (zeta conj(z))^n / h_n``.
Magnitudes of h_n and of kernel values overflow/underflow doubles quickly, so
kernels are returned as (log_abs, phase) pairs and diagonal values as logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .quadrature import disk_nodes, log_monomial_norms
from .weights import RadialWeight

#: a truncated series is adequate when its last term is below this fraction of
#: the magnitude sum
TAIL_FRACTION = 1e-15


@dataclass(frozen=True)
class BasisTable:
    """Monomial norm table log h_n, n = 0..degree_max, for one weight."""

    weight: RadialWeight
    degree_max: int
    log_h: np.ndarray
    quad_tolerance: float

    def fingerprint(self) -> str:
        return f"{self.weight.fingerprint()}-d{self.degree_max}-t{self.quad_tolerance:g}"


def build_basis_table(
    w: RadialWeight, degree_max: int = 2000, tol: float = 1e-9
) -> BasisTable:
    if degree_max < 0:
        raise DomainError("degree_max must be >= 0")
    log_h = log_monomial_norms(w, degree_max, tol=tol)
    if degree_max >= 1 and not np.all(np.diff(log_h) < 0.0):
        raise DomainError("computed monomial norms are not strictly decreasing")
    return BasisTable(weight=w, degree_max=degree_max, log_h=log_h, quad_tolerance=tol)


def basis_columns(bt: BasisTable, pts: np.ndarray, n_terms: int) -> np.ndarray:
    """u[n, k] = e_n(pt_k) sqrt(omega(pt_k)) for n < n_terms, computed in log space.

    Column k holds the weighted basis at pt_k, so over the first n_terms
    degrees sum_n |u[n, k]|^2 is omega(pt_k) ||K_pt_k||^2, and for columns u
    at points p and v at points q, (u^H v)[j, k] is
    sqrt(omega(p_j) omega(q_k)) K_p_j(q_k).
    """
    pts = np.asarray(pts, dtype=complex).ravel()
    n = np.arange(n_terms)
    # one complex array exponentiated in place: the finite-rank Gram asks for
    # every degree of the table, where (degree_max+1) x J temporaries would
    # set its peak memory
    u = np.empty((n_terms, pts.size), dtype=complex)
    np.multiply.outer(n, np.angle(pts), out=u.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.where(pts == 0, -np.inf, np.log(np.abs(pts)))
        u.real = (
            n[:, None] * log_abs[None, :]
            - 0.5 * bt.log_h[:n_terms, None]
            - bt.weight.phi(np.abs(pts))[None, :]
        )
        # 0 * log 0 is nan in the n = 0 row of a zero point; that column is
        # overwritten below
        np.exp(u, out=u)
    if np.any(pts == 0):
        zero = pts == 0
        u[:, zero] = 0.0
        u[0, zero] = np.exp(-0.5 * bt.log_h[0] - bt.weight.phi(0.0))
    return u


def _require_in_disk(*zs):
    for z in zs:
        if abs(z) >= 1.0:
            raise DomainError(f"point {z} is not in the open unit disk")


def _series_log_terms(bt: BasisTable, log_w_abs: float, n_terms: int):
    n = np.arange(n_terms)
    return n * log_w_abs - bt.log_h[:n_terms]


def _check_tail(t: np.ndarray, context: str) -> None:
    m = np.max(t)
    log_mag_sum = m + np.log(np.sum(np.exp(t - m)))
    if t[-1] > np.log(TAIL_FRACTION) + log_mag_sum:
        raise TruncationError(
            f"{context}: last series term is {np.exp(t[-1] - log_mag_sum):.2e} "
            "of the magnitude sum; increase degree_max or move off the boundary"
        )


def kernel(bt: BasisTable, z: complex, zeta: complex, n_terms: int | None = None):
    """K_z(zeta) as (log_abs, phase).

    Raises TruncationError when the truncated series is inadequate at (z, zeta).
    """
    _require_in_disk(z, zeta)
    n_terms = bt.degree_max + 1 if n_terms is None else n_terms
    w = zeta * np.conj(z)
    if w == 0:
        return (-float(bt.log_h[0]), 0.0)
    t = _series_log_terms(bt, np.log(abs(w)), n_terms)
    _check_tail(t, "kernel")
    m = float(np.max(t))
    s = np.sum(np.exp(t - m) * np.exp(1j * np.arange(n_terms) * np.angle(w)))
    if s == 0:
        return (-np.inf, 0.0)
    return (m + float(np.log(abs(s))), float(np.angle(s)))


def kernel_at_points(
    bt: BasisTable,
    z: complex,
    pts: np.ndarray,
    n_terms: int | None = None,
    chunk: int = 4096,
):
    """Vectorized K_z(pt) for an array of points; returns (log_abs, phase) arrays."""
    _require_in_disk(z)
    pts = np.asarray(pts, dtype=complex)
    if np.any(np.abs(pts) >= 1.0):
        raise DomainError("evaluation points must lie in the open unit disk")
    n_terms = bt.degree_max + 1 if n_terms is None else n_terms
    n = np.arange(n_terms)
    log_h = bt.log_h[:n_terms]
    out_la = np.empty(pts.shape, dtype=float)
    out_ph = np.empty(pts.shape, dtype=float)
    flat = pts.ravel()
    la = out_la.ravel()
    ph = out_ph.ravel()
    for s0 in range(0, flat.size, chunk):
        wv = flat[s0 : s0 + chunk] * np.conj(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_abs_w = np.where(wv == 0, -np.inf, np.log(np.abs(wv)))
            t = n[None, :] * log_abs_w[:, None] - log_h[None, :]
        t = np.where(np.isnan(t), -np.inf, t)
        t[wv == 0, 0] = -log_h[0]
        m = np.max(t, axis=1)
        mag = np.exp(t - m[:, None])
        # adequacy on the worst point of the chunk
        mag_sum = np.sum(mag, axis=1)
        bad = mag[:, -1] > TAIL_FRACTION * mag_sum
        if np.any(bad):
            raise TruncationError(
                f"kernel_at_points: truncation inadequate at "
                f"{int(np.sum(bad))} of {wv.size} points"
            )
        s = np.einsum("ij,ij->i", mag, np.exp(1j * n[None, :] * np.angle(wv)[:, None]))
        la[s0 : s0 + chunk] = m + np.log(np.abs(s))
        ph[s0 : s0 + chunk] = np.angle(s)
    return out_la, out_ph


def kernel_norm_sq(bt: BasisTable, z: complex, n_terms: int | None = None) -> float:
    """log ||K_z||^2 = log K_z(z) = log sum |z|^(2n) / h_n."""
    _require_in_disk(z)
    n_terms = bt.degree_max + 1 if n_terms is None else n_terms
    a = abs(z)
    if a == 0:
        return -float(bt.log_h[0])
    t = _series_log_terms(bt, 2.0 * np.log(a), n_terms)
    _check_tail(t, "kernel_norm_sq")
    m = float(np.max(t))
    return m + float(np.log(np.sum(np.exp(t - m))))


def kernel_norm_sq_many(bt: BasisTable, radii: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Vectorized log ||K_r||^2 over an array of radii in [0, 1)."""
    radii = np.asarray(radii, dtype=float)
    if np.any(radii >= 1.0) or np.any(radii < 0.0):
        raise DomainError("radii must lie in [0, 1)")
    n = np.arange(bt.degree_max + 1)
    out = np.empty(radii.shape)
    flat = radii.ravel()
    o = out.ravel()
    for s0 in range(0, flat.size, chunk):
        r = flat[s0 : s0 + chunk]
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = np.where(r == 0, -np.inf, 2.0 * np.log(r))
            t = n[None, :] * lw[:, None] - bt.log_h[None, :]
        t = np.where(np.isnan(t), -np.inf, t)
        t[r == 0, 0] = -bt.log_h[0]
        m = np.max(t, axis=1)
        mag = np.exp(t - m[:, None])
        ssum = np.sum(mag, axis=1)
        if np.any(mag[:, -1] > TAIL_FRACTION * ssum):
            raise TruncationError("kernel_norm_sq_many: truncation inadequate")
        o[s0 : s0 + chunk] = m + np.log(ssum)
    return out


def normalized_kernel(bt: BasisTable, z: complex, zeta: complex):
    """k_z(zeta) = K_z(zeta) / ||K_z|| as (log_abs, phase)."""
    la, ph = kernel(bt, z, zeta)
    return (la - 0.5 * kernel_norm_sq(bt, z), ph)


def log_normalized_kernel_sq_at(
    bt: BasisTable, z: complex, pts: np.ndarray, n_terms: int | None = None
) -> np.ndarray:
    """log |k_z(pt)|^2, vectorized over pts."""
    la, _ = kernel_at_points(bt, z, pts, n_terms=n_terms)
    return 2.0 * la - kernel_norm_sq(bt, z, n_terms=n_terms)


def _log_abs_poly(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    vals = np.polynomial.polynomial.polyval(pts, coeffs)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals))


def check_submeanvalue(
    bt: BasisTable,
    f_coeffs,
    z: complex,
    p: float,
    beta: float,
    delta: float,
    n_r: int = 64,
    n_t: int = 128,
) -> float:
    """Ratio of |f(z)|^p omega(z)^beta to its average over D(delta tau(z)).

    The average is (1 / (delta^2 tau^2)) * int_{D(delta tau(z))} |f|^p
    omega^beta dA; under the normalized area measure the disk has mass
    delta^2 tau^2, so the ratio is exactly 1 for constant integrands.
    """
    _require_in_disk(z)
    if p <= 0:
        raise DomainError("p must be positive")
    w = bt.weight
    coeffs = np.asarray(f_coeffs, dtype=complex)
    tau_z = float(w.tau(abs(z)))
    rho = delta * tau_z
    pts, wts = disk_nodes(z, rho, n_r=n_r, n_t=n_t)
    log_num = p * float(_log_abs_poly(coeffs, np.array([z]))[0]) + beta * float(
        w.log_weight(abs(z))
    )
    log_f = p * _log_abs_poly(coeffs, pts) + beta * w.log_weight(np.abs(pts))
    m = np.max(log_f)
    if not np.isfinite(m):
        raise DomainError("test function vanishes identically on the disk")
    log_int = m + np.log(np.sum(wts * np.exp(log_f - m)))
    log_den = log_int - 2.0 * np.log(delta) - 2.0 * np.log(tau_z)
    if not np.isfinite(log_num):
        return 0.0
    return float(np.exp(log_num - log_den))
