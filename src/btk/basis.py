"""Monomial norms and reproducing kernels, all in log space.

For a radial weight the monomials z^n / sqrt(h_n) with
``h_n = 2 int_0^1 r^(2n+1) omega(r) dr`` are an orthonormal basis, and the
reproducing kernel is the series ``K_z(zeta) = sum (zeta conj(z))^n / h_n``.
Magnitudes of h_n and of kernel values overflow/underflow doubles quickly, so
kernels are returned as (log_abs, phase) pairs and diagonal values as logs.
Every series term is a real modulus a_n(r) = |e_n(r)| sqrt(omega(r)), one
exp of its log, times phases built by doubling rather than by a complex exp:
the weighted basis columns behind the Toeplitz factors are a_n(|z|) (z/|z|)^n,
and the kernel series at w = zeta conj(z) sums a_n(sqrt|w|)^2 (w/|w|)^n.
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

#: entries (points x degrees) of one chunk of a kernel series, and the chunk
#: budget of the Berezin fields in measures; read at call time, so that tests
#: can shrink it
CHUNK_ENTRIES = 2**19


@dataclass(frozen=True)
class BasisTable:
    """Monomial norm table log h_n, n = 0..degree_max, for one weight.

    Raises DomainError unless log_h holds degree_max + 1 strictly decreasing
    values.
    """

    weight: RadialWeight
    degree_max: int
    log_h: np.ndarray

    def __post_init__(self):
        if len(self.log_h) != self.degree_max + 1:
            raise DomainError(
                f"monomial norm table has {len(self.log_h)} entries, "
                f"not degree_max + 1 = {self.degree_max + 1}"
            )
        if not np.all(np.diff(self.log_h) < 0.0):
            raise DomainError("monomial norms are not strictly decreasing")


def build_basis_table(w: RadialWeight, degree_max: int = 2000) -> BasisTable:
    return BasisTable(w, degree_max, log_monomial_norms(w, degree_max))


def unit_powers(unit: np.ndarray, n_terms: int) -> np.ndarray:
    """p[n, k] = unit_k^n for n < n_terms, by doubling.

    Rows [k, 2k) are rows [0, k) times unit^k, with unit^k from repeated
    squaring: 11 vector multiplies for 2001 rows.  Each squaring doubles the
    relative error of unit^k, so row n is off by O(n eps), where
    exp(i n theta) first rounds theta and n theta, an O(n |theta| eps) error
    of its own.  1, -1 and +-1j give exact powers.
    """
    unit = np.asarray(unit, dtype=complex).ravel()
    p = np.empty((n_terms, unit.size), dtype=complex)
    if n_terms == 0:
        return p
    p[0] = 1.0
    step = unit.copy()
    k = 1
    while k < n_terms:
        m = min(k, n_terms - k)
        np.multiply(p[:m], step, out=p[k : k + m])
        k *= 2
        if k < n_terms:
            step *= step
    return p


def _moduli(bt: BasisTable, log_r: np.ndarray, phi_r: np.ndarray, lo: int, hi: int):
    """Rows lo..hi-1 of basis_moduli, from log r and phi(r) of its radii."""
    with np.errstate(invalid="ignore"):
        t = np.multiply.outer(np.arange(lo, hi), log_r)
    if lo == 0:
        # the n = 0 term has no r^n; 0 * log 0 made it nan
        t[0] = 0.0
    t -= 0.5 * bt.log_h[lo:hi, None]
    t -= phi_r
    return np.exp(t, out=t)


def basis_moduli(bt: BasisTable, radii: np.ndarray, n_terms: int) -> np.ndarray:
    """a[n, k] = |e_n(r_k)| sqrt(omega(r_k)) for n < n_terms and radii r_k >= 0.

    One real exp of n log r - (1/2) log h_n - phi(r); a zero radius keeps
    only its n = 0 term.
    """
    radii = np.asarray(radii, dtype=float).ravel()
    with np.errstate(divide="ignore"):
        log_r = np.log(radii)
    return _moduli(bt, log_r, bt.weight.phi(radii), 0, n_terms)


#: rows of the real modulus that basis_columns builds at a time
MODULUS_ROWS = 64


def polar_parts(pts: np.ndarray):
    """(|pt|, pt / |pt|) per point, with unit 1 at a zero point.

    Each part is divided on its own, so that real points give exact units; a
    zero point's unit is 1, its rows n >= 1 having modulus 0.
    """
    r = np.abs(pts)
    with np.errstate(invalid="ignore"):
        unit = pts.real / r + 1j * (pts.imag / r)
    unit[r == 0] = 1.0
    return r, unit


def basis_columns(bt: BasisTable, pts: np.ndarray, n_terms: int) -> np.ndarray:
    """u[n, k] = e_n(pt_k) sqrt(omega(pt_k)) for n < n_terms.

    Column k holds the weighted basis at pt_k, so over the first n_terms
    degrees sum_n |u[n, k]|^2 is omega(pt_k) ||K_pt_k||^2, and for columns u
    at points p and v at points q, (u^H v)[j, k] is
    sqrt(omega(p_j) omega(q_k)) K_p_j(q_k).  u is the phases
    unit_powers(pt / |pt|) times basis_moduli(|pt|), the moduli built
    MODULUS_ROWS rows at a time inside the phase array, so that u is the
    only full-size array: the atomic factor asks for every degree of the
    table.
    """
    r, unit = polar_parts(np.asarray(pts, dtype=complex).ravel())
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    phi_r = bt.weight.phi(r)
    u = unit_powers(unit, n_terms)
    for lo in range(0, n_terms, MODULUS_ROWS):
        hi = min(lo + MODULUS_ROWS, n_terms)
        u[lo:hi] *= _moduli(bt, log_r, phi_r, lo, hi)
    return u


def _require_in_disk(*zs):
    for z in zs:
        if not abs(z) < 1.0:
            raise DomainError(f"point {z} is not in the open unit disk")


def _series(bt: BasisTable, s: np.ndarray, unit: np.ndarray | None, caller: str):
    """sum_n w^n / h_n over every degree of the table, per point, in log space.

    w = s^2 unit with s = sqrt|w| and unit = w / |w|, or None when every
    w >= 0, which skips the phase.  The terms are a_n(s)^2 unit^n with
    a = basis_moduli(s), a_n(s)^2 = |w|^n / h_n exp(-2 phi(s)), so the value
    is log|sum| + 2 phi(s); phase is None when unit is.  Points are summed in
    chunks of at most CHUNK_ENTRIES terms (one point at least), each point's
    a^2 one contiguous row, whose sum does not depend on the chunk.
    TruncationError, naming caller, is raised when some point's a_N^2
    exceeds TAIL_FRACTION of its sum_n a_n^2, or when that sum is 0 or inf:
    far beyond the table's reach, exp(-2 phi(s)) scales every term out of range.
    """
    n_terms = bt.degree_max + 1
    log_abs = np.empty(s.shape)
    phase = None if unit is None else np.empty(s.shape)
    chunk = max(1, CHUNK_ENTRIES // n_terms)
    for s0 in range(0, s.size, chunk):
        cut = slice(s0, s0 + chunk)
        a2 = np.square(basis_moduli(bt, s[cut], n_terms).T, order="C")
        mag_sum = np.sum(a2, axis=1)
        bad = (a2[:, -1] > TAIL_FRACTION * mag_sum) | ~((mag_sum > 0.0) & (mag_sum < np.inf))
        if np.any(bad):
            raise TruncationError(
                f"{caller}: last series term above {TAIL_FRACTION:g} of the magnitude "
                f"sum at point {s0 + int(np.argmax(bad))}; increase degree_max or "
                "move off the boundary"
            )
        if unit is None:
            total = mag_sum
        else:
            total = np.einsum("kn,nk->k", a2, unit_powers(unit[cut], n_terms))
            phase[cut] = np.angle(total)
        with np.errstate(divide="ignore"):
            log_abs[cut] = np.log(np.abs(total)) + 2.0 * bt.weight.phi(s[cut])
    return log_abs, phase


def kernel(bt: BasisTable, z: complex, zeta: complex):
    """K_z(zeta) as (log_abs, phase).

    Raises TruncationError when the truncated series is inadequate at (z, zeta).
    """
    _require_in_disk(z, zeta)
    r, unit = polar_parts(np.array([zeta * np.conj(z)]))
    la, ph = _series(bt, np.sqrt(r), unit, "kernel")
    return float(la[0]), float(ph[0])


def kernel_at_points(bt: BasisTable, z: complex, pts: np.ndarray):
    """Vectorized K_z(pt) for an array of points; returns (log_abs, phase) arrays."""
    _require_in_disk(z)
    pts = np.asarray(pts, dtype=complex)
    if not np.all(np.abs(pts) < 1.0):
        raise DomainError("evaluation points must lie in the open unit disk")
    r, unit = polar_parts(pts.ravel() * np.conj(z))
    la, ph = _series(bt, np.sqrt(r), unit, "kernel_at_points")
    return la.reshape(pts.shape), ph.reshape(pts.shape)


def kernel_norm_sq(bt: BasisTable, z: complex) -> float:
    """log ||K_z||^2 = log K_z(z) = log sum |z|^(2n) / h_n."""
    _require_in_disk(z)
    la, _ = _series(bt, np.array([abs(z)]), None, "kernel_norm_sq")
    return float(la[0])


def kernel_norm_sq_many(bt: BasisTable, radii: np.ndarray) -> np.ndarray:
    """Vectorized log ||K_r||^2 over an array of radii in [0, 1)."""
    radii = np.asarray(radii, dtype=float)
    if not np.all((radii >= 0.0) & (radii < 1.0)):
        raise DomainError("radii must lie in [0, 1)")
    la, _ = _series(bt, radii.ravel(), None, "kernel_norm_sq_many")
    return la.reshape(radii.shape)


def normalized_kernel(bt: BasisTable, z: complex, zeta: complex):
    """k_z(zeta) = K_z(zeta) / ||K_z|| as (log_abs, phase)."""
    la, ph = kernel(bt, z, zeta)
    return (la - 0.5 * kernel_norm_sq(bt, z), ph)


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
) -> float:
    """Ratio of |f(z)|^p omega(z)^beta to its average over D(delta tau(z)).

    The average is (1 / (delta^2 tau^2)) * int_{D(delta tau(z))} |f|^p
    omega^beta dA; under the normalized area measure the disk has mass
    delta^2 tau^2, so the ratio is exactly 1 for constant integrands.  The
    disk rule has 64 radial and 128 angular nodes.
    """
    _require_in_disk(z)
    if not p > 0:
        raise DomainError("p must be positive")
    w = bt.weight
    w.require_delta(delta)
    coeffs = np.asarray(f_coeffs, dtype=complex)
    tau_z = float(w.tau(abs(z)))
    rho = delta * tau_z
    pts, wts = disk_nodes(z, rho, n_r=64, n_t=128)
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
