"""Toeplitz operator matrices in the monomial basis, spectra, Schatten norms.

Entry (m, n) is int e_n(xi) conj(e_m(xi)) omega(xi) d mu(xi).  Three assembly
structures:

* ``diagonal`` — radial measures; the angular integral kills off-diagonals
  analytically and the diagonal reduces to a radial moment integral.
* ``finite_rank`` — atomic measures; with the weighted basis columns
  Y[n, k] = e_n(xi_k) sqrt(m_k omega(xi_k)) over every degree of the table,
  the J x J Gram matrix Y^H Y (entry (j, k) is
  sqrt(m_j omega(xi_j) m_k omega(xi_k)) K_{xi_j}(xi_k)) carries the full
  nonzero spectrum with no basis truncation, and the dim-row factor Y[:dim]
  gives the truncated matrix conj(Y) Y^T without forming it.
* ``dense`` — generic (grid) measures, or truncated validation assemblies of
  the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisTable, kernel, kernel_norm_sq
from .errors import DomainError, ParameterError, PSDViolationError
from .jacobi import jacobi_eigvalsh
from .measures import (
    AtomicMeasure,
    GridDensityMeasure,
    Measure,
    RadialDensityMeasure,
)
from .quadrature import gauss_legendre_nodes, radial_log_moments

#: negative eigenvalues of magnitude below this fraction of the largest
#: eigenvalue are clipped to 0; larger ones raise PSDViolationError
CLIP_FRACTION = 1e-10


@dataclass(frozen=True)
class ToeplitzMatrix:
    basis: BasisTable
    dim: int
    structure: str                      # "diagonal" | "finite_rank" | "dense"
    diag: np.ndarray | None = None      # (dim,) real, radial fast path
    gram: np.ndarray | None = None      # (J, J) Hermitian, atomic fast path
    factor: np.ndarray | None = None    # (dim, J) Y[:dim], atomic fast path
    dense: np.ndarray | None = None     # (dim, dim) Hermitian

    def entries(self) -> np.ndarray:
        """The dim x dim Hermitian matrix (truncated for finite_rank)."""
        if self.structure == "diagonal":
            return np.diag(self.diag.astype(complex))
        if self.structure == "finite_rank":
            return _hermitianize(self.factor.conj() @ self.factor.T)
        return self.dense

    def matrix_trace(self) -> float:
        if self.structure == "diagonal":
            return float(np.sum(self.diag))
        if self.structure == "finite_rank":
            return float(np.sum(np.abs(self.factor) ** 2))
        return float(np.trace(self.dense).real)


def _log_sqrt_h(bt: BasisTable, dim: int) -> np.ndarray:
    return 0.5 * bt.log_h[:dim]


def _basis_columns(bt: BasisTable, pts: np.ndarray, dim: int) -> np.ndarray:
    """u[n, k] = e_n(pt_k) sqrt(omega(pt_k)), computed in log space."""
    pts = np.asarray(pts, dtype=complex)
    n = np.arange(dim)
    # one complex array exponentiated in place: the finite-rank Gram asks for
    # every degree of the table, where (degree_max+1) x J temporaries would
    # set its peak memory
    u = np.empty((dim, pts.size), dtype=complex)
    np.multiply.outer(n, np.angle(pts), out=u.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.where(pts == 0, -np.inf, np.log(np.abs(pts)))
        u.real = (
            n[:, None] * log_abs[None, :]
            - _log_sqrt_h(bt, dim)[:, None]
            - bt.weight.phi(np.abs(pts))[None, :]
        )
        # 0 * log 0 is nan in the n = 0 row of a zero point; that column is
        # overwritten below
        np.exp(u, out=u)
    if np.any(pts == 0):
        zero = pts == 0
        u[:, zero] = 0.0
        u[0, zero] = np.exp(-_log_sqrt_h(bt, 1)[0] - bt.weight.phi(0.0))
    return u


def _hermitianize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _assemble_diagonal(bt: BasisTable, mu: RadialDensityMeasure, dim: int):
    logmom = radial_log_moments(
        bt.weight, dim - 1, log_density=mu.log_g, support=mu.support
    )
    with np.errstate(over="raise"):
        diag = np.where(
            np.isfinite(logmom),
            np.exp(np.log(2.0) + logmom - bt.log_h[:dim]),
            0.0,
        )
    return ToeplitzMatrix(bt, dim, "diagonal", diag=diag)


def _assemble_finite_rank(bt: BasisTable, mu: AtomicMeasure, dim: int):
    pts = mu.points
    # The kernel series of a pair (xi_j, xi_k) has terms |xi_j xi_k|^n / h_n,
    # and its tail ratio (r^N / h_N) / sum r^n / h_n grows with r (its log
    # derivative is (N - E[n]) / r >= 0), so the pair at the atom of largest
    # modulus is the worst: checking it raises TruncationError exactly when
    # some pair's series is inadequate.
    outer = pts[np.argmax(np.abs(pts))]
    kernel(bt, outer, outer)
    y = _basis_columns(bt, pts, bt.degree_max + 1)
    y *= np.sqrt(mu.masses)
    gram = _hermitianize(y.conj().T @ y)
    return ToeplitzMatrix(bt, dim, "finite_rank", gram=gram, factor=y[:dim].copy())


def _weighted_outer(u: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """entries[m, n] = sum_k wts_k u[n, k] conj(u[m, k])  (= <T e_n, e_m>)."""
    return _hermitianize((u.conj() * wts[None, :]) @ u.T)


def _atomic_dense(bt: BasisTable, mu: AtomicMeasure, dim: int) -> np.ndarray:
    u = _basis_columns(bt, mu.points, dim)
    return _weighted_outer(u, mu.masses)


def _grid_dense(bt: BasisTable, mu: GridDensityMeasure, dim: int) -> np.ndarray:
    # 2x2 interior samples per cell, radially area-weighted, like the Berezin
    # quadrature for grid measures
    offs = np.array([0.25, 0.75])
    pts, wts = [], []
    re, te = mu.r_edges, mu.t_edges
    for i in range(mu.nr):
        row = mu.cells[i]
        if not row.any():
            continue
        rs = re[i] + (re[i + 1] - re[i]) * offs
        rw = rs / np.sum(rs) / 2.0
        for j in range(mu.ntheta):
            if row[j] == 0.0:
                continue
            ts = te[j] + (te[j + 1] - te[j]) * offs
            p = rs[:, None] * np.exp(1j * ts)[None, :]
            pts.append(p.ravel())
            wts.append(row[j] * np.repeat(rw, 2))
    if not pts:
        return np.zeros((dim, dim), dtype=complex)
    pts = np.concatenate(pts)
    wts = np.concatenate(wts)
    u = _basis_columns(bt, pts, dim)
    return _weighted_outer(u, wts)


def _radial_dense(bt: BasisTable, mu: RadialDensityMeasure, dim: int,
                  n_r: int = 512) -> np.ndarray:
    """Truncated polar-quadrature assembly of a radial measure.

    The angular rule has 2*dim+3 uniform nodes, which integrates every
    e_n conj(e_m) phase factor exactly, so off-diagonals vanish to rounding.
    Exists to validate the diagonal fast path.
    """
    lo, hi = mu.support
    n_t = 2 * dim + 3
    theta = np.arange(n_t) * (2.0 * np.pi / n_t)
    rs, wr = [], []
    mid = 0.5 * (lo + hi)
    for a, b in ((lo, mid), (mid, hi)):
        x, wq = gauss_legendre_nodes(a, b, n_r // 2)
        rs.append(x)
        wr.append(wq)
    r = np.concatenate(rs)
    wq = np.concatenate(wr) * 2.0 * r * mu.g(r) / n_t
    pts = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    wts = np.repeat(wq, n_t)
    u = _basis_columns(bt, pts, dim)
    return _weighted_outer(u, wts)


def assemble_toeplitz(
    bt: BasisTable, mu: Measure, dim: int, structure: str | None = None
) -> ToeplitzMatrix:
    """Assemble the truncated Toeplitz matrix of mu in the monomial basis.

    structure overrides the fast-path choice; "dense" forces the truncated
    quadrature/sum assembly used as a validation oracle.
    """
    if not (1 <= dim <= bt.degree_max + 1):
        raise DomainError(f"dim must lie in [1, {bt.degree_max + 1}]")
    if mu.is_zero:
        return ToeplitzMatrix(bt, dim, "diagonal", diag=np.zeros(dim))
    if structure == "dense":
        if isinstance(mu, AtomicMeasure):
            dense = _atomic_dense(bt, mu, dim)
        elif isinstance(mu, RadialDensityMeasure):
            dense = _radial_dense(bt, mu, dim)
        elif isinstance(mu, GridDensityMeasure):
            dense = _grid_dense(bt, mu, dim)
        else:
            raise ParameterError(f"unsupported measure type {type(mu).__name__}")
        return ToeplitzMatrix(bt, dim, "dense", dense=dense)
    if structure not in (None, "diagonal", "finite_rank"):
        raise ParameterError(f"unknown structure {structure!r}")
    if isinstance(mu, RadialDensityMeasure):
        return _assemble_diagonal(bt, mu, dim)
    if isinstance(mu, AtomicMeasure):
        return _assemble_finite_rank(bt, mu, dim)
    if isinstance(mu, GridDensityMeasure):
        return ToeplitzMatrix(bt, dim, "dense", dense=_grid_dense(bt, mu, dim))
    raise ParameterError(f"unsupported measure type {type(mu).__name__}")


@dataclass(frozen=True)
class SpectrumReport:
    """Clipped nonnegative eigenvalues (descending) plus truncation metadata."""

    eigenvalues: np.ndarray = field(repr=False)
    dim: int
    structure: str
    clip_magnitude: float       # largest negative eigenvalue clipped to 0
    tail_estimate: float        # smallest retained eigenvalue times dim

    @property
    def operator_norm(self) -> float:
        return float(self.eigenvalues[0]) if len(self.eigenvalues) else 0.0

    @property
    def trace(self) -> float:
        return float(math.fsum(self.eigenvalues))

    def tail_flag(self, p: float) -> bool:
        """True when the truncation-tail heuristic exceeds 1% of the norm^p."""
        total = math.fsum(float(x) ** p for x in self.eigenvalues if x > 0.0)
        return total > 0.0 and self.tail_estimate**p * self.dim > 0.01 * total


def spectrum(tm: ToeplitzMatrix, jacobi_tol: float = 1e-12) -> SpectrumReport:
    if tm.structure == "diagonal":
        ev = np.array(tm.diag, dtype=float)
    elif tm.structure == "finite_rank":
        ev = jacobi_eigvalsh(tm.gram, tol=jacobi_tol)
        ev = np.concatenate([ev, np.zeros(max(tm.dim - len(ev), 0))])
    else:
        ev = jacobi_eigvalsh(tm.dense, tol=jacobi_tol)
    ev = np.sort(ev)[::-1].copy()
    scale = float(np.max(np.abs(ev))) if len(ev) else 0.0
    clip = 0.0
    if scale > 0.0 and ev[-1] < 0.0:
        worst = float(-ev[-1])
        if worst > CLIP_FRACTION * scale:
            raise PSDViolationError(
                f"eigenvalue {-worst:.3e} below -{CLIP_FRACTION:g} * {scale:.3e}; "
                "the assembled matrix is not numerically PSD"
            )
        clip = worst
        ev = np.maximum(ev, 0.0)
    tail = float(ev[-1]) * tm.dim if len(ev) else 0.0
    return SpectrumReport(
        eigenvalues=ev,
        dim=tm.dim,
        structure=tm.structure,
        clip_magnitude=clip,
        tail_estimate=tail,
    )


def schatten_norm(report: SpectrumReport, p: float) -> float:
    """(sum lambda_n^p)^(1/p) with compensated summation."""
    if p <= 0.0:
        raise ParameterError("p must be positive")
    s = math.fsum(float(x) ** p for x in report.eigenvalues if x > 0.0)
    return s ** (1.0 / p)


def berezin_operator(bt: BasisTable, tm: ToeplitzMatrix, z: complex) -> float:
    """T~(z) = <T k_z, k_z> = v* M v with v_n = conj(z)^n / (sqrt(h_n) ||K_z||)."""
    if abs(z) >= 1.0:
        raise DomainError("z must lie in the open unit disk")
    dim = tm.dim
    n = np.arange(dim)
    a = abs(z)
    with np.errstate(divide="ignore"):
        log_abs_v = (
            (n * np.log(a) if a > 0 else np.where(n == 0, 0.0, -np.inf))
            - _log_sqrt_h(bt, dim)
            - 0.5 * kernel_norm_sq(bt, z)
        )
    v = np.exp(log_abs_v) * np.exp(-1j * n * np.angle(z))
    if tm.structure == "diagonal":
        return float(np.dot(tm.diag, np.abs(v) ** 2))
    if tm.structure == "finite_rank":
        return float(np.sum(np.abs(tm.factor.T @ v) ** 2))
    return float(np.real(np.vdot(v, tm.dense @ v)))


def spectrum_to_json(report: SpectrumReport, ps=(0.5, 1.0, 2.0)) -> dict:
    return {
        "dim": report.dim,
        "structure": report.structure,
        "operator_norm": report.operator_norm,
        "trace": report.trace,
        "clip_magnitude": report.clip_magnitude,
        "tail_estimate": report.tail_estimate,
        "schatten_norms": {str(p): schatten_norm(report, p) for p in ps},
        "eigenvalues": [float(x) for x in report.eigenvalues],
    }
