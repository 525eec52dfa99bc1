"""Toeplitz operator matrices in the monomial basis, spectra, Schatten norms.

Entry (m, n) is int e_n(xi) conj(e_m(xi)) omega(xi) d mu(xi).  A radial
measure gives a diagonal: the angular integral kills off-diagonals
analytically and the diagonal reduces to a radial moment integral.  Every
other measure is a quadrature or sum over nodes xi_k with weights w_k, and
gives a factor F[n, k] = e_n(xi_k) sqrt(omega(xi_k) w_k) with T = conj(F) F^T.
The diagonal and the factor both come from ``measures.operator_factor``, the
node rule that the Berezin transform of the measure shares:

* atoms (label ``finite_rank``) keep F over every degree of the table, so
  sigma(F)^2 is the full nonzero spectrum with no basis truncation, and the
  dim-row block F[:dim] gives the truncated matrix;
* grids (label ``dense``) keep F[:dim] over their cell quadrature nodes.

The spectrum is sigma(F)^2, from one complex SVD of the factor itself
(numpy.linalg.svd, singular values only) and never from the Gram F^H F,
whose conditioning is the square of F's.  The Berezin symbol is one numpy
GEMV with the factor's row block.  btk depends on numpy alone, so every
dense linear-algebra call runs on numpy's one BLAS and its one thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, svd

from .basis import BasisTable, basis_moduli, kernel, kernel_norm_sq, polar_parts, unit_powers
from .errors import ConvergenceError, DomainError, ParameterError

from .measures import AtomicMeasure, Measure, operator_factor

# radial_log_moments is not called here.  It stays a module attribute because
# the benchmark's traced run (perfbench/layers.py) patches it at this module.
from .quadrature import radial_log_moments  # noqa: F401


def jacobi_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    # Not called: spectra come from the factor's SVD.  Only the traced run's
    # patch table (perfbench/layers.py) names it, until that table changes.
    return np.linalg.eigvalsh(matrix)


@dataclass(frozen=True)
class ToeplitzMatrix:
    """diag(d) for radial measures, else conj(F) F^T from a factor F.

    Exactly one of diag and factor is set.  The factor may hold more than dim
    rows (atoms keep every degree of the table): the truncated matrix reads
    factor[:dim], the spectrum every row.
    """

    basis: BasisTable
    dim: int
    structure: str                      # "diagonal" | "finite_rank" | "dense"
    diag: np.ndarray | None = None      # (dim,) real
    factor: np.ndarray | None = None    # (rows >= dim, J) complex


def assemble_toeplitz(bt: BasisTable, mu: Measure, dim: int) -> ToeplitzMatrix:
    """Assemble the truncated Toeplitz matrix of mu in the monomial basis."""
    if not (1 <= dim <= bt.degree_max + 1):
        raise DomainError(f"dim must lie in [1, {bt.degree_max + 1}]")
    if mu.is_zero:
        return ToeplitzMatrix(bt, dim, "diagonal", diag=np.zeros(dim))
    atomic = isinstance(mu, AtomicMeasure)
    factor, diag, outer = operator_factor(bt, mu, bt.degree_max + 1 if atomic else dim)
    if diag is not None:
        return ToeplitzMatrix(bt, dim, "diagonal", diag=diag)
    if not atomic:
        return ToeplitzMatrix(bt, dim, "dense", factor=factor)
    # The kernel series of a pair (xi_j, xi_k) has terms |xi_j xi_k|^n / h_n,
    # and its tail ratio (r^N / h_N) / sum r^n / h_n grows with r (its log
    # derivative is (N - E[n]) / r >= 0), so the pair at the atom of largest
    # modulus is the worst: checking it raises TruncationError exactly when
    # some pair's series is inadequate.
    kernel(bt, outer, outer)
    return ToeplitzMatrix(bt, dim, "finite_rank", factor=factor)


def _singular_values(f: np.ndarray) -> np.ndarray:
    """sigma(f), descending, from numpy's LAPACK complex SVD (no vectors).

    LAPACK always sees the tall side: a wide f (fewer rows than columns, as
    a grid's dim x nodes factor) goes in as f.T, which sigma(f) = sigma(f.T)
    allows and which skips LAPACK's slower LQ path for wide input; a tall f
    goes in unchanged.  The SVD is backward stable, so a singular value is
    resolved down to about eps * sigma_max; below that the values are
    positive but not relatively accurate.  A failed SVD raises
    ConvergenceError.
    """
    try:
        return svd(f.T if f.shape[0] < f.shape[1] else f, compute_uv=False)
    except LinAlgError as exc:
        raise ConvergenceError(f"complex SVD failed: {exc}") from exc


@dataclass(frozen=True)
class SpectrumReport:
    """Nonnegative eigenvalues (descending) plus truncation metadata."""

    eigenvalues: np.ndarray = field(repr=False)
    dim: int
    structure: str
    clip_magnitude: float       # 0: sigma^2 and radial moments are never negative
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


def spectrum(tm: ToeplitzMatrix) -> SpectrumReport:
    """Eigenvalues of T: the diagonal, or sigma(F)^2 padded with zeros to dim."""
    if tm.diag is not None:
        ev = np.array(tm.diag, dtype=float)
    else:
        ev = _singular_values(tm.factor) ** 2
    ev = np.concatenate([ev, np.zeros(max(tm.dim - len(ev), 0))])
    ev = np.sort(ev)[::-1].copy()
    tail = float(ev[-1]) * tm.dim if len(ev) else 0.0
    return SpectrumReport(
        eigenvalues=ev,
        dim=tm.dim,
        structure=tm.structure,
        clip_magnitude=0.0,
        tail_estimate=tail,
    )


def schatten_norm(report: SpectrumReport, p: float) -> float:
    """(sum lambda_n^p)^(1/p) with compensated summation."""
    if not p > 0.0:
        raise ParameterError("p must be positive")
    s = math.fsum(float(x) ** p for x in report.eigenvalues if x > 0.0)
    return s ** (1.0 / p)


def berezin_operator(bt: BasisTable, tm: ToeplitzMatrix, z: complex) -> float:
    """T~(z) = <T k_z, k_z> = v* M v with v_n = conj(z)^n / (sqrt(h_n) ||K_z||).

    |v_n| is basis_moduli(|z|) over sqrt(omega(z)) ||K_z||, the phases are
    unit_powers(conj(z) / |z|), and kernel_norm_sq checks that |z| < 1.
    """
    log_k = kernel_norm_sq(bt, z)
    r, unit = polar_parts(np.array([np.conj(z)]))
    v = basis_moduli(bt, r, tm.dim)[:, 0] * np.exp(bt.weight.phi(r[0]) - 0.5 * log_k)
    if tm.diag is not None:
        # a diagonal needs only |v_n|^2, so no phase is formed
        return float(np.dot(tm.diag, v * v))
    v = v * unit_powers(unit, tm.dim)[:, 0]
    return float(np.sum(np.abs(tm.factor[: tm.dim].T @ v) ** 2))


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
