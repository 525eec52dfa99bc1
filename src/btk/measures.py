"""Finite positive measures on the disk and their local-scale functionals.

Three concrete measure forms: atomic, radial density against normalized area
measure, and a polar grid of cell masses.  On top of them sit the averaging
function mu_hat(z) = mu(D(delta*tau(z))) / tau(z)^2, its sup (with a tail-sup
ladder for compactness diagnostics), the Berezin transform, L^p norms against
d(lambda_tau) = tau^(-2) dA, and lattice l^p sums.

Area measure convention: dA = dx dy / pi, so the unit disk has mass 1 and a
disk of radius rho has mass rho^2.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# kernel_at_points and kernel_norm_sq_many are not called here.  They stay
# module attributes because the benchmark's traced run (perfbench/layers.py)
# patches them at this module, as it does radial_log_moments.
from .basis import (
    BasisTable,
    basis_columns,
    kernel,
    kernel_at_points,
    kernel_norm_sq,
    kernel_norm_sq_many,
    log_normalized_kernel_sq_at,
)
from .errors import ConvergenceError, DomainError, ParameterError
from .lattice import Lattice
from .quadrature import gauss_legendre_nodes, gauss_legendre_rule, radial_log_moments
from .weights import RadialWeight

#: centres x nonzero cells per chunk of GridDensityMeasure.disk_mass_many
GRID_PAIR_CHUNK = 1 << 18

# ---------------------------------------------------------------------------
# measure types
# ---------------------------------------------------------------------------


class Measure:
    """Base class; concrete subclasses implement disk_mass and to_json."""

    kind: str
    total_mass: float

    def disk_mass(self, center: complex, rho: float) -> float:
        raise NotImplementedError

    def scaled(self, c: float) -> "Measure":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return self.total_mass == 0.0


class AtomicMeasure(Measure):
    """Finite sum of point masses strictly inside the disk.

    An empty atom list is the zero measure.
    """

    kind = "atomic"

    def __init__(self, points, masses):
        points = np.asarray(points, dtype=complex).ravel()
        masses = np.asarray(masses, dtype=float).ravel()
        if points.shape != masses.shape:
            raise DomainError("points and masses must have matching length")
        if np.any(np.abs(points) >= 1.0):
            raise DomainError("atoms must lie strictly inside the unit disk")
        if np.any(masses < 0.0):
            raise DomainError("atom masses must be nonnegative")
        self.points = points
        self.masses = masses
        self.total_mass = float(np.sum(masses))

    def disk_mass(self, center: complex, rho: float) -> float:
        if len(self.points) == 0:
            return 0.0
        return float(np.sum(self.masses[np.abs(self.points - center) < rho]))

    def disk_mass_many(self, centers: np.ndarray, rhos: np.ndarray) -> np.ndarray:
        out = np.zeros(len(centers))
        for xi, m in zip(self.points, self.masses):
            out += m * (np.abs(centers - xi) < rhos)
        return out

    def scaled(self, c: float) -> "AtomicMeasure":
        return AtomicMeasure(self.points, c * self.masses)

    def to_json(self) -> dict:
        return {
            "kind": "atomic",
            "atoms": [
                [float(p.real), float(p.imag), float(m)]
                for p, m in zip(self.points, self.masses)
            ],
        }


class RadialDensityMeasure(Measure):
    """d(mu) = g(|z|) dA with g >= 0 supported on [r_lo, r_hi] in [0, 1).

    g is supplied as log g (vectorized, -inf where g vanishes) so that
    weight-compensated densities stay representable.
    """

    kind = "radial"

    def __init__(self, log_g: Callable, support=(0.0, 1.0), meta: dict | None = None):
        lo, hi = float(support[0]), float(support[1])
        if not (0.0 <= lo <= hi <= 1.0):
            raise DomainError(f"bad radial support [{lo}, {hi}]")
        self.log_g = log_g
        self.support = (lo, min(hi, 1.0 - 1e-12))
        self.meta = dict(meta or {})
        self.total_mass = self._mass_between(lo, self.support[1])

    def g(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.support
        with np.errstate(over="raise"):
            vals = np.exp(self.log_g(np.clip(r, lo, hi)))
        return np.where((r >= lo) & (r <= hi), vals, 0.0)

    def _mass_between(self, a: float, b: float, n: int = 256) -> float:
        # 2 * int_a^b g(r) r dr, composite Gauss-Legendre in two panels
        a = max(a, self.support[0])
        b = min(b, self.support[1])
        if b <= a:
            return 0.0
        total = 0.0
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            x, wq = gauss_legendre_nodes(lo, hi, n)
            total += 2.0 * float(np.dot(wq, self.g(x) * x))
        return total

    def disk_mass(self, center: complex, rho: float) -> float:
        return float(self.disk_mass_many(np.array([center]), np.array([rho]))[0])

    def disk_mass_many(
        self, centers: np.ndarray, rhos: np.ndarray, n_nodes: int = 64
    ) -> np.ndarray:
        """mu(D(center, rho)) via the arc-angle reduction, vectorized.

        mu(D) = (1/pi) * int r g(r) Theta(r) dr with Theta the angular opening
        of the circle |z| = r inside the disk.  The substitution
        r = d - rho*cos(v) removes the sqrt singularities of Theta at
        r = d -/+ rho, so plain Gauss-Legendre in v converges fast.
        """
        d = np.abs(np.asarray(centers, dtype=complex))
        rho = np.broadcast_to(np.asarray(rhos, dtype=float), d.shape).astype(float)
        lo, hi = self.support
        out = np.zeros_like(d)

        # full circles |z| = r with r < rho - d lie inside D entirely
        full_hi = np.minimum(hi, rho - d)
        has_full = full_hi > lo
        if np.any(has_full):
            x01, w01 = gauss_legendre_rule(n_nodes)
            a = np.full(np.sum(has_full), lo)
            b = full_hi[has_full]
            r_nodes = 0.5 * (b - a)[:, None] * x01[None, :] + 0.5 * (a + b)[:, None]
            wq = 0.5 * (b - a)[:, None] * w01[None, :]
            out[has_full] += 2.0 * np.sum(wq * self.g(r_nodes) * r_nodes, axis=1)

        # partial arcs: r in [max(lo, |d-rho|), min(hi, d+rho)], via v-substitution
        r_lo = np.maximum(lo, np.abs(d - rho))
        r_hi = np.minimum(hi, d + rho)
        has_arc = (r_hi > r_lo) & (d > 0)
        if np.any(has_arc):
            dd = d[has_arc]
            rr = rho[has_arc]
            with np.errstate(invalid="ignore"):
                v_lo = np.arccos(np.clip((dd - r_hi[has_arc]) / rr, -1.0, 1.0))
                v_hi = np.arccos(np.clip((dd - r_lo[has_arc]) / rr, -1.0, 1.0))
            x01, w01 = gauss_legendre_rule(n_nodes)
            v = 0.5 * (v_lo - v_hi)[:, None] * x01[None, :] + 0.5 * (v_lo + v_hi)[:, None]
            wv = 0.5 * (v_lo - v_hi)[:, None] * w01[None, :]
            r_nodes = dd[:, None] - rr[:, None] * np.cos(v)
            dr = rr[:, None] * np.sin(v)
            cosang = (dd[:, None] ** 2 + r_nodes**2 - rr[:, None] ** 2) / (
                2.0 * dd[:, None] * r_nodes
            )
            theta = 2.0 * np.arccos(np.clip(cosang, -1.0, 1.0))
            integ = r_nodes * self.g(r_nodes) * theta / np.pi
            out[has_arc] += np.sum(wv * integ * dr, axis=1)
        return out

    def scaled(self, c: float) -> "RadialDensityMeasure":
        log_c = np.log(c)
        base = self.log_g
        meta = dict(self.meta)
        meta["scale"] = c * meta.get("scale", 1.0)
        return RadialDensityMeasure(
            lambda r, _b=base, _s=log_c: _b(r) + _s, self.support, meta
        )

    def to_json(self) -> dict:
        return {"kind": "radial", "support": list(self.support), **self.meta}


class GridDensityMeasure(Measure):
    """Piecewise-constant measure on a polar grid of annular sectors.

    cells[i, j] is the mass of the sector r in [r_i, r_{i+1}],
    theta in [theta_j, theta_{j+1}] with uniform edges on [0, r_outer] x
    [0, 2 pi).  Disk masses use exact-area classification with three levels
    of subdivision of boundary cells.
    """

    kind = "grid"
    MAX_DEPTH = 3

    def __init__(self, cells, r_outer: float = 1.0 - 1e-9):
        cells = np.asarray(cells, dtype=float)
        if cells.ndim != 2:
            raise DomainError("cells must be a 2-D (nr x ntheta) array")
        if np.any(cells < 0.0):
            raise DomainError("cell masses must be nonnegative")
        if not (0.0 < r_outer < 1.0):
            raise DomainError("r_outer must lie in (0, 1)")
        self.cells = cells
        self.nr, self.ntheta = cells.shape
        self.r_outer = float(r_outer)
        self.r_edges = np.linspace(0.0, self.r_outer, self.nr + 1)
        self.t_edges = np.linspace(0.0, 2.0 * np.pi, self.ntheta + 1)
        self.total_mass = float(np.sum(cells))

    @classmethod
    def area_measure(cls, nr: int = 48, ntheta: int = 64,
                     r_outer: float = 1.0 - 1e-9) -> "GridDensityMeasure":
        """Normalized area measure dA restricted to {|z| <= r_outer}."""
        r = np.linspace(0.0, r_outer, nr + 1)
        cell_r = (r[1:] ** 2 - r[:-1] ** 2) / (2.0 * np.pi)
        dt = 2.0 * np.pi / ntheta
        return cls(np.outer(cell_r, np.full(ntheta, dt)), r_outer=r_outer)

    def disk_mass(self, center: complex, rho: float) -> float:
        return float(self.disk_mass_many(np.array([center]), np.array([rho]))[0])

    def disk_mass_many(self, centers, rhos) -> np.ndarray:
        """mu(D(center, rho)) per centre, by recursive cell classification.

        A (centre, cell) pair counts fully when all 3x3 corner and midpoint
        samples of the cell lie in the disk, and not at all when none does
        and the cell's diameter is at most rho.  Otherwise the cell splits
        into four area-weighted quadrants, down to MAX_DEPTH, where the share
        of a 4x4 grid of interior samples inside the disk counts.  The levels
        run breadth-first over arrays of pairs.  Pairs outside the radial
        band |center| -/+ rho are never formed, and pairs whose angular gap
        puts every point of the cell outside the disk are dropped first.
        """
        centers = np.asarray(centers, dtype=complex).ravel()
        rhos = np.broadcast_to(np.asarray(rhos, dtype=float).ravel(), centers.shape)
        out = np.zeros(len(centers))
        if self.total_mass == 0.0:
            return out
        if np.any((rhos > 0.0) & (rhos < self.r_edges[1] - self.r_edges[0])):
            warnings.warn(
                "query disk smaller than the grid's radial cell size; "
                "mass resolved only to cell resolution",
                RuntimeWarning,
                stacklevel=2,
            )
        ci, cj = np.nonzero(self.cells)
        re, te = self.r_edges, self.t_edges
        d = np.abs(centers)
        phi = np.angle(centers)
        i_lo = np.searchsorted(re, np.maximum(d - rhos, 0.0), side="right") - 1
        i_hi = np.searchsorted(re, np.minimum(d + rhos, self.r_outer), side="left")
        step = max(1, GRID_PAIR_CHUNK // len(ci))
        for s in range(0, len(centers), step):
            k = slice(s, s + step)
            near = (ci >= i_lo[k, None]) & (ci < i_hi[k, None]) & (rhos[k, None] > 0.0)
            pc, cell = np.nonzero(near)
            pc += s
            i, j = ci[cell], cj[cell]
            # every point of the sector lies at least sqrt(2 r1 |c| (1 - cos gap))
            # from c, computed as 4 r1 |c| sin^2(gap / 2) to avoid cancellation;
            # the gap and rho carry a rounding margin, so no dropped pair could
            # have had a sample inside the disk
            mid, half = 0.5 * (te[j] + te[j + 1]), 0.5 * (te[j + 1] - te[j])
            dev = np.abs(np.mod(phi[pc] - mid + np.pi, 2.0 * np.pi) - np.pi)
            gap = np.maximum(dev - half - 1e-12, 0.0)
            far = 4.0 * re[i] * d[pc] * np.sin(0.5 * gap) ** 2 > rhos[pc] ** 2 * (1.0 + 1e-9)
            pc, i, j = pc[~far], i[~far], j[~far]
            out[k] = self._pair_masses(
                centers[pc], rhos[pc], pc - s, re[i], re[i + 1], te[j], te[j + 1],
                self.cells[i, j], len(out[k]),
            )
        return out

    def _pair_masses(self, c, rho, owner, r1, r2, t1, t2, wgt, n) -> np.ndarray:
        """Per owner, the sum of wgt times the sector's area fraction in D(c, rho)."""
        total = np.zeros(n)
        for depth in range(self.MAX_DEPTH + 1):
            rm, tm = 0.5 * (r1 + r2), 0.5 * (t1 + t2)
            inside = _polar_samples_inside(
                np.stack([r1, rm, r2], axis=1), np.stack([t1, tm, t2], axis=1), c, rho
            )
            n_in = np.sum(inside, axis=(1, 2))
            diam = (r2 - r1) + r2 * (t2 - t1)
            full = n_in == 9
            split = ~full & ((n_in > 0) | (diam > rho))
            total += np.bincount(owner[full], weights=wgt[full], minlength=n)
            c, rho, owner, wgt = c[split], rho[split], owner[split], wgt[split]
            r1, r2, t1, t2, rm, tm = (v[split] for v in (r1, r2, t1, t2, rm, tm))
            if depth == self.MAX_DEPTH:
                rq = np.linspace(r1, r2, 9, axis=1)[:, 1::2]
                tq = np.linspace(t1, t2, 9, axis=1)[:, 1::2]
                inside = _polar_samples_inside(rq, tq, c, rho)
                total += np.bincount(owner, weights=wgt * np.mean(inside, axis=(1, 2)),
                                     minlength=n)
                break
            # sub-cells of an annular sector do not have equal area: weight by area
            quads = ((r1, rm, t1, tm), (r1, rm, tm, t2), (rm, r2, t1, tm), (rm, r2, tm, t2))
            areas = [(q[1] ** 2 - q[0] ** 2) * (q[3] - q[2]) for q in quads]
            area = sum(areas)
            r1, r2, t1, t2 = (np.concatenate(v) for v in zip(*quads))
            wgt = np.concatenate([wgt * a / area for a in areas])
            c, rho, owner = np.tile(c, 4), np.tile(rho, 4), np.tile(owner, 4)
        return total

    def nodes(self):
        """Cell quadrature: 2x2 interior samples per nonzero cell.

        Each cell is sampled at 1/4 and 3/4 of its radial and angular extent;
        a sample weighs the cell mass times r / (2 (r_1 + r_2)), its share of
        the sector's area, so a cell's weights sum to its mass.  Returns flat
        (nodes, weights), cells in row-major order, four samples per cell.
        """
        i, j = np.nonzero(self.cells)
        offs = np.array([0.25, 0.75])
        re, te = self.r_edges, self.t_edges
        rs = re[i, None] + (re[i + 1] - re[i])[:, None] * offs
        ts = te[j, None] + (te[j + 1] - te[j])[:, None] * offs
        pts = rs[:, :, None] * np.exp(1j * ts)[:, None, :]
        rw = rs / np.sum(rs, axis=1, keepdims=True) / 2.0
        wts = self.cells[i, j][:, None] * np.repeat(rw, 2, axis=1)
        return pts.ravel(), wts.ravel()

    def scaled(self, c: float) -> "GridDensityMeasure":
        return GridDensityMeasure(c * self.cells, r_outer=self.r_outer)

    def to_json(self) -> dict:
        return {
            "kind": "grid",
            "nr": self.nr,
            "ntheta": self.ntheta,
            "r_outer": self.r_outer,
            "cells": self.cells.ravel().tolist(),
        }


def _polar_samples_inside(rs, ts, c, rho) -> np.ndarray:
    """inside[k, a, b] = |rs[k, a] e^(i ts[k, b]) - c[k]| < rho[k]."""
    pts = rs[:, :, None] * np.exp(1j * ts)[:, None, :]
    return np.abs(pts - c[:, None, None]) < rho[:, None, None]


# built-in radial density families -----------------------------------------


def power_density(beta: float, support=(0.0, 1.0)) -> RadialDensityMeasure:
    """g(r) = (1 - r^2)^beta."""
    return RadialDensityMeasure(
        lambda r: beta * np.log1p(-np.square(r)),
        support,
        meta={"density": "power", "beta": beta},
    )


def indicator_density(r_lo: float, r_hi: float) -> RadialDensityMeasure:
    """g = 1 on the annulus r_lo <= |z| <= r_hi."""
    return RadialDensityMeasure(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        (r_lo, r_hi),
        meta={"density": "indicator"},
    )


def compensated_density(
    w: RadialWeight, s: float, beta: float, support=(0.0, 0.99)
) -> RadialDensityMeasure:
    """g(r) = omega(r)^(-s) (1 - r^2)^beta, s < 1, to stress Carleson bounds."""
    if s >= 1.0:
        raise ParameterError("compensated density requires s < 1")
    return RadialDensityMeasure(
        lambda r: 2.0 * s * w.phi(np.asarray(r, dtype=float))
        + beta * np.log1p(-np.square(np.asarray(r, dtype=float))),
        support,
        meta={"density": "compensated", "s": s, "beta": beta},
    )


def zero_measure() -> AtomicMeasure:
    return AtomicMeasure([], [])


def measure_from_json(data: dict, w: RadialWeight | None = None) -> Measure:
    kind = data["kind"]
    if kind == "atomic":
        atoms = data.get("atoms", [])
        pts = [complex(x, y) for x, y, _ in atoms]
        ms = [m for _, _, m in atoms]
        return AtomicMeasure(pts, ms)
    if kind == "radial":
        dens = data["density"]
        support = tuple(data.get("support", (0.0, 1.0)))
        scale = float(data.get("scale", 1.0))
        if dens == "power":
            mu = power_density(float(data["beta"]), support)
        elif dens == "indicator":
            mu = indicator_density(*support)
        elif dens == "compensated":
            if w is None:
                raise ParameterError("compensated density needs the weight")
            mu = compensated_density(w, float(data["s"]), float(data["beta"]), support)
        else:
            raise ParameterError(f"unknown radial density family {dens!r}")
        return mu.scaled(scale) if scale != 1.0 else mu
    if kind == "grid":
        cells = np.array(data["cells"], dtype=float).reshape(data["nr"], data["ntheta"])
        return GridDensityMeasure(cells, r_outer=float(data.get("r_outer", 1.0 - 1e-9)))
    raise ParameterError(f"unknown measure kind {kind!r}")


def save_measure(mu: Measure, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mu.to_json(), fh)


def load_measure(path: str, w: RadialWeight | None = None) -> Measure:
    with open(path) as fh:
        return measure_from_json(json.load(fh), w)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def mu_hat(w: RadialWeight, mu: Measure, delta: float, z: complex) -> float:
    """Averaging function mu(D(delta tau(z))) / tau(z)^2."""
    w.require_delta(delta)
    if abs(z) >= 1.0:
        raise DomainError("z must lie in the open unit disk")
    tau = float(w.tau(abs(z)))
    return mu.disk_mass(z, delta * tau) / (tau * tau)


def mu_hat_many(w: RadialWeight, mu: Measure, delta: float, zs: np.ndarray) -> np.ndarray:
    w.require_delta(delta)
    zs = np.asarray(zs, dtype=complex)
    taus = w.tau(np.abs(zs))
    return mu.disk_mass_many(zs, delta * taus) / (taus * taus)


@dataclass(frozen=True)
class CarlesonReport:
    """sup of mu_hat over {|z| <= r_max}, plus tail sups over {|z| > r}."""

    value: float
    argmax: complex
    tail_radii: tuple
    tail_sups: tuple
    grid_size: int

    @property
    def compact_signature(self) -> bool:
        """Tail sup has dropped below 1e-3 of the overall sup."""
        return self.value == 0.0 or self.tail_sups[-1] < 1e-3 * self.value


def _carleson_grid(mu: Measure, r_max: float, n_r: int, n_theta: int) -> np.ndarray:
    radii = np.linspace(0.0, r_max, n_r)
    if isinstance(mu, RadialDensityMeasure):
        return radii.astype(complex)
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    pts = (radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
    if isinstance(mu, AtomicMeasure) and len(mu.points):
        # refine near atoms, where the sup of mu_hat is attained
        ring = np.exp(2j * np.pi * np.arange(8) / 8)
        extra = (mu.points[:, None] + 1e-4 * ring[None, :]).ravel()
        extra = np.concatenate([mu.points, extra])
        pts = np.concatenate([pts, extra[np.abs(extra) <= r_max]])
    return pts


def carleson_constant(
    w: RadialWeight,
    mu: Measure,
    delta: float,
    r_max: float,
    tail_radii=None,
    n_r: int = 800,
    n_theta: int = 64,
) -> CarlesonReport:
    """sup of mu_hat over a dense grid on {|z| <= r_max} with a tail ladder."""
    w.require_delta(delta)
    if not (0.0 < r_max < 1.0):
        raise DomainError("r_max must lie in (0, 1)")
    if tail_radii is None:
        tail_radii = tuple(f * r_max for f in (0.3, 0.5, 0.7, 0.85, 0.95))
    if mu.is_zero:
        return CarlesonReport(0.0, 0j, tuple(tail_radii), (0.0,) * len(tail_radii), 0)
    if isinstance(mu, GridDensityMeasure):
        n_r, n_theta = min(n_r, 96), min(n_theta, 48)
    pts = _carleson_grid(mu, r_max, n_r, n_theta)
    vals = mu_hat_many(w, mu, delta, pts)
    k = int(np.argmax(vals))
    tails = tuple(
        float(np.max(vals[np.abs(pts) > r], initial=0.0)) for r in tail_radii
    )
    return CarlesonReport(
        value=float(vals[k]),
        argmax=complex(pts[k]),
        tail_radii=tuple(tail_radii),
        tail_sups=tails,
        grid_size=len(pts),
    )


def _radial_berezin_log_t(bt: BasisTable, mu: RadialDensityMeasure) -> np.ndarray:
    """log of the diagonal symbols t_n = (2/h_n) int r^(2n+1) omega g dr."""
    logmom = radial_log_moments(
        bt.weight, bt.degree_max, log_density=mu.log_g, support=mu.support
    )
    return np.log(2.0) + logmom - bt.log_h


def berezin_measure(bt: BasisTable, mu: Measure, z: complex) -> float:
    """B(z) = int |k_z(xi)|^2 omega(xi) d mu(xi), one kernel series per node.

    The scalar oracle for berezin_many.
    """
    if abs(z) >= 1.0:
        raise DomainError("z must lie in the open unit disk")
    if mu.is_zero:
        return 0.0
    w = bt.weight
    if isinstance(mu, RadialDensityMeasure):
        # <T_mu k_z, k_z> for a diagonal symbol: sum t_n |z|^(2n)/h_n / ||K_z||^2
        log_t = _radial_berezin_log_t(bt, mu)
        a = abs(z)
        n = np.arange(bt.degree_max + 1)
        if a == 0.0:
            base = np.where(n == 0, -bt.log_h, -np.inf)
        else:
            base = n * (2.0 * np.log(a)) - bt.log_h
        num = base + log_t
        m = max(np.max(base), np.max(num))
        return float(np.sum(np.exp(num - m)) / np.sum(np.exp(base - m)))
    if isinstance(mu, AtomicMeasure):
        pts, wts = mu.points, mu.masses
    elif isinstance(mu, GridDensityMeasure):
        pts, wts = mu.nodes()
    else:
        raise ParameterError(f"unsupported measure type {type(mu).__name__}")
    log_k2 = log_normalized_kernel_sq_at(bt, z, pts)
    return float(np.sum(wts * np.exp(log_k2 + w.log_weight(np.abs(pts)))))


#: entries of one chunk of weighted basis columns (berezin_many), or of the
#: radial columns and of the folded (n_theta, chunk, K) product (the polar field)
_BEREZIN_CHUNK_ENTRIES = 2**19


def _berezin_factor(bt: BasisTable, mu: Measure):
    """(y, t, outer) for a nonzero measure, built once per Berezin field.

    The nodes xi_j with weights m_j are the atoms and their masses, or the
    grid's cell rule.  y[n, j] = e_n(xi_j) sqrt(m_j omega(xi_j)) over every
    degree of the table, and outer is the largest-modulus node.  A radial
    measure has the diagonal symbols t_n instead, and y = outer = None.
    """
    if isinstance(mu, RadialDensityMeasure):
        return None, np.exp(_radial_berezin_log_t(bt, mu)), None
    if isinstance(mu, (AtomicMeasure, GridDensityMeasure)):
        nodes, wts = (mu.points, mu.masses) if isinstance(mu, AtomicMeasure) else mu.nodes()
        y = basis_columns(bt, nodes, bt.degree_max + 1)
        y *= np.sqrt(wts)
        return y, None, nodes[np.argmax(np.abs(nodes))]
    raise ParameterError(f"unsupported measure type {type(mu).__name__}")


def _check_berezin_truncation(bt: BasisTable, z_out: complex, outer) -> None:
    """Raise TruncationError when some point with |z| <= |z_out| is inadequate.

    The tail ratio of a kernel series depends only on |w| and grows with it
    (see toeplitz._atomic_factor), so the largest |z| is the worst point for
    ||K_z||^2 and, with the largest-modulus node, the worst pair for
    K_z(xi): these two checks raise exactly when some point's series is.
    """
    kernel_norm_sq(bt, z_out)
    if outer is not None:
        kernel(bt, outer, z_out)


def berezin_many(bt: BasisTable, mu: Measure, zs: np.ndarray) -> np.ndarray:
    """Berezin transform at many points, from the weighted basis factor.

    With u = basis_columns(z) and the node factor y of _berezin_factor,
    (y^H u)_j = conj(K_z(xi_j)) sqrt(m_j omega(xi_j) omega(z)) and
    sum_n |u_n|^2 = omega(z) ||K_z||^2, so
    B(z) = sum_j |(y^H u)_j|^2 / sum_n |u_n|^2.  A radial measure has
    B(z) = sum_n t_n |u_n|^2 / sum_n |u_n|^2.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if mu.is_zero or flat.size == 0:
        return np.zeros(zs.shape)
    y, t, outer = _berezin_factor(bt, mu)
    _check_berezin_truncation(bt, flat[np.argmax(np.abs(flat))], outer)
    n_terms = bt.degree_max + 1
    chunk = max(1, _BEREZIN_CHUNK_ENTRIES // n_terms)
    out = np.empty(flat.shape)
    for s0 in range(0, flat.size, chunk):
        u = basis_columns(bt, flat[s0 : s0 + chunk], n_terms)
        u2 = u.real**2 + u.imag**2
        if y is None:
            num = t @ u2
        else:
            g = y.conj().T @ u
            num = np.sum(g.real**2 + g.imag**2, axis=0)
        out[s0 : s0 + chunk] = num / np.sum(u2, axis=0)
    return out.reshape(zs.shape)


def polar_points(r: np.ndarray, n_theta: int) -> np.ndarray:
    """The (len(r), n_theta) grid r_i e^(2 pi i j / n_theta) of lp_lambda_tau_norm."""
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    return np.asarray(r, dtype=float)[:, None] * np.exp(1j * theta)[None, :]


def _berezin_polar_field(bt: BasisTable, mu: Measure):
    """(r, n_theta) -> B on polar_points(r, n_theta), by folding the angles.

    On the polar grid u[n, (i, j)] = a[n, i] e^(i n theta_j) with the real
    radial columns a = basis_columns(r).  So sum_n |u|^2 depends on r_i
    only, and (y^H u)[k, (i, j)] = sum_m C[m, i, k] e^(i m theta_j) with
    C[m, i, k] = sum_{n = m mod n_theta} a[n, i] conj(y[n, k]): one batched
    GEMM over the degrees zero-padded to a multiple of n_theta, then an
    unnormalised inverse FFT over m.  A radial measure needs no angles and
    returns one column.
    """
    y, t, outer = _berezin_factor(bt, mu)
    n_terms = bt.degree_max + 1

    def field(r: np.ndarray, n_theta: int) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.empty((r.size, 1 if y is None else n_theta))
        if r.size == 0:
            return out
        _check_berezin_truncation(bt, complex(np.max(r)), outer)
        if y is None:
            chunk = max(1, _BEREZIN_CHUNK_ENTRIES // n_terms)
        else:
            # conj(y) as interleaved (re, im) pairs with degree n at
            # [n mod n_theta, n // n_theta], so the GEMM's real output is C
            # viewed as complex
            rows = -(-n_terms // n_theta)
            yc = np.zeros((rows * n_theta, y.shape[1]), dtype=complex)
            yc[:n_terms] = y.conj()
            yf = yc.view(float).reshape(rows, n_theta, -1).transpose(1, 0, 2)
            chunk = max(1, _BEREZIN_CHUNK_ENTRIES // (n_theta * max(rows, y.shape[1])))
        for s0 in range(0, r.size, chunk):
            a = basis_columns(bt, r[s0 : s0 + chunk], n_terms).real
            a2 = a * a
            if y is None:
                num = (t @ a2)[:, None]
            else:
                ap = np.zeros((rows * n_theta, a.shape[1]))
                ap[:n_terms] = a
                c = np.matmul(ap.reshape(rows, n_theta, -1).transpose(1, 2, 0), yf)
                g = np.fft.ifft(c.view(complex), axis=0, norm="forward").view(float)
                num = np.einsum("jik,jik->ij", g, g)
            out[s0 : s0 + chunk] = num / np.sum(a2, axis=0)[:, None]
        return out

    return field


def lp_lambda_tau_norm(
    w: RadialWeight,
    field,
    p: float,
    r_max: float,
    n_theta: int = 64,
    tol: float = 1e-6,
    panels0: int = 24,
    nodes_per_panel: int = 16,
    max_doublings: int = 4,
) -> float:
    """(int_{|z|<=r_max} field^p tau(z)^(-2) dA)^(1/p).

    field(r, n_theta) returns the nonnegative field on polar_points(r,
    n_theta) as a (len(r), n_theta) array, or as (len(r), 1) for a radial
    field.  Radial panels are graded geometrically toward r_max; panel count
    doubles until the integral changes by less than tol relative.
    """
    if p <= 0.0:
        raise ParameterError("p must be positive")
    if not (0.0 < r_max < 1.0):
        raise DomainError("r_max must lie in (0, 1)")
    x01, w01 = gauss_legendre_rule(nodes_per_panel)
    prev = None
    panels = panels0
    for _ in range(max_doublings + 1):
        edges = 1.0 - np.geomspace(1.0, 1.0 - r_max, panels + 1)
        # gauss_legendre_nodes on every panel at once
        a, b = edges[:-1, None], edges[1:, None]
        r = (0.5 * (b - a) * x01 + 0.5 * (a + b)).ravel()
        wq = (0.5 * (b - a) * w01).ravel()
        fp = np.mean(np.asarray(field(r, n_theta), dtype=float) ** p, axis=1)
        tau = w.tau(r)
        cur = float(np.dot(wq, fp * 2.0 * r / (tau * tau)))
        if prev is not None:
            if cur == prev == 0.0:
                return 0.0
            if abs(cur - prev) <= tol * max(abs(cur), abs(prev)):
                return cur ** (1.0 / p)
        prev = cur
        panels *= 2
    raise ConvergenceError(f"L^p(d lambda_tau) quadrature failed to reach tol={tol}")


def _atom_region_radii(
    w: RadialWeight, xi: complex, delta: float, theta: np.ndarray
) -> np.ndarray:
    """Boundary radius rho(theta) of {z : |z - xi| < delta tau(z)} around xi.

    The fixed-point map rho -> delta tau(|xi + rho e^(i theta)|) is a
    contraction (tau is c2-Lipschitz and delta c2 < 1/4).
    """
    rho = np.full(theta.shape, delta * float(w.tau(abs(xi))))
    e = np.exp(1j * theta)
    for _ in range(60):
        rho = delta * w.tau(np.minimum(np.abs(xi + rho * e), 1.0 - 1e-12))
    return rho


def _atomic_muhat_lp_integral(
    w: RadialWeight,
    mu: AtomicMeasure,
    delta: float,
    p: float,
    r_max: float,
    n_theta: int = 256,
    n_rad: int = 48,
) -> float:
    """int mu_hat^p d lambda_tau for an atomic measure.

    mu_hat is piecewise constant (it jumps where an atom enters the disk
    D(delta tau(z))), so smooth quadrature cannot converge.  When the atoms'
    influence regions are pairwise disjoint the field is m_j^p on the region
    of atom j and the integral splits; each region is integrated in polar
    coordinates around its atom with the boundary radius solved exactly.
    Overlapping regions fall back to a deterministic midpoint grid.
    """
    pts, masses = mu.points, mu.masses
    taus = w.tau(np.abs(pts))
    # regions are contained in disks of radius (4/3) delta tau(xi)
    r_out = (4.0 / 3.0) * delta * taus
    sep = np.abs(pts[:, None] - pts[None, :])
    overlap = sep < (r_out[:, None] + r_out[None, :])
    np.fill_diagonal(overlap, False)
    if np.any(overlap):
        return _gridded_muhat_lp_integral(w, mu, delta, p, r_max)
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    x01, w01 = gauss_legendre_rule(n_rad)
    total = 0.0
    for xi, m in zip(pts, masses):
        rho = _atom_region_radii(w, xi, delta, theta)
        # clip the region at |z| = r_max along each ray
        b = np.real(np.conj(xi) * np.exp(1j * theta))
        disc = b * b + (r_max * r_max - abs(xi) ** 2)
        ray_exit = np.where(disc >= 0.0, -b + np.sqrt(np.maximum(disc, 0.0)), 0.0)
        rho = np.clip(np.minimum(rho, ray_exit), 0.0, None)
        r_nodes = 0.5 * rho[:, None] * (x01[None, :] + 1.0)
        wq = 0.5 * rho[:, None] * w01[None, :]
        z = xi + r_nodes * np.exp(1j * theta)[:, None]
        tau_z = w.tau(np.abs(z))
        # integrand mu_hat^p * tau^(-2) = m^p tau(z)^(-2p) * tau(z)^(-2)
        integ = np.sum(wq * r_nodes * tau_z ** (-2.0 * p - 2.0), axis=1)
        total += m**p * float(np.mean(integ)) * 2.0
    return total


def _gridded_muhat_lp_integral(
    w: RadialWeight, mu: AtomicMeasure, delta: float, p: float, r_max: float,
    n: int = 1200,
) -> float:
    """Midpoint-grid integral of mu_hat^p d lambda_tau over the atoms' regions."""
    taus = w.tau(np.abs(mu.points))
    r_out = (4.0 / 3.0) * delta * taus
    lo_x = float(np.min(mu.points.real - r_out))
    hi_x = float(np.max(mu.points.real + r_out))
    lo_y = float(np.min(mu.points.imag - r_out))
    hi_y = float(np.max(mu.points.imag + r_out))
    xs = np.linspace(lo_x, hi_x, n + 1)
    ys = np.linspace(lo_y, hi_y, n + 1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0]) / np.pi
    total = 0.0
    for row_y in cy:
        z = cx + 1j * row_y
        keep = np.abs(z) <= r_max
        if not keep.any():
            continue
        z = z[keep]
        tau_z = w.tau(np.abs(z))
        mass = mu.disk_mass_many(z, delta * tau_z)
        pos = mass > 0
        if pos.any():
            total += cell * float(
                np.sum(mass[pos] ** p * tau_z[pos] ** (-2.0 * p - 2.0))
            )
    return total


def mu_hat_lp_norm(
    w: RadialWeight, mu: Measure, delta: float, p: float, r_max: float, **kw
) -> float:
    """||mu_hat_delta||_{L^p(d lambda_tau)} truncated at r_max."""
    if p <= 0.0:
        raise ParameterError("p must be positive")
    w.require_delta(delta)
    if mu.is_zero:
        return 0.0
    if isinstance(mu, AtomicMeasure):
        return _atomic_muhat_lp_integral(w, mu, delta, p, r_max) ** (1.0 / p)
    if isinstance(mu, GridDensityMeasure):
        kw.setdefault("tol", 1e-3)
        kw.setdefault("n_theta", 32)
    radial = isinstance(mu, RadialDensityMeasure)

    def field(r, n_theta):
        if radial:
            return mu_hat_many(w, mu, delta, r.astype(complex))[:, None]
        pts = polar_points(r, n_theta)
        return mu_hat_many(w, mu, delta, pts.ravel()).reshape(pts.shape)

    return lp_lambda_tau_norm(w, field, p, r_max, **kw)


def berezin_lp_norm(
    bt: BasisTable, mu: Measure, p: float, r_max: float, **kw
) -> float:
    """||B mu||_{L^p(d lambda_tau)} truncated at r_max.

    The Berezin transform is smooth, so a coarse tolerance suffices for the
    factor-window comparisons it feeds; override tol for tighter work.
    """
    if mu.is_zero:
        return 0.0
    kw.setdefault("tol", 1e-4)
    kw.setdefault("n_theta", 32)
    # the factor (or the radial symbols t_n) is built once, not per doubling
    field = _berezin_polar_field(bt, mu)
    return lp_lambda_tau_norm(bt.weight, field, p, r_max, **kw)


def lattice_lp_sum(
    w: RadialWeight, mu: Measure, lat: Lattice, delta: float, p: float
) -> float:
    """(sum_n mu_hat_delta(z_n)^p)^(1/p) over the lattice points."""
    if p <= 0.0:
        raise ParameterError("p must be positive")
    w.require_delta(delta)
    if mu.is_zero:
        return 0.0
    vals = mu.disk_mass_many(lat.points, delta * lat.taus) / (lat.taus**2)
    return float(np.sum(vals**p) ** (1.0 / p))
