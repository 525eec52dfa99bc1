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

# kernel_at_points is not called here.  It stays a module attribute because
# the benchmark's traced run (perfbench/layers.py) patches it at this module.
from .basis import (
    CHUNK_ENTRIES,
    BasisTable,
    basis_columns,
    basis_moduli,
    kernel_at_points,
    kernel_norm_sq_many,
)
from .errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
    PSDViolationError,
    load_json,
    require_keys,
)
from .lattice import Lattice
from .quadrature import (
    GAUSS_ORDERS,
    gauss_legendre_nodes,
    gauss_legendre_rule,
    radial_log_moments,
)
from .weights import RadialWeight

#: centres x nonzero cells per chunk of GridDensityMeasure.disk_mass_many
GRID_PAIR_CHUNK = 1 << 18

#: relative agreement of two trapezoid levels at which a whole arc is done
ARC_TRAPEZOID_TOL = 1e-13

#: relative agreement of two Gauss orders at which a radial total mass is done.
#: Near a support edge 1e-12 short of a singularity of g, every Gauss node
#: rounds to a double 1.1e-16 apart, which moves it by up to 5e-5 of its
#: distance to the singularity: the sum is then noisy at 3e-8 relative for
#: power_density(-0.99), and near 1e-6 for beta <= -2, where orders climb
RADIAL_MASS_TOL = 1e-6
#: panel widths, as shares of the half-support, from each edge: 4^-24 ~ 3.6e-15
_RADIAL_MASS_GRADE = 0.25 ** np.arange(25)


def _arc_trapezoid_levels():
    # level n of the trapezoid rule on [0, pi] adds the nodes k*pi/n not in the
    # level before: k = 1..7 at n = 8, odd k after
    levels = []
    for n in (8, 16, 32):
        v = np.arange(1, n, 1 if n == 8 else 2) * (np.pi / n)
        levels.append((n, np.cos(v), np.sin(v)))
    return tuple(levels)


_ARC_TRAPEZOID_LEVELS = _arc_trapezoid_levels()


def _arc_gauss_rule():
    # 16-node Gauss-Legendre on each of [0, 1/64, 1/16, 1/4, 1] of [t_lo, t_hi]:
    # the panels grade toward t_lo, as the integrand turns at t ~ sqrt(|d - rho| / b)
    # when d is near rho (one 64-node panel lost 1.3e-13 there)
    x01, w01 = gauss_legendre_rule(16)
    edges = np.array([0.0, 1 / 64, 1 / 16, 1 / 4, 1.0])
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * (x01 + 1.0) + a).ravel(), (0.5 * (b - a) * w01).ravel()


_ARC_GAUSS_RULE = _arc_gauss_rule()

# ---------------------------------------------------------------------------
# measure types
# ---------------------------------------------------------------------------


class Measure:
    """Base class; concrete subclasses implement disk_mass_many and to_json."""

    kind: str
    total_mass: float

    def disk_mass(self, center: complex, rho: float) -> float:
        return float(self.disk_mass_many(np.array([center]), np.array([rho]))[0])

    def disk_mass_many(self, centers: np.ndarray, rhos: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def nodes(self):
        """(nodes, weights) of the measure's node rule, when it has one."""
        raise ParameterError(f"{type(self).__name__} has no node rule")

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
        if not np.all(np.abs(points) < 1.0):
            raise DomainError("atoms must lie strictly inside the unit disk")
        if not np.all((masses >= 0.0) & (masses < np.inf)):
            raise DomainError("atom masses must be finite and nonnegative")
        self.points = points
        self.masses = masses
        self.total_mass = float(np.sum(masses))

    def disk_mass_many(self, centers: np.ndarray, rhos: np.ndarray) -> np.ndarray:
        out = np.zeros(len(centers))
        for xi, m in zip(self.points, self.masses):
            out += m * (np.abs(centers - xi) < rhos)
        return out

    def nodes(self):
        """The atoms and their masses, as (nodes, weights)."""
        return self.points, self.masses

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
        try:
            self.total_mass = self._support_mass()
        except FloatingPointError:  # g overflows doubles
            self.total_mass = np.inf
        if not np.isfinite(self.total_mass):  # NaN too, which JSON input can give
            raise DomainError(f"radial density {self.meta or 'log_g'} has total mass "
                              f"{self.total_mass} on its support [{lo}, {self.support[1]}]")

    def g(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.support
        with np.errstate(over="raise"):
            vals = np.exp(self.log_g(np.clip(r, lo, hi)))
        return np.where((r >= lo) & (r <= hi), vals, 0.0)

    def _support_mass(self) -> float:
        # 2 * int g(r) r dr over the support on Gauss-Legendre panels graded
        # toward both edges, where g may blow up just beyond the support
        # (power densities with beta < 0 at r = 1); the order doubles until
        # two levels agree within RADIAL_MASS_TOL.  A non-finite level is
        # returned as it is, for the caller's DomainError.
        a, b = self.support
        if b <= a:
            return 0.0
        half = 0.5 * (b - a)
        edges = np.concatenate(([a], a + half * _RADIAL_MASS_GRADE[::-1],
                                b - half * _RADIAL_MASS_GRADE[1:], [b]))
        prev = None
        for q in GAUSS_ORDERS:
            x, wq = gauss_legendre_nodes(edges[:-1, None], edges[1:, None], q)
            total = 2.0 * float(np.sum(wq * self.g(x) * x))
            if not np.isfinite(total) or (
                    prev is not None and abs(total - prev) <= RADIAL_MASS_TOL * total):
                return total
            prev = total
        raise ConvergenceError(
            f"radial density {self.meta or 'log_g'} total mass failed to reach "
            f"rtol={RADIAL_MASS_TOL:g} by Gauss-Legendre order {GAUSS_ORDERS[-1]} "
            f"on its support [{a}, {b}]")

    def disk_mass_many(self, centers: np.ndarray, rhos: np.ndarray) -> np.ndarray:
        """mu(D(center, rho)) via the arc-angle reduction, vectorized.

        mu(D) = (1/pi) * int r g(r) Theta(r) dr with Theta the angular opening
        of the circle |z| = r inside the disk, plus 2 * int r g(r) dr over the
        circles inside it whole.  With d = |center| and a = max(d, rho),
        b = min(d, rho), the substitution r = a - b*cos(t), t in [0, pi],
        removes the sqrt ends of Theta at r = |d - rho| and d + rho.  Theta is
        taken in half-angle form, which does not cancel: for d > rho
        Theta = 4*arcsin(rho*sin(t) / (2*sqrt(d*r))), and for d <= rho, with
        c = cos(t/2) and s = sin(t/2),
        Theta = 4*atan2(c*sqrt(a - b*c^2), s*sqrt(a + b*s^2)).

        An arc inside the support (d - rho > lo, d + rho < hi) has an even,
        2pi-periodic integrand in t, so the trapezoid rule converges
        geometrically.  Its levels n = 8, 16, 32 share nodes, and a row leaves
        once two levels agree within ARC_TRAPEZOID_TOL relative.  Rows still
        open, clipped arcs and centres with d <= rho take 64 Gauss-Legendre
        nodes in t on [t(r_lo), t(r_hi)], in four panels graded toward t(r_lo).
        """
        d = np.abs(np.asarray(centers, dtype=complex))
        rho = np.broadcast_to(np.asarray(rhos, dtype=float), d.shape).astype(float)
        lo, hi = self.support
        out = np.zeros_like(d)

        # full circles |z| = r with r < rho - d lie inside D entirely
        full_hi = np.minimum(hi, rho - d)
        has_full = full_hi > lo
        if np.any(has_full):
            a = np.full((np.sum(has_full), 1), lo)
            r_nodes, wq = gauss_legendre_nodes(a, full_hi[has_full, None], 64)
            out[has_full] += 2.0 * np.sum(wq * self.g(r_nodes) * r_nodes, axis=1)

        # arcs: r in [max(lo, |d - rho|), min(hi, d + rho)]
        has_arc = (np.minimum(hi, d + rho) > np.maximum(lo, np.abs(d - rho))) & (d > 0)
        whole = np.flatnonzero(has_arc & (d - rho > lo) & (d + rho < hi))
        if whole.size:
            dd, rr = d[whole, None], rho[whole, None]
            total = est = None
            for n, cos_v, sin_v in _ARC_TRAPEZOID_LEVELS:
                r = dd - rr * cos_v
                h = r * self.g(r) * np.arcsin(rr * sin_v / (2.0 * np.sqrt(dd * r))) * sin_v
                total = np.sum(h, axis=1) if total is None else total + np.sum(h, axis=1)
                prev, est = est, total / n
                if prev is None:
                    continue
                done = np.abs(est - prev) <= ARC_TRAPEZOID_TOL * np.abs(est)
                # int_0^pi h dv ~ (pi / n) * total, and mu(D) = (4 rho / pi) * that
                out[whole[done]] += 4.0 * rr[done, 0] * est[done]
                has_arc[whole[done]] = False
                keep = ~done
                whole, dd, rr = whole[keep], dd[keep], rr[keep]
                total, est = total[keep], est[keep]
                if not whole.size:
                    break

        if np.any(has_arc):
            dd = d[has_arc]
            rr = rho[has_arc]
            a = np.maximum(dd, rr)
            b = np.minimum(dd, rr)
            # t(r) = arccos((a - r) / b); the unclipped ends are t = 0 and pi
            t_lo = np.where(lo > a - b, np.arccos(np.clip((a - lo) / b, -1.0, 1.0)), 0.0)
            t_hi = np.where(hi < a + b, np.arccos(np.clip((a - hi) / b, -1.0, 1.0)), np.pi)
            s01, w01 = _ARC_GAUSS_RULE
            span = (t_hi - t_lo)[:, None]
            t = t_lo[:, None] + span * s01
            wt = span * w01
            a, b = a[:, None], b[:, None]
            r = a - b * np.cos(t)
            sin_t = np.sin(t)
            ch, sh = np.cos(0.5 * t), np.sin(0.5 * t)
            outside = dd[:, None] > rr[:, None]
            with np.errstate(invalid="ignore"):
                # each branch is taken only where it is defined
                theta = 4.0 * np.where(
                    outside,
                    np.arcsin(b * sin_t / (2.0 * np.sqrt(a * r))),
                    np.arctan2(ch * np.sqrt(a - b * ch * ch), sh * np.sqrt(a + b * sh * sh)),
                )
            integ = r * self.g(r) * theta * (b * sin_t) / np.pi
            out[has_arc] += np.sum(wt * integ, axis=1)
        return out

    def scaled(self, c: float) -> "RadialDensityMeasure":
        if not 0.0 <= c < np.inf:
            raise DomainError(f"scale {c} is not a finite nonnegative number")
        meta = dict(self.meta)
        meta["scale"] = c * meta.get("scale", 1.0)
        with np.errstate(divide="ignore"):  # c = 0: log 0 = -inf, the zero density
            log_c = np.log(c)
        return RadialDensityMeasure(lambda r, _b=self.log_g, _s=log_c: _b(r) + _s,
                                    self.support, meta)

    def to_json(self) -> dict:
        return {"kind": "radial", "support": list(self.support), **self.meta}


class GridDensityMeasure(Measure):
    """Piecewise-constant measure on a polar grid of annular sectors.

    cells[i, j] is the mass of the sector r in [r_i, r_{i+1}],
    theta in [theta_j, theta_{j+1}] with uniform edges on [0, r_outer] x
    [0, 2 pi).  Disk masses are sampled, not exact: a cell counts whole or
    not at all by its 3x3 corner and midpoint samples, a boundary cell splits
    into quadrants down to MAX_DEPTH = 3, and there counts the share of its
    4x4 interior samples inside the disk.  A disk smaller than a cell thus
    gets a quantised mass (see disk_mass_many).
    """

    kind = "grid"
    MAX_DEPTH = 3

    def __init__(self, cells, r_outer: float = 1.0 - 1e-9):
        cells = np.asarray(cells, dtype=float)
        if cells.ndim != 2:
            raise DomainError("cells must be a 2-D (nr x ntheta) array")
        if not np.all((cells >= 0.0) & (cells < np.inf)):
            raise DomainError("cell masses must be finite and nonnegative")
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


def indicator_density(r_lo: float = 0.0, r_hi: float = 1.0) -> RadialDensityMeasure:
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
    if not s < 1.0:
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
    require_keys(data, "measure", "kind")
    kind = data["kind"]
    if kind == "atomic":
        require_keys(data, "atomic measure", numbers=("atoms",))
        atoms = data.get("atoms", [])
        if not isinstance(atoms, list) or any(not isinstance(a, list) or len(a) != 3
                                               for a in atoms):
            raise ParameterError("atomic measure atoms must be [x, y, mass] triples")
        pts = [complex(x, y) for x, y, _ in atoms]
        ms = [m for _, _, m in atoms]
        return AtomicMeasure(pts, ms)
    # optional keys are passed only when given, so the constructors' defaults hold
    if kind == "radial":
        require_keys(data, "radial measure", "density", numbers=("support", "scale"))
        if "support" in data and not (isinstance(data["support"], list)
                                      and len(data["support"]) == 2):
            raise ParameterError("radial measure JSON needs an [a, b] pair at 'support'")
        dens = data["density"]
        opt = {"support": tuple(data["support"])} if "support" in data else {}
        scale = float(data.get("scale", 1.0))
        if dens == "power":
            require_keys(data, "power density", "beta", numbers=("beta",))
            mu = power_density(float(data["beta"]), **opt)
        elif dens == "indicator":
            mu = indicator_density(*opt.get("support", ()))
        elif dens == "compensated":
            if w is None:
                raise ParameterError("compensated density needs the weight")
            require_keys(data, "compensated density", "s", "beta", numbers=("s", "beta"))
            mu = compensated_density(w, float(data["s"]), float(data["beta"]), **opt)
        else:
            raise ParameterError(f"unknown radial density family {dens!r}")
        return mu.scaled(scale) if scale != 1.0 else mu
    if kind == "grid":
        require_keys(data, "grid measure", "nr", "ntheta", "cells",
                     numbers=("cells", "r_outer"), integers=("nr", "ntheta"))
        nr, ntheta = data["nr"], data["ntheta"]
        if nr < 1 or ntheta < 1:
            raise ParameterError(f"grid measure needs nr, ntheta >= 1, not {nr}, {ntheta}")
        try:
            cells = np.array(data["cells"], dtype=float)
        except ValueError:
            raise ParameterError("grid measure JSON needs a rectangular list at 'cells'") from None
        if cells.size != nr * ntheta:
            raise ParameterError(
                f"grid measure has {cells.size} cells, not nr * ntheta = {nr * ntheta}"
            )
        opt = {"r_outer": float(data["r_outer"])} if "r_outer" in data else {}
        return GridDensityMeasure(cells.reshape(nr, ntheta), **opt)
    raise ParameterError(f"unknown measure kind {kind!r}")


def save_measure(mu: Measure, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mu.to_json(), fh)


def load_measure(path: str, w: RadialWeight | None = None) -> Measure:
    return measure_from_json(load_json(path), w)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def mu_hat(w: RadialWeight, mu: Measure, delta: float, z):
    """Averaging function mu(D(delta tau(z))) / tau(z)^2 at a point or an array.

    Returns a float for a scalar z, else an array shaped like z.
    """
    w.require_delta(delta)
    zs = np.asarray(z, dtype=complex)
    if not np.all(np.abs(zs) < 1.0):
        raise DomainError("z must lie in the open unit disk")
    taus = w.tau(np.abs(zs))
    mass = mu.disk_mass_many(zs.ravel(), (delta * taus).ravel()).reshape(zs.shape)
    vals = mass / (taus * taus)
    return float(vals) if zs.ndim == 0 else vals


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
    pts = polar_points(radii, n_theta).ravel()
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
    if n_r < 1 or n_theta < 1:
        raise ParameterError(f"carleson_constant needs n_r >= 1 and n_theta >= 1, "
                             f"got {n_r} and {n_theta}")
    if tail_radii is None:
        tail_radii = tuple(f * r_max for f in (0.3, 0.5, 0.7, 0.85, 0.95))
    if not len(tail_radii):
        raise ParameterError("carleson_constant needs at least one tail radius")
    if mu.is_zero:
        return CarlesonReport(0.0, 0j, tuple(tail_radii), (0.0,) * len(tail_radii), 0)
    if isinstance(mu, GridDensityMeasure):
        n_r, n_theta = min(n_r, 96), min(n_theta, 48)
    pts = _carleson_grid(mu, r_max, n_r, n_theta)
    vals = mu_hat(w, mu, delta, pts)
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


def _checked_nodes(mu: Measure):
    """mu.nodes(), with PSDViolationError on a negative weight."""
    nodes, wts = mu.nodes()
    if np.any(wts < 0.0):
        raise PSDViolationError(
            f"negative mass or weight {float(np.min(wts)):.3e}: T_mu is not PSD"
        )
    return nodes, wts


def operator_factor(bt: BasisTable, mu: Measure, n_terms: int):
    """(factor, diag, outer): the one node rule behind T_mu and B(mu).

    The nodes xi_j with weights m_j are the atoms and their masses, or the
    grid's cell rule.  factor[n, j] = e_n(xi_j) sqrt(m_j omega(xi_j)) for
    n < n_terms, so that T_mu = conj(F) F^T, and outer is the largest-modulus
    node; a negative weight raises PSDViolationError, and a measure with no
    node rule ParameterError.  A radial measure has the diagonal symbols
    diag[n] = 2 M_n / h_n instead, with the radial moment
    M_n = int r^(2n+1) omega g dr, and factor = outer = None.
    """
    if isinstance(mu, RadialDensityMeasure):
        logmom = radial_log_moments(
            bt.weight, n_terms - 1, log_density=mu.log_g, support=mu.support
        )
        with np.errstate(over="raise"):
            diag = np.where(
                np.isfinite(logmom),
                np.exp(np.log(2.0) + logmom - bt.log_h[:n_terms]),
                0.0,
            )
        return None, diag, None
    nodes, wts = _checked_nodes(mu)
    factor = basis_columns(bt, nodes, n_terms)
    factor *= np.sqrt(wts)
    return factor, None, nodes[np.argmax(np.abs(nodes))]


def _check_berezin_truncation(bt: BasisTable, z_out: complex, outer) -> None:
    """Raise TruncationError when some point with |z| <= |z_out| is inadequate.

    The tail ratio of a kernel series depends only on |w| and grows with it
    (see toeplitz.assemble_toeplitz), so the largest |z| is the worst point for
    ||K_z||^2 and, with the largest-modulus node, the worst pair for
    K_z(xi): these two checks raise exactly when some point's series is.
    The pair's series has the tail of the diagonal one at
    s = sqrt(|outer| |z_out|), so one diagonal call checks both.
    """
    radii = [abs(z_out)]
    if outer is not None:
        radii.append(np.sqrt(abs(outer * np.conj(z_out))))
    kernel_norm_sq_many(bt, np.array(radii))


def berezin_many(bt: BasisTable, mu: Measure, zs: np.ndarray) -> np.ndarray:
    """Berezin transform at many points, from the weighted basis factor.

    With u = basis_columns(z) and the node factor y of operator_factor,
    (y^H u)_j = conj(K_z(xi_j)) sqrt(m_j omega(xi_j) omega(z)) and
    sum_n |u_n|^2 = omega(z) ||K_z||^2, so
    B(z) = sum_j |(y^H u)_j|^2 / sum_n |u_n|^2.  A radial measure has
    B(z) = sum_n t_n |u_n|^2 / sum_n |u_n|^2.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if mu.is_zero or flat.size == 0:
        return np.zeros(zs.shape)
    n_terms = bt.degree_max + 1
    y, t, outer = operator_factor(bt, mu, n_terms)
    _check_berezin_truncation(bt, flat[np.argmax(np.abs(flat))], outer)
    chunk = max(1, CHUNK_ENTRIES // n_terms)
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
    radial columns a = basis_moduli(r), which form no phase.  So
    sum_n |u|^2 depends on r_i only, and
    (y^H u)[k, (i, j)] = sum_m C[m, i, k] e^(i m theta_j) with
    C[m, i, k] = sum_{n = m mod n_theta} a[n, i] conj(y[n, k]): one batched
    GEMM over the degrees zero-padded to a multiple of n_theta, then an
    unnormalised inverse FFT over m.  A radial measure needs no angles and
    returns one column.
    """
    n_terms = bt.degree_max + 1
    y, t, outer = operator_factor(bt, mu, n_terms)

    def field(r: np.ndarray, n_theta: int) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.empty((r.size, 1 if y is None else n_theta))
        if r.size == 0:
            return out
        _check_berezin_truncation(bt, complex(np.max(r)), outer)
        if y is None:
            chunk = max(1, CHUNK_ENTRIES // n_terms)
        else:
            # conj(y) as interleaved (re, im) pairs with degree n at
            # [n mod n_theta, n // n_theta], so the GEMM's real output is C
            # viewed as complex
            rows = -(-n_terms // n_theta)
            yc = np.zeros((rows * n_theta, y.shape[1]), dtype=complex)
            yc[:n_terms] = y.conj()
            yf = yc.view(float).reshape(rows, n_theta, -1).transpose(1, 0, 2)
            chunk = max(1, CHUNK_ENTRIES // (n_theta * max(rows, y.shape[1])))
        for s0 in range(0, r.size, chunk):
            a = basis_moduli(bt, r[s0 : s0 + chunk], n_terms)
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


def _p_ladder(p) -> list[float]:
    """A scalar p or a sequence of p as a list of floats, each checked positive."""
    ps = np.asarray(p, dtype=float).ravel().tolist()
    if not all(x > 0.0 for x in ps):
        raise ParameterError("p must be positive")
    return ps


def _per_p(p, vals: list):
    """vals[0] for a scalar p, else an array with one value per p."""
    return vals[0] if np.ndim(p) == 0 else np.array(vals, dtype=float)


def lp_lambda_tau_norm(
    w: RadialWeight,
    field,
    p,
    r_max: float,
    n_theta: int = 64,
    tol: float = 1e-6,
    max_doublings: int = 4,
):
    """(int_{|z|<=r_max} field^p tau(z)^(-2) dA)^(1/p) for a scalar p or a sequence.

    field(r, n_theta) returns the nonnegative field on polar_points(r,
    n_theta) as a (len(r), n_theta) array, or as (len(r), 1) for a radial
    field.  Radial panels of 16 Gauss-Legendre nodes are graded geometrically
    toward r_max; their count starts at 24 and doubles until the integral
    changes by less than tol relative.  Each level evaluates the field once
    for every p still open, and each p stops at its own level, so a sequence
    returns, per p, the float a scalar call returns.
    """
    ps = _p_ladder(p)
    if not (0.0 < r_max < 1.0):
        raise DomainError("r_max must lie in (0, 1)")
    if n_theta < 1 or max_doublings < 1:
        raise ParameterError("n_theta and max_doublings must be at least 1")
    vals = [None] * len(ps)
    prev = [None] * len(ps)
    panels = 24
    for _ in range(max_doublings + 1):
        edges = 1.0 - np.geomspace(1.0, 1.0 - r_max, panels + 1)
        r, wq = gauss_legendre_nodes(edges[:-1, None], edges[1:, None], 16)
        r, wq = r.ravel(), wq.ravel()
        f = np.asarray(field(r, n_theta), dtype=float)
        tau = w.tau(r)
        for k, q in enumerate(ps):
            if vals[k] is not None:
                continue
            fp = np.mean(f**q, axis=1)
            cur = float(np.dot(wq, fp * 2.0 * r / (tau * tau)))
            if prev[k] is not None and abs(cur - prev[k]) <= tol * max(abs(cur), abs(prev[k])):
                vals[k] = cur ** (1.0 / q)
            prev[k] = cur
        if None not in vals:
            return _per_p(p, vals)
        panels *= 2
    raise ConvergenceError(f"L^p(d lambda_tau) quadrature failed to reach tol={tol}")


def _atom_region_radii(
    w: RadialWeight, xi: complex, delta: float, theta: np.ndarray
) -> np.ndarray:
    """Boundary radius rho(theta) of {z : |z - xi| < delta tau(z)} around xi.

    The fixed-point map rho -> delta tau(|xi + rho e^(i theta)|) is a
    contraction (tau is c2-Lipschitz and delta c2 < 1/4), and the result is
    its 60th iterate.  Rounding leaves rays on cycles of a few steps rather
    than at a fixed point.  Once iterate k repeats an earlier iterate j bit
    for bit, the iterates cycle with period k - j from j on, and the 60th
    is read off that cycle: the same bits as 60 steps.
    """
    rho = np.full(theta.shape, delta * float(w.tau(abs(xi))))
    e = np.exp(1j * theta)
    iterates, seen = [rho], {rho.tobytes(): 0}
    for k in range(1, 61):
        rho = delta * w.tau(np.minimum(np.abs(xi + rho * e), 1.0 - 1e-12))
        j = seen.setdefault(rho.tobytes(), k)
        if j < k:
            return iterates[j + (60 - j) % (k - j)]
        iterates.append(rho)
    return rho


def _atomic_muhat_lp_integral(
    w: RadialWeight,
    mu: AtomicMeasure,
    delta: float,
    ps: list[float],
    r_maxes: list[float],
) -> list:
    """int mu_hat^p d lambda_tau for an atomic measure: per r_max in r_maxes,
    a list with one value per p in ps.

    mu_hat is piecewise constant (it jumps where an atom enters the disk
    D(delta tau(z))), so smooth quadrature cannot converge.  It vanishes
    outside the union of the atoms' regions R_j = {z : |z - xi_j| < delta
    tau(z)}, and the integral over the union is sum_j int_{R_j} F / N with
    N(z) the number of regions that hold z.  Each region is integrated in
    polar coordinates around its atom with the boundary radius solved
    exactly on 256 rays, and 48 Gauss-Legendre nodes along the part of each
    ray that lies in |z| <= r_max.  A node of R_j that other regions hold
    gets their masses in mu_hat and divides by their count; where no other
    region reaches, that factor is exactly 1.  A region is solved once for
    every r_max, and its tau(z) serves every p; an r_max that leaves an
    atom's rays as the one before left them reuses their integrals.
    Massless atoms add to mu_hat nowhere and are dropped.
    """
    massive = mu.masses > 0
    pts, masses = mu.points[massive], mu.masses[massive]
    # regions are contained in disks of radius (4/3) delta tau(xi)
    r_out = (4.0 / 3.0) * delta * w.tau(np.abs(pts))
    near = np.abs(pts[:, None] - pts[None, :]) < (r_out[:, None] + r_out[None, :])
    np.fill_diagonal(near, False)
    theta = np.arange(256) * (2.0 * np.pi / 256)
    e = np.exp(1j * theta)
    x01, w01 = gauss_legendre_rule(48)
    totals = [[0.0] * len(ps) for _ in r_maxes]
    for xi, m, others in zip(pts, masses, near):
        rho = _atom_region_radii(w, xi, delta, theta)
        b = np.real(np.conj(xi) * e)
        last = means = None
        for rung, r_max in zip(totals, r_maxes):
            # each ray meets |z| <= r_max on [entry, exit] = -b -+ sqrt(disc),
            # and the region on [0, rho]; a ray that misses the disk gets 0
            disc = b * b + (r_max * r_max - abs(xi) ** 2)
            root = np.sqrt(np.maximum(disc, 0.0))
            lo = np.where(disc >= 0.0, np.maximum(-b - root, 0.0), 0.0)
            hi = np.where(disc >= 0.0, np.minimum(rho, -b + root), 0.0)
            hi = np.maximum(hi, lo)
            key = lo.tobytes() + hi.tobytes()
            if key != last:
                last = key
                half = 0.5 * (hi - lo)[:, None]
                r_nodes = lo[:, None] + half * (x01[None, :] + 1.0)
                wr = half * w01[None, :] * r_nodes
                z = xi + r_nodes * e[:, None]
                tau_z = w.tau(np.abs(z))
                radius = delta * tau_z
                mass, count = np.full(z.shape, m), np.ones(z.shape)
                for xk, mk in zip(pts[others], masses[others]):
                    held = np.abs(z - xk) < radius
                    mass += mk * held
                    count += held
                # integrand mu_hat^p * tau^(-2) = m^p tau(z)^(-2p) * tau(z)^(-2)
                # times this node's share (mu_hat / m)^p / N of it
                means = [float(np.mean(np.sum(
                    wr * tau_z ** (-2.0 * p - 2.0) * ((mass / m) ** p / count), axis=1)))
                    for p in ps]
            for k, (p, mean) in enumerate(zip(ps, means)):
                rung[k] += m**p * mean * 2.0
    return totals


def mu_hat_lp_norm(
    w: RadialWeight,
    mu: Measure,
    delta: float,
    p,
    r_max,
    *,
    n_theta: int | None = None,
    tol: float | None = None,
    max_doublings: int | None = None,
):
    """||mu_hat_delta||_{L^p(d lambda_tau)} truncated at r_max.

    p is a scalar (a float back) or a sequence (one value per p, each equal
    to the scalar call's).  r_max is a scalar or a sequence of cut-offs, the
    rungs of a ladder: a sequence returns a list with one result per rung,
    each the scalar call's result.  The call is all or nothing: radial and
    grid rungs run from the largest r_max down, so a ladder whose largest
    rung fails to converge raises before the smaller rungs are computed.
    n_theta, tol and max_doublings go to lp_lambda_tau_norm, whose defaults
    hold unless given; a grid measure defaults to n_theta=32, tol=1e-3.
    Atoms take no quadrature options: one rule integrates them region by
    region, overlapping or not, and solves each region once for every rung.
    """
    ps = _p_ladder(p)
    r_maxes = np.asarray(r_max, dtype=float).ravel().tolist()
    if not all(0.0 < r < 1.0 for r in r_maxes):
        raise DomainError("r_max must lie in (0, 1)")
    w.require_delta(delta)
    quad = dict(n_theta=n_theta, tol=tol, max_doublings=max_doublings)
    quad = {k: v for k, v in quad.items() if v is not None}
    if isinstance(mu, AtomicMeasure) and quad:
        raise ParameterError(f"atomic measures take no quadrature options: {sorted(quad)}")
    if isinstance(mu, AtomicMeasure):
        rungs = [_per_p(p, [t ** (1.0 / q) for t, q in zip(totals, ps)])
                 for totals in _atomic_muhat_lp_integral(w, mu, delta, ps, r_maxes)]
    else:
        if isinstance(mu, GridDensityMeasure):
            quad = {"tol": 1e-3, "n_theta": 32, **quad}
        radial = isinstance(mu, RadialDensityMeasure)

        def field(r, n_theta):
            if radial:
                return mu_hat(w, mu, delta, r)[:, None]
            return mu_hat(w, mu, delta, polar_points(r, n_theta))

        by_r = {r: lp_lambda_tau_norm(w, field, p, r, **quad)
                for r in sorted(set(r_maxes), reverse=True)}
        rungs = [by_r[r] for r in r_maxes]
    return rungs[0] if np.ndim(r_max) == 0 else rungs


def berezin_lp_norm(bt: BasisTable, mu: Measure, p, r_max: float):
    """||B mu||_{L^p(d lambda_tau)} truncated at r_max, for a scalar p or a sequence.

    The Berezin transform is smooth, so 32 angles and tol 1e-4 suffice for
    the factor-window comparisons it feeds.
    """
    ps = _p_ladder(p)
    if mu.is_zero:
        return _per_p(p, [0.0] * len(ps))
    # the factor (or the radial symbols t_n) is built once, and each level's
    # field serves every p
    field = _berezin_polar_field(bt, mu)
    return lp_lambda_tau_norm(bt.weight, field, p, r_max, n_theta=32, tol=1e-4)


def lattice_lp_sum(w: RadialWeight, mu: Measure, lat: Lattice, delta: float, p):
    """(sum_n mu_hat_delta(z_n)^p)^(1/p) over the lattice points.

    p is a scalar (a float back) or a sequence (one value per p).
    """
    ps = _p_ladder(p)
    w.require_delta(delta)
    vals = mu_hat(w, mu, delta, lat.points)
    return _per_p(p, [float(np.sum(vals**q) ** (1.0 / q)) for q in ps])
