"""Adaptive disk lattices: separated point sets whose tau-scaled disks cover.

The construction is a deterministic greedy annular sweep: candidates are laid
on concentric rings with spacing proportional to delta*tau and accepted when
they keep the separation rule |c - z_j| >= delta * max(tau(c), tau(z_j)).
A low-discrepancy probe pass then repairs the covering: in each round the
uncovered probes are inserted, innermost first, by the same greedy rule as
a ring's candidates (one whose position conflicts is a failed repair); each
round re-probes only the points it inserted, and the lattice records the pass
so that certify_lattice at the same probe count need not repeat it.

The searches are numpy alone, and one rule (_conflict) decides separation in
all of them.  A ring's candidates lie on an even grid of angles, so each point
of the earlier rings within reach meets them through a window of grid indices
found by arithmetic (_index_window), and two conflicting candidates of one
ring lie a bounded number of places apart (_ring_pairs).  The repair, the
probe pass, certify_lattice and partition_separated take their close pairs
from one search on data sorted into square cells (_bands, read by _pairs and
_probe_coverage).
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, ResourceError, load_json, require_keys
from .weights import RadialWeight

_GOLDEN = 0.6180339887498949
_SEP_SLACK = 1.0 - 1e-12
# searches at an exact rule's own radius widen it by this factor, so that the
# exact comparisons on the returned pairs, not the search's rounding, decide
_BALL_SLACK = 1.0 + 1e-9
# tau is c2-Lipschitz and delta*c2 < 1/4, so a conflict |c - z_j| <
# delta*max(tau_c, tau_j) has the larger tau below 4/3 of the smaller one and
# lies within (4/3)*delta*tau_c of c: a search to _REACH*delta*tau_c finds it
_REACH = 1.5
# the most points a sweep may place before build_lattice raises ResourceError
MAX_POINTS = 2_000_000


@dataclass(frozen=True)
class Lattice:
    """An ordered separated covering point set on {|z| <= r_max}."""

    weight: RadialWeight
    delta: float
    r_max: float
    points: np.ndarray            # complex, construction order, points[0] == 0
    multiplicity_observed: int
    # the tau each point was placed with: its ring's tau(r) for a swept
    # point, tau(|p|) for a repair point (equal to tau(|z_j|) up to rounding)
    taus: np.ndarray = field(repr=False)
    # uncovered probes whose position conflicts, summed over the repair
    # rounds; a round that inserts nothing ends the repair
    repairs_failed: int = 0
    # (probe_count, covering_misses) of build_lattice's probe pass over these
    # points; None on a lattice that did not come from build_lattice
    probe_pass: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "r_max": self.r_max,
            "weight": self.weight.to_json(),
            "multiplicity_observed": self.multiplicity_observed,
            "repairs_failed": self.repairs_failed,
            "points": [[float(p.real), float(p.imag)] for p in self.points],
        }


def lattice_from_json(data: dict, w: RadialWeight) -> Lattice:
    require_keys(data, "lattice", "points", "delta", "r_max",
                 numbers=("points", "delta", "r_max"),
                 integers=("multiplicity_observed", "repairs_failed"))
    points = data["points"]
    if not (isinstance(points, list)
            and all(isinstance(p, list) and len(p) == 2 for p in points)):
        raise ParameterError("lattice JSON needs a list of [x, y] pairs at 'points'")
    delta, r_max = float(data["delta"]), float(data["r_max"])
    w.require_delta(delta)
    _require_r_max(r_max)
    pts = np.array([complex(x, y) for x, y in points])
    if not np.all(np.abs(pts) < 1.0):
        raise DomainError("lattice points must lie in the open unit disk")
    return Lattice(
        weight=w,
        delta=delta,
        r_max=r_max,
        points=pts,
        multiplicity_observed=int(data.get("multiplicity_observed", -1)),
        taus=w.tau(np.abs(pts)),
        repairs_failed=int(data.get("repairs_failed", 0)),
    )


def quasi_distance(w: RadialWeight, z: complex, zeta: complex) -> float:
    """d_tau(z, zeta) = |z - zeta| / min(tau(z), tau(zeta))."""
    if not (abs(z) < 1.0 and abs(zeta) < 1.0):
        raise DomainError("quasi_distance arguments must lie in the open disk")
    if z == zeta:
        return 0.0
    t = min(float(w.tau(abs(z))), float(w.tau(abs(zeta))))
    return abs(z - zeta) / t


def _xy(pts: np.ndarray) -> np.ndarray:
    return np.column_stack([pts.real, pts.imag])


def _radical_inverse(idx: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput points of the indices idx in base b, digits added least
    significant first as scipy's unscrambled Halton adds them, so bit for bit.

    They are read from a table of the first max(idx) + 1 points, built a digit
    at a time: the points below b^(k+1) are those below b^k, each plus
    d b^-(k+1) for d = 0 .. b - 1.  Every index sees the same float additions
    in the same order, and adding 0 b^-(k+1) changes nothing.
    """
    n = int(np.max(idx)) + 1 if len(idx) else 1
    table = np.zeros(1)
    b2r = 1.0 / base
    while len(table) < n:
        table = np.concatenate([table + d * b2r for d in range(base)])[:n]
        b2r /= base
    return table[idx]


def _probe_points(r_max: float, count: int) -> np.ndarray:
    """Deterministic low-discrepancy probes filling {|z| <= r_max}: the
    unscrambled Halton sequence in bases 2 and 3, scaled onto [-r_max, r_max]^2."""
    pts = []
    need = count
    start = 0
    while need > 0:
        idx = np.arange(start, start + int(need * 1.5) + 64)
        start = idx[-1] + 1
        x, y = 2.0 * _radical_inverse(idx, 2) - 1.0, 2.0 * _radical_inverse(idx, 3) - 1.0
        z = r_max * (x + 1j * y)
        z = z[np.abs(z) <= r_max]
        pts.append(z)
        need = count - sum(len(p) for p in pts)
    return np.concatenate(pts)[:count]


class _GreedyState:
    """Accepted points, and the rings of the sweep that placed them.

    Points live in one (capacity, 3) array of x, y and tau that doubles when
    it fills.  Ring k holds the rows from rows[k] on at radius radii[k] and
    at the ascending angles thetas[k] in [0, 2 pi); the origin is ring 0.
    Points added after the sweep (the repair's) belong to no ring.
    """

    def __init__(self):
        self.data = np.empty((4096, 3))
        self.n = 0
        self.radii, self.rows, self.thetas = [], [], []

    def __len__(self):
        return self.n

    @property
    def xy(self) -> np.ndarray:
        return self.data[: self.n, :2]

    @property
    def taus(self) -> np.ndarray:
        return self.data[: self.n, 2]

    def ring_conflicts(self, r, n_ang: int, offs: float, tau_c, delta: float) -> np.ndarray:
        """Per candidate at radius r and angle (k + offs) 2 pi / n_ang,
        k = 0 .. n_ang - 1, all with tau tau_c: does it conflict with a point
        of the rings within _REACH delta tau_c?

        A ring at radius r_k farther than that from r cannot hold a conflict.
        The others are one block of rows, and each of their points meets a
        window of candidate indices as wide as the innermost ring's, the
        widest, which holds every candidate within reach of it.
        """
        thetas = (np.arange(n_ang) + offs) * (2.0 * np.pi / n_ang)
        reach = _REACH * delta * tau_c
        x, y = r * np.cos(thetas), r * np.sin(thetas)
        k0 = bisect.bisect_left(self.radii, r - reach * _BALL_SLACK)
        k1 = bisect.bisect_right(self.radii, r + reach * _BALL_SLACK)
        hit = np.zeros(n_ang, dtype=bool)
        if k0 == k1:
            return hit
        block = self.data[self.rows[k0]:self.rows[k1] if k1 < len(self.rows) else self.n]
        c = _index_window(np.concatenate(self.thetas[k0:k1]),
                          _half_angle(reach, r, self.radii[k0]), n_ang, offs)
        hit[c[_conflict(block[:, :1] - x[c], block[:, 1:2] - y[c],
                        tau_c, block[:, 2:], delta)]] = True
        return hit

    def add(self, x, y, tau_c):
        x = np.atleast_1d(x)
        end = self.n + len(x)
        if end > len(self.data):
            grown = np.empty((max(end, 2 * len(self.data)), 3))
            grown[: self.n] = self.data[: self.n]
            self.data = grown
        self.data[self.n : end, 0] = x
        self.data[self.n : end, 1] = y
        self.data[self.n : end, 2] = tau_c
        self.n = end

    def add_ring(self, r, thetas, tau_c):
        """Accept the points at radius r and the ascending angles thetas as one ring."""
        self.radii.append(r)
        self.rows.append(self.n)
        self.thetas.append(thetas)
        self.add(r * np.cos(thetas), r * np.sin(thetas), tau_c)


def _conflict(dx, dy, tau_a, tau_b, delta: float):
    """Do two points dx + i dy apart conflict under the separation rule,
    |dx + i dy| < delta * max(tau_a, tau_b)?  Compared squared."""
    lim = delta * np.maximum(tau_a, tau_b)
    return dx**2 + dy**2 < lim * lim


def _half_angle(reach: float, r: float, r_k: float) -> float:
    """Largest angle between points on |z| = r and |z| = r_k closer than reach.

    |z - w|^2 = (r - r_k)^2 + 4 r r_k sin^2(angle / 2), so the angle is below
    2 asin(reach / (2 sqrt(r r_k))), and any angle when that argument is >= 1.
    """
    s = 2.0 * math.sqrt(r * r_k)
    return math.pi if s <= reach else 2.0 * math.asin(reach / s)


def _index_window(phi, half: float, n_ang: int, offs: float) -> np.ndarray:
    """Row j holds the indices i of the candidate angles (i + offs) 2 pi / n_ang
    in a window that holds every one within half of phi[j] modulo 2 pi, each
    once; half <= pi.

    The window starts at the floor of its lower end's index and holds one
    index more than the floor(2 half / step) + 2 that exact arithmetic needs,
    so that rounding in the index arithmetic drops nothing; so it reaches at
    most one candidate below its lower end and two above its upper end.  It
    is the whole circle once that takes n_ang candidates.
    """
    step = 2.0 * np.pi / n_ang
    width = min(n_ang, int(2.0 * half / step) + 3)
    lo = np.floor((phi - half) / step - offs).astype(np.intp)
    return (lo[:, None] + np.arange(width)) % n_ang


def _ring_pairs(x, y, gap: int, tau: float, delta: float):
    """(a, b), a < b, of the points x + iy of one ring (all with the ring's
    tau) that conflict and lie at most gap places apart around it, each pair
    at least once."""
    m = len(x)
    gap = max(0, min(m - 1, gap))
    a = np.tile(np.arange(m), gap)
    b = (a + np.repeat(np.arange(1, gap + 1), m)) % m
    a, b = np.minimum(a, b), np.maximum(a, b)
    near = _conflict(x[a] - x[b], y[a] - y[b], tau, tau, delta)
    return a[near], b[near]


def _in_box(pts, around, pad: float) -> np.ndarray:
    """Indices of the rows of pts in the bounding box of the rows of around,
    widened by pad."""
    return np.flatnonzero(np.all((pts >= around.min(axis=0) - pad)
                                 & (pts <= around.max(axis=0) + pad), axis=1))


def _repair_round(state: _GreedyState, xy, taus, delta: float) -> np.ndarray:
    """Indices, ascending, of the uncovered probes xy (with taus) that one
    repair round inserts: in order, each that conflicts neither with a point
    of state nor with a probe inserted before it.

    One search finds the probes' conflicts with the points in reach, one
    self-search those among the probes free of these; the relation being
    symmetric, the sequential greedy inserts those of first-fit colour 0.
    """
    reach = _REACH * delta * taus
    box = _in_box(state.xy, xy, reach.max() * _BALL_SLACK)
    pts, pt = state.xy[box], state.taus[box]
    row, hit = _pairs(xy, reach, pts)
    blocked = _conflict(*(xy[row] - pts[hit]).T, taus[row], pt[hit], delta)
    free = np.setdiff1d(np.arange(len(xy)), row[blocked])
    a, b = _pairs(xy[free], reach[free])
    near = _conflict(*(xy[free[a]] - xy[free[b]]).T, taus[free[a]], taus[free[b]], delta)
    a, b = a[near], b[near]
    return free[_first_fit(len(free), np.minimum(a, b), np.maximum(a, b)) == 0]


def _ranges(lo, hi):
    """The length of every range(lo[k], hi[k]) (0 when empty), and their
    members laid end to end."""
    count = np.maximum(hi - lo, 0)
    return count, np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)


def build_lattice(
    w: RadialWeight,
    delta: float,
    r_max: float,
    probe_count: int = 100_000,
) -> Lattice:
    """Greedy annular-sweep lattice on {|z| <= r_max} with covering repair.

    Deterministic: fixed sweep order (rings outward, golden-ratio angular
    offsets, ring and angular spacing 0.45 delta tau) and an unscrambled
    Halton probe grid.
    """
    w.require_delta(delta)
    _require_r_max(r_max)
    _require_probe_count(probe_count)

    state = _sweep(w, delta, r_max)

    # covering repair: insert uncovered probes (innermost first), then probe
    # only the inserted points; covered is an OR and counts a sum over points.
    # A round that inserts nothing leaves the lattice as it was, so it ends
    # the repair.
    probes = _probe_points(r_max, probe_count)
    probes = probes[np.argsort(np.abs(probes))]
    probe_xy = _xy(probes)
    repairs_failed = 0
    covered, counts = _probe_coverage(probe_xy, state.xy, state.taus, delta)
    for _ in range(20):
        if covered.all():
            break
        miss = probes[~covered]
        miss_xy, miss_taus = _xy(miss), w.tau(np.abs(miss))
        keep = _repair_round(state, miss_xy, miss_taus, delta)
        repairs_failed += len(miss) - len(keep)
        if not len(keep):
            break
        xy, taus = miss_xy[keep], miss_taus[keep]
        state.add(xy[:, 0], xy[:, 1], taus)
        # only the probes in the inserted points' bounding box, widened by
        # their largest search radius, can meet them
        box = _in_box(probe_xy, xy, 3.0 * delta * taus.max() * _BALL_SLACK)
        more, extra = _probe_coverage(probe_xy[box], xy, taus, delta)
        covered[box] |= more
        counts[box] += extra

    lat = Lattice(
        weight=w,
        delta=delta,
        r_max=r_max,
        points=state.xy[:, 0] + 1j * state.xy[:, 1],
        multiplicity_observed=int(counts.max(initial=0)),
        taus=state.taus.copy(),
        repairs_failed=repairs_failed,
    )
    object.__setattr__(lat, "probe_pass", (probe_count, int(np.sum(~covered))))
    return lat


def _sweep(w: RadialWeight, delta: float, r_max: float) -> _GreedyState:
    """The rings of the greedy annular sweep, outward from the origin to r_max."""
    candidate_spacing = 0.45
    state = _GreedyState()
    tau_r = float(w.tau(0.0))
    state.add_ring(0.0, np.zeros(1), tau_r)

    r = 0.0
    ring = 0
    last_ring = False
    while not last_ring:
        r_next = r + candidate_spacing * delta * tau_r
        if r_next >= r_max:
            # close the sweep with a ring on the rim itself so that the outer
            # annulus is covered without relying on probe repair
            r_next = r_max
            last_ring = True
        r = r_next
        ring += 1
        tau_ring = float(w.tau(r))
        n_ang = max(6, int(np.ceil(2.0 * np.pi * r / (candidate_spacing * delta * tau_ring))))
        offs = (ring * _GOLDEN) % 1.0
        step = 2.0 * np.pi / n_ang
        # the ring's candidates are tested together against the earlier rings
        # within reach; only conflicts inside the ring are resolved in order
        free = np.flatnonzero(~state.ring_conflicts(r, n_ang, offs, tau_ring, delta))
        thetas = (free + offs) * step
        x, y = r * np.cos(thetas), r * np.sin(thetas)
        # two conflicting candidates lie at most gap grid indices apart, so at
        # most gap places apart among the free ones
        gap = math.ceil(_half_angle(delta * tau_ring * _BALL_SLACK, r, r) / step)
        a, b = _ring_pairs(x, y, gap, tau_ring, delta)
        state.add_ring(r, thetas[_first_fit(len(free), a, b) == 0], tau_ring)
        # the next ring steps from this one's radius
        tau_r = tau_ring
        if len(state) > MAX_POINTS:
            raise ResourceError(
                f"lattice exceeded cap of {MAX_POINTS} points "
                f"(r_max={r_max} too close to 1 for delta={delta})"
            )
    return state


def _require_r_max(r_max: float) -> None:
    if not (0.0 < r_max < 1.0):
        raise DomainError(f"r_max must lie in (0, 1), got {r_max}")


def _require_probe_count(probe_count: int) -> None:
    if probe_count < 1:
        raise ParameterError(f"probe_count must be >= 1, got {probe_count}")


def _first_fit(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-fit colour of the points 0..n-1 in order: the least colour that
    no earlier point conflicting with it holds.

    (a, b) with a < b are the conflicting pairs, each at least once.
    """
    # CSR rows by the later point: earlier[start[k]:start[k + 1]] are the
    # earlier points conflicting with k
    order = np.argsort(b, kind="stable")
    earlier = a[order].tolist()
    start = np.searchsorted(b[order], np.arange(n + 1)).tolist()
    colors = []
    for lo, hi in zip(start, start[1:]):
        c = 0
        if lo < hi:
            used = {colors[i] for i in earlier[lo:hi]}
            while c in used:
                c += 1
        colors.append(c)
    return np.array(colors, dtype=np.intp)


def _bands(xy, radii, data):
    """The search behind _pairs, one band of rows at a time.

    Yields (sel, order, count, pos): sel holds the band's rows in cell order,
    order the data indices sorted by cell, and count and pos are the runs of
    _ranges, one per row and visited cell column, column offset by column
    offset: the run of row sel[k] at column offset c is count[c * len(sel) + k]
    long, and order[pos] over it are its hits.
    """
    radii = np.broadcast_to(radii, (len(xy),))
    pts = xy if data is None else data
    if not len(xy) or not len(pts):
        return
    # visit a rounding margin beyond each disk, so that the cell arithmetic
    # never drops a pair at exactly its radius
    pad = 8.0 * np.finfo(float).eps * (1.0 + np.abs(pts).max() + np.abs(xy).max())
    # a hit lies within radius of its row, so its norm does too: each band
    # sorts only the data in the annulus of its rows' norms
    norm = np.hypot(pts[:, 0], pts[:, 1])
    by_norm = np.argsort(norm, kind="stable")
    norm = norm[by_norm]
    row_norm = np.hypot(xy[:, 0], xy[:, 1])
    band = np.floor(2.0 * np.log2(radii))
    for b in np.unique(band):
        sel = np.flatnonzero(band == b)
        reach = radii[sel].max() + 2.0 * pad
        side = radii[sel].max() / 5.0
        near = by_norm[np.searchsorted(norm, row_norm[sel].min() - reach):
                       np.searchsorted(norm, row_norm[sel].max() + reach, side="right")]
        if not len(near):
            continue
        origin = pts[near].min(axis=0)
        cell = np.floor((pts[near] - origin) / side).astype(np.intp)
        ncol, nrow = cell.max(axis=0) + 1
        key = cell[:, 0] * nrow + cell[:, 1]
        order = np.argsort(key, kind="stable")
        key, order = key[order], near[order]
        # rows in cell order too, so that each search starts near the last
        at = np.floor((xy[sel] - origin) / side).astype(np.intp)
        sel = sel[np.argsort(at[:, 0] * nrow + at[:, 1], kind="stable")]
        x, y = xy[sel, 0] - origin[0], xy[sel, 1] - origin[1]
        r = radii[sel] + pad
        # in a self-search the columns before a row's own hold no later row
        first = np.floor((x if data is None else x - r) / side).astype(np.intp)
        last = np.floor((x + r) / side).astype(np.intp)
        lo, hi = [], []
        for col in first + np.arange((last - first).max() + 1)[:, None]:
            left = col * side
            dx = np.maximum(np.maximum(left - x, x - (left + side)), 0.0)
            half = np.sqrt(np.maximum(r * r - dx * dx, 0.0))
            bottom = np.floor((y - half) / side)
            top = np.floor((y + half) / side)
            ok = (col <= last) & (col >= 0) & (col < ncol) & (top >= 0) & (bottom < nrow)
            base = np.clip(col, 0, ncol - 1) * nrow
            lo.append(np.searchsorted(key, base + np.clip(bottom, 0, nrow - 1).astype(np.intp)))
            hi.append(np.where(ok, np.searchsorted(
                key, base + np.clip(top, 0, nrow - 1).astype(np.intp), side="right"), 0))
        count, pos = _ranges(np.concatenate(lo), np.concatenate(hi))
        yield sel, order, count, pos


def _pairs(xy, radii, data=None) -> tuple[np.ndarray, np.ndarray]:
    """(row, hit) of a superset of the pairs |xy[row] - data[hit]| <= radii[row].

    Rows whose radii lie within a factor sqrt(2) of each other (one value of
    floor(2 log2 r)) form a band.  For each band the data whose norms lie
    within R of the band's rows' norms, R the band's largest radius, are
    sorted into square cells of side R/5, column by column, and each row
    visits, column by column, the run of cells that meets its own disk; so
    every hit lies within 1.4 radii[row] of its row, and the caller's exact
    comparisons decide.

    With data None, xy is searched against itself, and each pair of distinct
    rows is returned once: from the row first in (x, then index) order,
    which visits only the rows after it.  That order does not depend on a
    band's cells, so the caller's rule must be covered by either row's radius.
    """
    rows, hits = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for sel, order, count, pos in _bands(xy, radii, data):
        row = np.repeat(np.tile(sel, len(count) // len(sel)), count)
        hit = order[pos]
        if data is None:
            # the pairs from a row's own column come first: of these, keep the
            # rows after it in (x, index) order
            own = int(count[: len(sel)].sum())
            px = xy[:, 0]
            a, b = px[row[:own]], px[hit[:own]]
            keep = np.ones(len(row), dtype=bool)
            keep[:own] = (b > a) | ((b == a) & (hit[:own] > row[:own]))
            row, hit = row[keep], hit[keep]
        rows.append(row)
        hits.append(hit)
    if len(rows) == 2:  # one band: no second copy
        return rows[1], hits[1]
    return np.concatenate(rows), np.concatenate(hits)


def _probe_coverage(probes, xy, taus, delta):
    """Covered mask and exact multiplicity of every probe, from one pair search.

    A probe p is covered when |p - z_j| < delta tau_j for some j, and its
    multiplicity is #{j : |p - z_j| < 3 delta tau_j}.  One search from each z_j
    to radius 3 delta tau_j returns every pair either test needs; the radius is
    widened by a rounding margin so that the exact comparisons decide.
    """
    reach = 3.0 * delta * taus
    cover = delta * taus
    px, py = np.ascontiguousarray(probes.T)
    covered = np.zeros(len(probes), dtype=bool)
    counts = np.zeros(len(probes), dtype=np.intp)
    for sel, order, count, pos in _bands(xy, reach * _BALL_SLACK, probes):
        # per band: the probes gathered once in cell order, and the tallies
        # kept in cell order; per visited column offset, each row's values
        # repeated over its run, on few enough pairs to stay in cache
        qx, qy = px[order], py[order]
        x, y, row_cover, row_reach = xy[sel, 0], xy[sel, 1], cover[sel], reach[sel]
        hit = np.zeros(len(order), dtype=bool)
        tally = np.zeros(len(order), dtype=np.intp)
        runs = count.reshape(-1, len(sel))
        for k, p in zip(runs, np.split(pos, np.cumsum(runs.sum(axis=1))[:-1])):
            d = qx[p] - x.repeat(k)
            d *= d
            dy = qy[p] - y.repeat(k)
            d += dy * dy
            np.sqrt(d, out=d)
            hit[p[d < row_cover.repeat(k)]] = True
            tally += np.bincount(p[d < row_reach.repeat(k)], minlength=len(order))
        covered[order] |= hit
        counts[order] += tally
    return covered, counts


@dataclass(frozen=True)
class LatticeCertification:
    separation_ok: bool
    min_separation_ratio: float   # min over pairs of |z_j - z_k| / (delta max tau)
    covering_misses: int
    probes_checked: int
    multiplicity_observed: int

    @property
    def passed(self) -> bool:
        return (
            self.separation_ok
            and self.covering_misses == 0
            and self.multiplicity_observed <= 256
        )


def certify_lattice(lat: Lattice, probe_count: int = 100_000) -> LatticeCertification:
    """Separation, covering and multiplicity checks on a lattice.

    The separation test always runs.  On a lattice returned by build_lattice
    with the same probe_count, the covering misses and multiplicity come from
    the build's probe pass, which probed these points with these probes; any
    other lattice (from dataclasses.replace, lattice_from_json or direct
    construction) or probe_count gets a full probe pass.
    """
    _require_probe_count(probe_count)
    pts = lat.points
    taus = lat.taus
    xy = _xy(pts)
    j, i = _pairs(xy, _REACH * lat.delta * taus)
    d = np.abs(pts[i] - pts[j])
    ratio = d / (lat.delta * np.maximum(taus[i], taus[j]))

    if lat.probe_pass is not None and lat.probe_pass[0] == probe_count:
        misses, multiplicity = lat.probe_pass[1], lat.multiplicity_observed
    else:
        probes = _probe_points(lat.r_max, probe_count)
        covered, counts = _probe_coverage(_xy(probes), xy, taus, lat.delta)
        misses, multiplicity = int(np.sum(~covered)), int(counts.max(initial=0))
    return LatticeCertification(
        separation_ok=not np.any(ratio < _SEP_SLACK),
        min_separation_ratio=float(np.min(ratio, initial=np.inf)),
        covering_misses=misses,
        probes_checked=int(probe_count),
        multiplicity_observed=multiplicity,
    )


def count_in_ball(lat: Lattice, zeta: complex, m: int) -> int:
    """#{z_j : d_tau(z_j, zeta) < 2^m * delta}."""
    if not abs(zeta) < 1.0:
        raise DomainError("zeta must lie in the open unit disk")
    tau_z = float(lat.weight.tau(abs(zeta)))
    lim = (2.0**m) * lat.delta * np.minimum(lat.taus, tau_z)
    return int(np.count_nonzero(np.abs(lat.points - zeta) < lim))


def partition_separated(lat: Lattice, m: int) -> list[np.ndarray]:
    """Partition into subsequences with pairwise d_tau >= 2^m delta.

    First-fit over points in stored order, which reproduces the repeated
    greedy maximal-subsequence extraction: a point joins the first part in
    which it is 2^m delta-far (in d_tau) from every earlier member.
    """
    if m < 2:
        raise ParameterError("m must be >= 2")
    thresh = (2.0**m) * lat.delta
    pts, taus = lat.points, lat.taus
    a, b = _pairs(_xy(pts), thresh * taus)
    near = np.abs(pts[a] - pts[b]) < thresh * np.minimum(taus[a], taus[b])
    a, b = a[near], b[near]
    colors = _first_fit(len(pts), np.minimum(a, b), np.maximum(a, b))
    return [pts[colors == c] for c in range(colors.max(initial=-1) + 1)]


def save_lattice(lat: Lattice, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(lat.to_json(), fh)


def load_lattice(path: str, w: RadialWeight) -> Lattice:
    return lattice_from_json(load_json(path), w)
