"""Adaptive disk lattices: separated point sets whose tau-scaled disks cover.

The construction is a deterministic greedy annular sweep: candidates are laid
on concentric rings with spacing proportional to delta*tau and accepted when
they keep the separation rule |c - z_j| >= delta * max(tau(c), tau(z_j)).
A low-discrepancy probe pass then inserts each uncovered probe whose own
position keeps separation (one whose position conflicts is a failed repair);
each repair round re-probes only the points it inserted, and the lattice records
the pass so that certify_lattice at the same probe count need not repeat it.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DomainError, ParameterError, ResourceError
from .weights import RadialWeight

_GOLDEN = 0.6180339887498949
_SEP_SLACK = 1.0 - 1e-12
# searches at an exact rule's own radius widen it by this factor, so that the
# exact comparisons on the returned pairs, not the tree's rounding, decide
_BALL_SLACK = 1.0 + 1e-9
# tau is c2-Lipschitz and delta*c2 < 1/4, so a conflict |c - z_j| <
# delta*max(tau_c, tau_j) has the larger tau below 4/3 of the smaller one and
# lies within (4/3)*delta*tau_c of c: a search to _REACH*delta*tau_c finds it
_REACH = 1.5


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
    pts = np.array([complex(x, y) for x, y in data["points"]])
    if not np.all(np.abs(pts) < 1.0):
        raise DomainError("lattice points must lie in the open unit disk")
    return Lattice(
        weight=w,
        delta=float(data["delta"]),
        r_max=float(data["r_max"]),
        points=pts,
        multiplicity_observed=int(data.get("multiplicity_observed", -1)),
        taus=w.tau(np.abs(pts)),
        repairs_failed=int(data.get("repairs_failed", 0)),
    )


def quasi_distance(w: RadialWeight, z: complex, zeta: complex) -> float:
    """d_tau(z, zeta) = |z - zeta| / min(tau(z), tau(zeta))."""
    if abs(z) >= 1.0 or abs(zeta) >= 1.0:
        raise DomainError("quasi_distance arguments must lie in the open disk")
    if z == zeta:
        return 0.0
    t = min(float(w.tau(abs(z))), float(w.tau(abs(zeta))))
    return abs(z - zeta) / t


def _xy(pts: np.ndarray) -> np.ndarray:
    return np.column_stack([pts.real, pts.imag])


def _radical_inverse(idx: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput points of the indices idx in base b, digits added least
    significant first as scipy's unscrambled Halton adds them, so bit for bit."""
    out = np.zeros(len(idx))
    b2r = 1.0 / base
    while np.any(idx):
        idx, digit = np.divmod(idx, base)
        out += digit * b2r
        b2r /= base
    return out


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
    """Accepted points with one KD-tree over the rows a candidate can reach.

    Points live in one (capacity, 3) array of x, y and tau that doubles when
    it fills.  The tree covers rows [lo, n) and is rebuilt on the first query
    after lo or n changes.  Candidates are tested in batches: one pair search,
    then the exact separation test on the returned pairs.
    """

    def __init__(self):
        self.data = np.empty((4096, 3))
        self.n = 0
        self.lo = 0
        self.tree = None
        self.tree_rows = None

    def __len__(self):
        return self.n

    @property
    def xy(self) -> np.ndarray:
        return self.data[: self.n, :2]

    @property
    def taus(self) -> np.ndarray:
        return self.data[: self.n, 2]

    def conflicts(self, x, y, tau_c, delta: float) -> np.ndarray:
        """Per candidate: any accepted z_j with |c - z_j| < delta * max(tau_c, tau_j)?"""
        x, y = np.atleast_1d(x), np.atleast_1d(y)
        tau_c = np.broadcast_to(tau_c, x.shape)
        if self.tree_rows != (self.lo, self.n):
            self.tree = cKDTree(self.data[self.lo : self.n, :2])
            self.tree_rows = (self.lo, self.n)
        c, j = _pairs(np.column_stack([x, y]), _REACH * delta * tau_c, self.tree)
        pts = self.data[j + self.lo]
        d2 = (pts[:, 0] - x[c]) ** 2 + (pts[:, 1] - y[c]) ** 2
        lim = delta * np.maximum(tau_c[c], pts[:, 2])
        hit = np.zeros(x.shape, dtype=bool)
        hit[c[d2 < lim * lim]] = True
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


def build_lattice(
    w: RadialWeight,
    delta: float,
    r_max: float,
    probe_count: int = 100_000,
    max_points: int = 2_000_000,
) -> Lattice:
    """Greedy annular-sweep lattice on {|z| <= r_max} with covering repair.

    Deterministic: fixed sweep order (rings outward, golden-ratio angular
    offsets, ring and angular spacing 0.45 delta tau) and an unscrambled
    Halton probe grid.
    """
    w.require_delta(delta)
    if not (0.0 < r_max < 1.0):
        raise DomainError(f"r_max must lie in (0, 1), got {r_max}")
    _require_probe_count(probe_count)

    candidate_spacing = 0.45
    state = _GreedyState()
    state.add(0.0, 0.0, float(w.tau(0.0)))
    # radius and first row of every ring so far, the origin being ring 0
    ring_radii, ring_rows = [0.0], [0]

    r = 0.0
    ring = 0
    last_ring = False
    while not last_ring:
        tau_r = float(w.tau(r))
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
        thetas = (np.arange(n_ang) + offs) * (2.0 * np.pi / n_ang)
        xs = r * np.cos(thetas)
        ys = r * np.sin(thetas)
        # the ring's candidates are tested together against the points of
        # the earlier rings within reach; only conflicts inside the ring are
        # resolved in order
        cut = r - _REACH * delta * tau_ring * _BALL_SLACK
        state.lo = ring_rows[bisect.bisect_left(ring_radii, cut)]
        free = np.flatnonzero(~state.conflicts(xs, ys, tau_ring, delta))
        x, y, lim = xs[free], ys[free], delta * tau_ring
        keep = free[_first_fit(
            np.column_stack([x, y]), lim * _BALL_SLACK,
            lambda a, b: (x[a] - x[b]) ** 2 + (y[a] - y[b]) ** 2 < lim * lim,
        ) == 0]
        ring_radii.append(r)
        ring_rows.append(len(state))
        state.add(xs[keep], ys[keep], tau_ring)
        if len(state) > max_points:
            raise ResourceError(
                f"lattice exceeded cap of {max_points} points "
                f"(r_max={r_max} too close to 1 for delta={delta})"
            )

    # covering repair: insert uncovered probes (innermost first), then probe
    # only the inserted points; covered is an OR and counts a sum over points.
    # A round that inserts nothing leaves the lattice as it was, so it ends
    # the repair.
    probes = _probe_points(r_max, probe_count)
    probes = probes[np.argsort(np.abs(probes))]
    probe_tree = cKDTree(_xy(probes))
    tau_probes = w.tau(np.abs(probes))
    repairs_failed = 0
    state.lo = 0
    covered, counts = _probe_coverage(probe_tree, state.xy, state.taus, delta)
    for _ in range(20):
        if covered.all():
            break
        done = len(state)
        for p, tau_p in zip(probes[~covered], tau_probes[~covered]):
            if state.conflicts(p.real, p.imag, float(tau_p), delta)[0]:
                repairs_failed += 1
            else:
                state.add(p.real, p.imag, float(tau_p))
        if len(state) == done:
            break
        more, extra = _probe_coverage(
            probe_tree, state.xy[done:], state.taus[done:], delta
        )
        covered |= more
        counts += extra

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


def _require_probe_count(probe_count: int) -> None:
    if probe_count < 1:
        raise ParameterError(f"probe_count must be >= 1, got {probe_count}")


def _first_fit(xy: np.ndarray, radii, conflict) -> np.ndarray:
    """First-fit colour of every point in stored order: the least colour that
    no earlier point conflicting with it holds.

    conflict(a, b) is the caller's exact rule on index arrays with a < b, and
    radii reach every pair it can hold on, searched from the later point b.
    """
    b, a = _pairs(xy, radii, cKDTree(xy))
    keep = a < b
    a, b = a[keep], b[keep]
    keep = conflict(a, b)
    a, b = a[keep], b[keep]
    # CSR rows by the later point: earlier[start[k]:start[k + 1]] are the
    # earlier points conflicting with k
    order = np.argsort(b, kind="stable")
    earlier = a[order].tolist()
    start = np.searchsorted(b[order], np.arange(len(xy) + 1)).tolist()
    colors = []
    for lo, hi in zip(start, start[1:]):
        c = 0
        if lo < hi:
            used = {colors[i] for i in earlier[lo:hi]}
            while c in used:
                c += 1
        colors.append(c)
    return np.array(colors, dtype=np.intp)


def _pairs(xy, radii, tree) -> tuple[np.ndarray, np.ndarray]:
    """(row, hit) of a superset of the pairs |xy[row] - tree.data[hit]| <= radii[row].

    Rows whose radii lie within a factor sqrt(2) of each other (one value of
    floor(2 log2 r)) form a band, searched in one dual-tree query at the
    band's largest radius; the caller's exact comparisons decide.
    """
    radii = np.broadcast_to(radii, (len(xy),))
    band = np.floor(2.0 * np.log2(radii))
    rows, hits = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for b in np.unique(band):
        sel = np.flatnonzero(band == b)
        # a tree for one search, built without median splits or shrunken
        # boxes: at r_max 0.9 that halves the search, and builds faster
        band_tree = cKDTree(xy[sel], balanced_tree=False, compact_nodes=False)
        found = band_tree.sparse_distance_matrix(
            tree, radii[sel].max(), output_type="ndarray"
        )
        # copies, so that each band's (i, j, distance) records are freed
        rows.append(sel[found["i"]])
        hits.append(found["j"].copy())
        del found
    if len(rows) == 2:  # one band: no second copy
        return rows[1], hits[1]
    return np.concatenate(rows), np.concatenate(hits)


def _probe_coverage(probe_tree, xy, taus, delta):
    """Covered mask and exact multiplicity of every probe, from one pair search.

    A probe p is covered when |p - z_j| < delta tau_j for some j, and its
    multiplicity is #{j : |p - z_j| < 3 delta tau_j}.  One search from each z_j
    to radius 3 delta tau_j returns every pair either test needs; the radius is
    widened by a rounding margin so that the exact comparisons decide.
    """
    reach = 3.0 * delta * taus
    j, p = _pairs(xy, reach * _BALL_SLACK, probe_tree)
    # sqrt(dx*dx + dy*dy) in place, from 1-D gathers of contiguous coordinates:
    # the same bits as a 2-D gather, with fewer pair-length temporaries
    px, py = np.ascontiguousarray(probe_tree.data.T)
    x, y = np.ascontiguousarray(xy.T)
    d = px[p] - x[j]
    d *= d
    dy = py[p] - y[j]
    d += dy * dy
    np.sqrt(d, out=d)
    covered = np.zeros(probe_tree.n, dtype=bool)
    covered[p[d < delta * taus[j]]] = True
    counts = np.bincount(p[d < reach[j]], minlength=probe_tree.n)
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
    j, i = _pairs(xy, _REACH * lat.delta * taus, cKDTree(xy))
    other = i != j
    i, j = i[other], j[other]
    d = np.abs(pts[i] - pts[j])
    ratio = d / (lat.delta * np.maximum(taus[i], taus[j]))

    if lat.probe_pass is not None and lat.probe_pass[0] == probe_count:
        misses, multiplicity = lat.probe_pass[1], lat.multiplicity_observed
    else:
        probes = _probe_points(lat.r_max, probe_count)
        covered, counts = _probe_coverage(cKDTree(_xy(probes)), xy, taus, lat.delta)
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
    if abs(zeta) >= 1.0:
        raise DomainError("zeta must lie in the open unit disk")
    tau_z = float(lat.weight.tau(abs(zeta)))
    lim = (2.0**m) * lat.delta * np.minimum(lat.taus, tau_z)
    return int(np.sum(np.abs(lat.points - zeta) < lim))


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
    colors = _first_fit(
        _xy(pts), thresh * taus,
        lambda a, b: np.abs(pts[a] - pts[b]) < thresh * np.minimum(taus[a], taus[b]),
    )
    return [pts[colors == c] for c in range(colors.max(initial=-1) + 1)]


def save_lattice(lat: Lattice, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(lat.to_json(), fh)


def load_lattice(path: str, w: RadialWeight) -> Lattice:
    with open(path) as fh:
        return lattice_from_json(json.load(fh), w)
