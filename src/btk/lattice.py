"""Adaptive disk lattices: separated point sets whose tau-scaled disks cover.

The construction is a deterministic greedy annular sweep: candidates are laid
on concentric rings with spacing proportional to delta*tau and accepted when
they keep the separation rule |c - z_j| >= delta * max(tau(c), tau(z_j)).
A low-discrepancy probe pass then repairs any residual coverage slivers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import qmc

from .errors import DomainError, ParameterError, ResourceError
from .weights import RadialWeight

_GOLDEN = 0.6180339887498949
_SEP_SLACK = 1.0 - 1e-12


@dataclass(frozen=True)
class Lattice:
    """An ordered separated covering point set on {|z| <= r_max}."""

    weight: RadialWeight
    delta: float
    r_max: float
    points: np.ndarray            # complex, construction order, points[0] == 0
    multiplicity_observed: int
    taus: np.ndarray = field(repr=False)  # tau(|z_j|), cached

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "r_max": self.r_max,
            "weight": self.weight.to_json(),
            "multiplicity_observed": self.multiplicity_observed,
            "points": [[float(p.real), float(p.imag)] for p in self.points],
        }


def lattice_from_json(data: dict, w: RadialWeight) -> Lattice:
    pts = np.array([complex(x, y) for x, y in data["points"]])
    return Lattice(
        weight=w,
        delta=float(data["delta"]),
        r_max=float(data["r_max"]),
        points=pts,
        multiplicity_observed=int(data.get("multiplicity_observed", -1)),
        taus=w.tau(np.abs(pts)),
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


def _probe_points(r_max: float, count: int) -> np.ndarray:
    """Deterministic low-discrepancy probes filling {|z| <= r_max}."""
    sampler = qmc.Halton(d=2, scramble=False)
    pts = []
    need = count
    while need > 0:
        raw = sampler.random(int(need * 1.5) + 64)
        z = (2.0 * raw[:, 0] - 1.0) + 1j * (2.0 * raw[:, 1] - 1.0)
        z = r_max * z
        z = z[np.abs(z) <= r_max]
        pts.append(z)
        need = count - sum(len(p) for p in pts)
    return np.concatenate(pts)[:count]


class _GreedyState:
    """Accepted points with a periodically rebuilt KD-tree plus a live buffer."""

    def __init__(self, rebuild_every: int = 2048):
        self.xs: list[float] = []
        self.ys: list[float] = []
        self.taus: list[float] = []
        self.tree = None
        self.tree_taus = None
        self.buf_start = 0
        self.rebuild_every = rebuild_every

    def __len__(self):
        return len(self.xs)

    def maybe_rebuild(self):
        if len(self.xs) - self.buf_start >= self.rebuild_every:
            self.rebuild()

    def rebuild(self):
        if self.xs:
            self.tree = cKDTree(np.column_stack([self.xs, self.ys]))
            self.tree_taus = np.array(self.taus)
            self.buf_start = len(self.xs)

    def conflicts(self, x: float, y: float, tau_c: float, delta: float) -> bool:
        # any accepted z_j with |c - z_j| < delta * max(tau_c, tau_j)?
        if self.tree is not None:
            idx = self.tree.query_ball_point([x, y], 1.5 * delta * tau_c)
            if idx:
                tj = self.tree_taus[idx]
                pts = self.tree.data[idx]
                d2 = (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2
                lim = delta * np.maximum(tau_c, tj)
                if np.any(d2 < (lim * lim)):
                    return True
        n = len(self.xs)
        if n > self.buf_start:
            bx = np.array(self.xs[self.buf_start :])
            by = np.array(self.ys[self.buf_start :])
            bt = np.array(self.taus[self.buf_start :])
            d2 = (bx - x) ** 2 + (by - y) ** 2
            lim = delta * np.maximum(tau_c, bt)
            if np.any(d2 < (lim * lim)):
                return True
        return False

    def add(self, x: float, y: float, tau_c: float):
        self.xs.append(x)
        self.ys.append(y)
        self.taus.append(tau_c)


def build_lattice(
    w: RadialWeight,
    delta: float,
    r_max: float,
    probe_count: int = 100_000,
    max_points: int = 2_000_000,
    candidate_spacing: float = 0.45,
) -> Lattice:
    """Greedy annular-sweep lattice on {|z| <= r_max} with covering repair.

    Deterministic: fixed sweep order (rings outward, golden-ratio angular
    offsets) and an unscrambled Halton probe grid.
    """
    w.require_delta(delta)
    if not (0.0 < r_max < 1.0):
        raise DomainError(f"r_max must lie in (0, 1), got {r_max}")

    state = _GreedyState()
    state.add(0.0, 0.0, float(w.tau(0.0)))

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
        for x, y in zip(xs, ys):
            if not state.conflicts(x, y, tau_ring, delta):
                state.add(x, y, tau_ring)
                if len(state) > max_points:
                    raise ResourceError(
                        f"lattice exceeded cap of {max_points} points "
                        f"(r_max={r_max} too close to 1 for delta={delta})"
                    )
        state.maybe_rebuild()

    # covering repair: insert uncovered probes (innermost first) and re-probe
    probes = _probe_points(r_max, probe_count)
    probes = probes[np.argsort(np.abs(probes))]
    probe_xy = _xy(probes)
    tau_probes = w.tau(np.abs(probes))
    for _ in range(20):
        state.rebuild()
        pts = state.tree.data
        taus = state.tree_taus
        uncovered = ~_covered_mask(state.tree, taus, probe_xy, tau_probes, delta, w)
        if not uncovered.any():
            break
        for p, tau_p in zip(probes[uncovered], tau_probes[uncovered]):
            if not state.conflicts(p.real, p.imag, float(tau_p), delta):
                state.add(p.real, p.imag, float(tau_p))
            else:
                _insert_covering_neighbor(state, w, p, float(tau_p), delta, r_max)
        state.rebuild()

    pts = state.tree.data[:, 0] + 1j * state.tree.data[:, 1]
    taus = state.tree_taus
    mult = _observed_multiplicity(state.tree, taus, probe_xy, tau_probes, delta, w)
    return Lattice(
        weight=w,
        delta=delta,
        r_max=r_max,
        points=pts,
        multiplicity_observed=mult,
        taus=taus,
    )


def _insert_covering_neighbor(state, w, p, tau_p, delta, r_max) -> bool:
    """Repair an uncovered probe whose own position conflicts with the lattice.

    Searches nearby positions q that keep exact separation while the disk
    D(q, delta*tau(q)) still contains the probe.  Such a q exists whenever the
    probe sits in a sliver left by the greedy sweep (the conflict radius and
    the covering radius differ by at most the Lipschitz slack of tau).
    """
    for frac in (0.3, 0.5, 0.7, 0.9):
        for k in range(16):
            q = p + frac * delta * tau_p * np.exp(2j * np.pi * (k + 0.5) / 16)
            aq = abs(q)
            if aq > r_max:
                continue
            tau_q = float(w.tau(aq))
            if abs(q - p) >= delta * tau_q:
                continue  # would not cover the probe
            if not state.conflicts(q.real, q.imag, tau_q, delta):
                state.add(q.real, q.imag, tau_q)
                return True
    return False


def _covered_mask(tree, taus, probe_xy, tau_probes, delta, w, k: int = 48):
    """probe covered  <=>  |p - z_j| < delta * tau(z_j) for some j."""
    k = min(k, len(taus))
    d, idx = tree.query(probe_xy, k=k)
    if k == 1:
        d = d[:, None]
        idx = idx[:, None]
    return np.any(d < delta * taus[idx], axis=1)


def _observed_multiplicity(tree, taus, probe_xy, tau_probes, delta, w, k: int = 128):
    """Max over probes of #{j : |p - z_j| < 3 delta tau(z_j)}."""
    k = min(k, len(taus))
    d, idx = tree.query(probe_xy, k=k)
    if k == 1:
        d = d[:, None]
        idx = idx[:, None]
    counts = np.sum(d < 3.0 * delta * taus[idx], axis=1)
    return int(np.max(counts))


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
    """Re-run separation/covering/multiplicity checks on a built lattice."""
    w = lat.weight
    pts = lat.points
    taus = lat.taus
    tree = cKDTree(_xy(pts))

    min_ratio = np.inf
    sep_ok = True
    neighbor_lists = tree.query_ball_point(_xy(pts), 1.5 * lat.delta * taus)
    for j, idx in enumerate(neighbor_lists):
        idx = [i for i in idx if i != j]
        if not idx:
            continue
        d = np.abs(pts[idx] - pts[j])
        lim = lat.delta * np.maximum(taus[idx], taus[j])
        ratio = float(np.min(d / lim))
        min_ratio = min(min_ratio, ratio)
        if ratio < _SEP_SLACK:
            sep_ok = False

    probes = _probe_points(lat.r_max, probe_count)
    tau_probes = w.tau(np.abs(probes))
    covered = _covered_mask(tree, taus, _xy(probes), tau_probes, lat.delta, w)
    mult = _observed_multiplicity(tree, taus, _xy(probes), tau_probes, lat.delta, w)
    return LatticeCertification(
        separation_ok=sep_ok,
        min_separation_ratio=float(min_ratio),
        covering_misses=int(np.sum(~covered)),
        probes_checked=len(probes),
        multiplicity_observed=mult,
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
    pts = lat.points
    taus = lat.taus
    tree = cKDTree(_xy(pts))
    neighbor_lists = tree.query_ball_point(_xy(pts), thresh * taus)
    colors = np.full(len(pts), -1, dtype=int)
    part_lists: list[list[int]] = []
    for j in range(len(pts)):
        used = set()
        for i in neighbor_lists[j]:
            if i == j or colors[i] < 0:
                continue
            if np.abs(pts[i] - pts[j]) < thresh * min(taus[i], taus[j]):
                used.add(colors[i])
        c = 0
        while c in used:
            c += 1
        colors[j] = c
        if c == len(part_lists):
            part_lists.append([])
        part_lists[c].append(j)
    return [pts[np.array(idx)] for idx in part_lists]


def save_lattice(lat: Lattice, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(lat.to_json(), fh)


def load_lattice(path: str, w: RadialWeight) -> Lattice:
    with open(path) as fh:
        return lattice_from_json(json.load(fh), w)
