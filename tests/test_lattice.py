import dataclasses
import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree

import btk
from btk.errors import DomainError, ParameterError, ResourceError
from btk.lattice import (
    _REACH,
    Lattice,
    _GreedyState,
    _half_angle,
    _index_window,
    _pairs,
    _probe_coverage,
    _probe_points,
    _radical_inverse,
    _repair_round,
    _sweep,
    _xy,
    build_lattice,
    certify_lattice,
    count_in_ball,
    lattice_from_json,
    load_lattice,
    partition_separated,
    quasi_distance,
    save_lattice,
)


@pytest.fixture(scope="module")
def lat_tiny(w1, delta1):
    return build_lattice(w1, delta1, 0.3, probe_count=20_000)


def test_quasi_distance_basics(w1):
    z, zeta = 0.3 + 0.1j, -0.2 + 0.4j
    d = quasi_distance(w1, z, zeta)
    assert d > 0.0
    assert d == quasi_distance(w1, zeta, z)
    assert quasi_distance(w1, z, z) == 0.0
    # dividing by the smaller tau makes d_tau >= euclidean/tau at either end
    assert d >= abs(z - zeta) / float(w1.tau(abs(z)))
    with pytest.raises(DomainError):
        quasi_distance(w1, 1.0, 0.0)


def test_lattice_starts_at_origin(lat_tiny):
    assert lat_tiny.points[0] == 0.0
    assert len(lat_tiny) > 100
    np.testing.assert_allclose(
        lat_tiny.taus, lat_tiny.weight.tau(np.abs(lat_tiny.points)), rtol=1e-14
    )


def test_separation_brute_force(lat_tiny, delta1):
    pts = lat_tiny.points
    taus = lat_tiny.taus
    d = np.abs(pts[:, None] - pts[None, :])
    lim = delta1 * np.maximum(taus[:, None], taus[None, :])
    np.fill_diagonal(d, np.inf)
    assert np.all(d >= lim * (1.0 - 1e-12))


def test_covering_brute_force(lat_tiny, delta1, rng):
    # the probe grid used during construction is fully covered (exact check,
    # no KD-tree shortcuts)
    from btk.lattice import _probe_points

    probes = _probe_points(0.3, 20_000)[::7]
    d = np.abs(probes[:, None] - lat_tiny.points[None, :])
    covered = np.any(d < delta1 * lat_tiny.taus[None, :], axis=1)
    assert covered.all()
    # covering of fresh random points may miss only hairline slivers
    fresh = 0.3 * np.sqrt(rng.random(5_000)) * np.exp(
        2j * np.pi * rng.random(5_000)
    )
    d = np.abs(fresh[:, None] - lat_tiny.points[None, :])
    ratio = np.min(d / (delta1 * lat_tiny.taus[None, :]), axis=1)
    assert np.all(ratio < 1.1)


def test_certification_passes(lat_tiny):
    # idempotent: re-checking with the same probe density always passes
    cert = certify_lattice(lat_tiny, probe_count=20_000)
    assert cert.separation_ok
    assert cert.min_separation_ratio >= 1.0 - 1e-12
    assert cert.covering_misses == 0
    assert cert.multiplicity_observed <= 256
    assert cert.passed


def test_count_in_ball_matches_brute_force(lat_tiny, delta1, w1):
    for zeta in (0.1 + 0.05j, -0.2j, 0.25):
        tau_z = float(w1.tau(abs(zeta)))
        for m in range(1, 5):
            lim = (2.0**m) * delta1 * np.minimum(lat_tiny.taus, tau_z)
            expect = int(np.sum(np.abs(lat_tiny.points - zeta) < lim))
            got = count_in_ball(lat_tiny, zeta, m)
            # a Python int, as the JSON reports and the benchmark's check read it
            assert got == expect and type(got) is int
    with pytest.raises(DomainError):
        count_in_ball(lat_tiny, 1.0 + 0j, 2)


def test_count_in_ball_monotone_in_m(lat_tiny):
    zeta = 0.15 * np.exp(0.8j)
    counts = [count_in_ball(lat_tiny, zeta, m) for m in range(1, 6)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert counts[0] >= 1


def test_partition_separated(lat_half, delta1, w1):
    m = 2
    parts = partition_separated(lat_half, m)
    # partition property
    assert sum(len(p) for p in parts) == len(lat_half)
    thresh = (2.0**m) * delta1
    for part in parts:
        taus = w1.tau(np.abs(part))
        d = np.abs(part[:, None] - part[None, :])
        lim = thresh * np.minimum(taus[:, None], taus[None, :])
        np.fill_diagonal(d, np.inf)
        assert np.all(d >= lim)
    # the part count is controlled by the ball-counting bound
    max_count = max(count_in_ball(lat_half, z, m) for z in lat_half.points[::25])
    assert len(parts) <= max_count + 1



def _partition_loop(lat, m):
    """Oracle: first-fit colouring filtering each neighbour list per index."""
    thresh = (2.0**m) * lat.delta
    pts, taus = lat.points, lat.taus
    xy = np.column_stack([pts.real, pts.imag])
    neighbor_lists = cKDTree(xy).query_ball_point(xy, thresh * taus)
    colors = np.full(len(pts), -1, dtype=int)
    part_lists = []
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


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("outward", [True, False], ids=["stored", "reversed"])
def test_partition_matches_per_index_loop(lat_half, m, outward):
    # in stored (outward) order an earlier point has the larger tau, so only
    # the reversed order exercises the min(tau_i, tau_j) radius
    lat = lat_half if outward else dataclasses.replace(
        lat_half, points=lat_half.points[::-1], taus=lat_half.taus[::-1]
    )
    got = partition_separated(lat, m)
    want = _partition_loop(lat, m)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)

def test_lattice_stages_build_no_ball_query_lists(w1, delta1, monkeypatch):
    class NoBallQueries(cKDTree):
        def query_ball_point(self, *args, **kwargs):
            raise AssertionError("query_ball_point builds one list per row")

        def query_pairs(self, *args, **kwargs):
            raise AssertionError("close pairs come from _pairs")

    # the lattice module holds no KD-tree of its own; any tree reached from
    # scipy during the stages would raise on a ball or pair query
    assert not hasattr(btk.lattice, "cKDTree")
    monkeypatch.setattr(scipy.spatial, "cKDTree", NoBallQueries)
    monkeypatch.setattr(scipy.spatial, "KDTree", NoBallQueries)
    lat = build_lattice(w1, delta1, 0.3, probe_count=2_000)
    assert certify_lattice(lat, probe_count=3_000).passed
    assert sum(map(len, partition_separated(lat, 2))) == len(lat)
    assert not hasattr(btk.lattice, "_flat_pairs")


def test_partition_m_validation(lat_half):
    with pytest.raises(ParameterError):
        partition_separated(lat_half, 1)


def test_build_validation(w1, delta1, monkeypatch):
    with pytest.raises(DomainError):
        build_lattice(w1, delta1, 1.2)
    with pytest.raises(ParameterError):
        build_lattice(w1, w1.m_tau * 2, 0.5)
    # the point cap is read when the sweep runs
    monkeypatch.setattr(btk.lattice, "MAX_POINTS", 10)
    with pytest.raises(ResourceError, match="cap of 10 points"):
        build_lattice(w1, delta1, 0.5, probe_count=1_000)


def test_json_round_trip(lat_tiny, w1, tmp_path):
    path = str(tmp_path / "lat.json")
    save_lattice(lat_tiny, path)
    again = load_lattice(path, w1)
    np.testing.assert_allclose(again.points, lat_tiny.points, rtol=0, atol=1e-15)
    assert again.delta == lat_tiny.delta
    assert again.r_max == lat_tiny.r_max
    assert again.multiplicity_observed == lat_tiny.multiplicity_observed


def test_from_json_recomputes_taus(lat_tiny, w1):
    again = lattice_from_json(lat_tiny.to_json(), w1)
    np.testing.assert_allclose(again.taus, lat_tiny.taus, rtol=1e-14)


@pytest.mark.parametrize("point", [[1.5, 0.0], [0.6, 0.8], [float("nan"), 0.0]],
                         ids=["outside", "on_circle", "nan"])
def test_from_json_rejects_points_outside_the_open_disk(lat_tiny, w1, point):
    data = lat_tiny.to_json()
    data["points"].append(point)
    with pytest.raises(DomainError, match="open unit disk"):
        lattice_from_json(data, w1)


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("edit, error, match", [
    (lambda d: _without(d, "delta"), ParameterError, "lacks 'delta'"),
    (lambda d: _without(d, "points"), ParameterError, "lacks 'points'"),
    (lambda d: _without(d, "r_max"), ParameterError, "lacks 'r_max'"),
    (lambda d: d["points"], ParameterError, "must be an object"),
    (lambda d: {**d, "delta": "small"}, ParameterError, "numbers at 'delta'"),
    (lambda d: {**d, "repairs_failed": 1.5}, ParameterError, "integers at 'repairs_failed'"),
    (lambda d: {**d, "points": d["points"] + [[0.1]]}, ParameterError, r"\[x, y\] pairs"),
    (lambda d: {**d, "points": d["points"] + [[0.1, 0.2, 0.3]]}, ParameterError,
     r"\[x, y\] pairs"),
    (lambda d: {**d, "points": 0.5}, ParameterError, r"\[x, y\] pairs"),
    (lambda d: {**d, "delta": 5.0}, ParameterError, "delta=5.0 outside"),
    (lambda d: {**d, "delta": 0.0}, ParameterError, "delta=0.0 outside"),
    (lambda d: {**d, "r_max": 1.5}, DomainError, r"r_max must lie in \(0, 1\)"),
    (lambda d: {**d, "r_max": 0.0}, DomainError, r"r_max must lie in \(0, 1\)"),
], ids=["no_delta", "no_points", "no_r_max", "not_an_object", "string_delta",
        "float_repairs", "short_point", "long_point", "scalar_points", "delta_too_large",
        "delta_zero", "r_max_outside", "r_max_zero"])
def test_from_json_rejects_malformed_lattices(lat_tiny, w1, edit, error, match):
    with pytest.raises(error, match=match):
        lattice_from_json(edit(lat_tiny.to_json()), w1)


def test_build_is_deterministic(w1, delta1):
    a = build_lattice(w1, delta1, 0.25, probe_count=2_000)
    b = build_lattice(w1, delta1, 0.25, probe_count=2_000)
    np.testing.assert_array_equal(a.points, b.points)


def test_build_matches_recorded_digest(w1, delta1):
    # sha256 of the points as built before the array-backed sweep; the same
    # digest is perfbench/reference.json's disk_geometry lattice digest
    lat = build_lattice(w1, delta1, 0.5, probe_count=10_000)
    digest = hashlib.sha256(np.ascontiguousarray(lat.points, dtype=complex).tobytes())
    assert digest.hexdigest() == (
        "e94cbca49554646f752eec1b7343bffdb9de7265cff096f879afe0bdad0ef1ee"
    )
    assert lat.multiplicity_observed == 25


@pytest.mark.parametrize("alpha, delta_div, r_max, probe_count, repairs_failed, digest", [
    # the reference scenario's lattice
    (1.0, 8, 0.4, 20_000, 0,
     "ea5368d319c4d03c3c7eabad0cbc7b4db05fc40dd4839c42d824e3a79b41d18a"),
    # two builds whose repair finds no position for some probes
    (2.0, 4, 0.5, 100_000, 2,
     "ba1f7f34cc7687e12e7377a0fdc5cce6f67085b8292ccf5b490b55b33d8fbef7"),
    (0.5, 4, 0.3, 20_000, 2,
     "4b6083301ca20e88ef63c05dca40d5b2dbfce914c10b34fea03f38eb2917553f"),
])
def test_sweep_matches_recorded_digests(alpha, delta_div, r_max, probe_count,
                                        repairs_failed, digest):
    # sha256 of the points as built by the sweep with a periodically rebuilt
    # tree and a live buffer searched at a second radius
    w = btk.make_exponential_weight(alpha)
    lat = build_lattice(w, w.m_tau / delta_div, r_max, probe_count=probe_count)
    pts = np.ascontiguousarray(lat.points, dtype=complex)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest
    assert lat.repairs_failed == repairs_failed
    assert lat.probe_pass == (probe_count, 0)


def test_sweep_heavy_lattice_matches_recorded_digest():
    # 27,215 points, almost all from the sweep's rings; one probe stays
    # uncovered because its own position conflicts, so the repair fails once
    w = btk.make_exponential_weight(0.25)
    lat = build_lattice(w, w.m_tau / 16, 0.7, probe_count=5_000)
    pts = np.ascontiguousarray(lat.points, dtype=complex)
    assert len(lat) == 27_215
    assert hashlib.sha256(pts.tobytes()).hexdigest() == (
        "2184103e7b9824eb7bcbb15278ffc77b4991b935d588a8bfc092dfaf2276f4c0"
    )
    assert lat.repairs_failed == 1
    assert lat.probe_pass == (5_000, 1)
    assert lat.multiplicity_observed == 26


def test_sweep_evaluates_tau_once_per_ring(w1, delta1, monkeypatch):
    # a ring steps outward from the tau of the ring before it, which was
    # evaluated at the same radius when that ring was placed
    radii = []
    tau = btk.weights.RadialWeight.tau

    def counted(self, r):
        radii.append(float(r))
        return tau(self, r)

    monkeypatch.setattr(btk.weights.RadialWeight, "tau", counted)
    state = _sweep(w1, delta1, 0.5)
    assert radii == state.radii


def test_repair_stops_after_a_round_that_inserts_nothing(w2, probed_sets):
    # one probe has no admissible repair position: the first round inserts
    # points and fails on it, the second inserts nothing and ends the repair
    lat = build_lattice(w2, w2.m_tau / 8.0, 0.4, probe_count=20_000)
    assert lat.repairs_failed == 2
    assert len(probed_sets) == 2
    assert lat.probe_pass == (20_000, 1)


def _conflicts_brute_force(xy, taus, delta, x, y, tau_c):
    """Per candidate x + iy with tau tau_c: is some point of xy, with taus,
    closer than delta * max(tau_c, tau_j)?  The exact separation rule against
    every point, 64 candidates at a time."""
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    tau_c = np.broadcast_to(tau_c, x.shape)
    hit = np.empty(x.shape, dtype=bool)
    for s in range(0, len(x), 64):
        c = slice(s, s + 64)
        d2 = (xy[:, 0] - x[c, None]) ** 2 + (xy[:, 1] - y[c, None]) ** 2
        lim = delta * np.maximum(tau_c[c, None], taus)
        hit[c] = np.any(d2 < lim * lim, axis=1)
    return hit


def _sequential_repair(xy, taus, delta, cand_xy, cand_taus):
    """Indices of the candidates that the repair inserts, one at a time: each
    one free, by the brute-force rule, of the points and of the candidates
    inserted before it."""
    kept = []
    for i, ((x, y), tau_c) in enumerate(zip(cand_xy, cand_taus)):
        if not _conflicts_brute_force(xy, taus, delta, x, y, tau_c)[0]:
            kept.append(i)
            xy, taus = np.vstack([xy, [[x, y]]]), np.append(taus, tau_c)
    return np.array(kept, dtype=np.intp)


@pytest.fixture(scope="module")
def swept_half(w1, delta1):
    """The sweep's rings of lat_half, before the repair."""
    return _sweep(w1, delta1, 0.5)


def test_repair_round_matches_sequential_greedy(swept_half, w1, delta1):
    # the sweep with a fifth of its points dropped leaves about a thousand
    # probes uncovered; beside them, candidates just outside a kept point,
    # near its disk's rim, where the point's tau is the larger one and decides
    rng = np.random.default_rng(26)
    kept = rng.random(len(swept_half)) >= 0.2
    state = _GreedyState()
    state.add(swept_half.xy[kept, 0], swept_half.xy[kept, 1], swept_half.taus[kept])
    probes = _probe_points(0.5, 20_000)
    probes = probes[np.argsort(np.abs(probes))]
    covered, _ = _probe_coverage(_xy(probes), state.xy, state.taus, delta1)
    pts, taus = state.xy[:, 0] + 1j * state.xy[:, 1], state.taus
    k = rng.integers(1, len(pts), 500)
    near = pts[k] * (1.0 + delta1 * taus[k] * rng.uniform(0.9, 1.1, len(k)) / np.abs(pts[k]))
    cand = np.concatenate([probes[~covered], near])
    cand_xy, cand_taus = _xy(cand), w1.tau(np.abs(cand))
    got = _repair_round(state, cand_xy, cand_taus, delta1)
    want = _sequential_repair(state.xy, taus, delta1, cand_xy, cand_taus)
    # the same insertions, so the same len(cand) - len(got) failed repairs,
    # and hundreds of each
    np.testing.assert_array_equal(got, want)
    assert np.sum(~covered) > 1_000 and 100 < len(got) < len(cand) - 100
    # some rim candidates conflict only by the point's tau, and are refused
    d = np.abs(near[:, None] - pts[None, :])
    by_tau_j = np.any((d < delta1 * taus) & (d >= delta1 * cand_taus[-len(k):, None]), axis=1)
    assert by_tau_j.any()
    assert not np.isin(len(cand) - len(k) + np.flatnonzero(by_tau_j), got).any()


def _ring_angles(n_ang, offs):
    """A ring's candidate angles, computed as the sweep computes them."""
    return (np.arange(n_ang) + offs) * (2.0 * np.pi / n_ang)


def test_ring_conflicts_within_reach_match_brute_force(swept_half, w1, delta1):
    # rings more than _REACH delta tau from a candidate ring cannot conflict
    # with its candidates, and on the others the index windows hold every
    # conflict: the windowed test gives the exact rule against every point,
    # on rings between the swept ones, on the first rings (whose windows are
    # the whole circle) and beside the origin ring
    state = swept_half
    radii = np.array(state.radii)
    assert radii[0] == 0.0 and len(state.thetas[0]) == 1
    assert np.all(np.diff(radii) > 0) and radii[-1] == 0.5
    for r in (1e-4, radii[1], 0.5 * (radii[1] + radii[2]), radii[3], 0.12, 0.2371, 0.3,
              0.41, 0.4999):
        tau_ring = float(w1.tau(r))
        thetas = _ring_angles(500, 0.3)
        x, y = r * np.cos(thetas), r * np.sin(thetas)
        want = _conflicts_brute_force(state.xy, state.taus, delta1, x, y, tau_ring)
        np.testing.assert_array_equal(state.ring_conflicts(r, 500, 0.3, tau_ring, delta1), want)
        assert want.any()
    # the first rings see the whole circle of the rings within reach
    reach = _REACH * delta1 * float(w1.tau(radii[1]))
    assert _half_angle(reach, radii[1], radii[1]) == np.pi
    assert _half_angle(reach, radii[1], 0.0) == np.pi


def _checked_sweep(w, delta, r_max):
    """_sweep with every ring's conflicts and in-ring pairs checked by brute force;
    returns the number of rings checked."""
    checked = []
    ring_conflicts, ring_pairs = _GreedyState.ring_conflicts, btk.lattice._ring_pairs

    def oracle(self, r, n_ang, offs, tau_c, delta):
        got = ring_conflicts(self, r, n_ang, offs, tau_c, delta)
        # |c - z_j| >= | r - |z_j| |, so a point farther than its separation
        # radius from the ring in norm cannot conflict; the brute force tests
        # every point of the band left
        xy, taus = self.xy, self.taus
        near = np.abs(np.hypot(xy[:, 0], xy[:, 1]) - r) < 1.01 * delta * np.maximum(tau_c, taus)
        thetas = _ring_angles(n_ang, offs)
        want = _conflicts_brute_force(xy[near], taus[near], delta,
                                      r * np.cos(thetas), r * np.sin(thetas), tau_c)
        np.testing.assert_array_equal(got, want)
        checked.append(r)
        return got

    def pairs(x, y, gap, tau, delta):
        a, b = ring_pairs(x, y, gap, tau, delta)
        assert np.all(a < b)
        d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
        lim = delta * tau
        want = set(zip(*np.nonzero(np.triu(d2 < lim * lim, 1))))
        assert set(zip(a.tolist(), b.tolist())) == want
        return a, b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_GreedyState, "ring_conflicts", oracle)
        mp.setattr(btk.lattice, "_ring_pairs", pairs)
        state = _sweep(w, delta, r_max)
    assert checked == state.radii[1:]
    return len(checked)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("delta_div", [4, 8, 16])
def test_sweep_windows_match_brute_force_on_every_ring(alpha, delta_div):
    # every ring of four sweeps: its conflicts against every accepted point
    # in reach of it by norm, and its in-ring pairs against all pairs
    w = btk.make_exponential_weight(alpha)
    rings = [_checked_sweep(w, w.m_tau / delta_div, r_max) for r_max in (0.1, 0.3, 0.5, 0.7)]
    assert rings == sorted(rings) and rings[0] >= 6


def _window_brute_force(phi, half, n_ang, offs):
    """Every (j, i) with candidate angle i in [phi[j] - half, phi[j] + half)
    modulo 2 pi."""
    diff = np.mod(_ring_angles(n_ang, offs)[None, :] - phi[:, None] + half, 2.0 * np.pi)
    return {(j, i) for j, i in zip(*np.nonzero(diff < 2.0 * half))}


@pytest.mark.parametrize("case", ["seam", "whole_circle", "origin"])
def test_angle_windows_match_brute_force(case):
    rng = np.random.default_rng(3)
    if case == "seam":
        # points and candidates within the window's width of 0 and of 2 pi,
        # where it wraps: the last candidate lies just below 2 pi
        phi = np.concatenate([[0.0, 1e-15, np.nextafter(2.0 * np.pi, 0.0)],
                              rng.uniform(0.0, 0.05, 40),
                              2.0 * np.pi - rng.uniform(1e-12, 0.05, 40),
                              rng.uniform(0.0, 2.0 * np.pi, 40)])
        n_ang, offs, half = 997, 1.0 - 1e-12, 0.04
    elif case == "whole_circle":
        # a ring of radius 1e-3 against 7 candidates at a reach of 0.01
        phi = np.sort(rng.uniform(0.0, 2.0 * np.pi, 7))
        n_ang, offs, half = 7, 0.4, _half_angle(0.01, 1e-3, 1e-3)
        assert half == np.pi
    else:
        phi = np.zeros(1)
        n_ang, offs, half = 30, rng.uniform(), _half_angle(0.01, 0.2, 0.0)
        assert half == np.pi
    window = _index_window(phi, half, n_ang, offs)
    assert window.shape[0] == len(phi) and window.dtype == np.intp
    got = {(j, int(i)) for j, row in enumerate(window) for i in row}
    assert len(got) == window.size
    # every candidate within the window, and none more than two candidate
    # spacings beyond it
    assert _window_brute_force(phi, half, n_ang, offs) <= got
    step = 2.0 * np.pi / n_ang
    assert got <= _window_brute_force(phi, min(half + 2.0 * step, np.pi), n_ang, offs)
    if half == np.pi:
        assert window.size == len(phi) * n_ang


def test_half_angle_holds_every_pair_within_reach():
    # points on two circles closer than reach differ in angle by less than
    # the half-angle; at the half-angle their distance leaves the radial gap
    # and exactly reach across it
    rng = np.random.default_rng(5)
    for r, r_k, reach in ((0.5, 0.49, 0.03), (0.3, 0.3, 0.004), (0.01, 0.005, 0.008)):
        half = _half_angle(reach, r, r_k)
        if half < np.pi:
            edge = abs(r - r_k * np.exp(1j * half))
            assert math.isclose(edge, math.hypot(r - r_k, reach), rel_tol=1e-12)
        t = rng.uniform(-np.pi, np.pi, 20_000)
        near = np.abs(r - r_k * np.exp(1j * t)) < reach
        assert near.any() and np.all(np.abs(t[near]) < half)


def test_multiplicity_gate_can_fail(w1, delta1):
    # 300 points crowd one probe: the exact count must see all of them
    probe = _probe_points(0.3, 1_000)[0]
    tau = float(w1.tau(abs(probe)))
    ring = np.exp(2j * np.pi * np.arange(300) / 300)
    pts = np.concatenate([[0.0], probe + 0.5 * delta1 * tau * ring])
    lat = Lattice(weight=w1, delta=delta1, r_max=0.3, points=pts,
                  multiplicity_observed=0, taus=w1.tau(np.abs(pts)))
    cert = certify_lattice(lat, probe_count=1_000)
    assert cert.multiplicity_observed > 256
    assert cert.passed is False


def test_failed_repairs_are_counted(w1, delta1, monkeypatch):
    # an uncovered probe that conflicts with a point, or with a probe that
    # its round inserted before it, is a failed repair: each round's
    # refusals are counted here by the brute-force rule
    repair_round = btk.lattice._repair_round
    refused = []

    def spy(state, xy, taus, delta):
        kept = _sequential_repair(state.xy, state.taus, delta, xy, taus)
        refused.append(len(xy) - len(kept))
        return repair_round(state, xy, taus, delta)

    monkeypatch.setattr(btk.lattice, "_repair_round", spy)
    lat = build_lattice(w1, delta1, 0.25, probe_count=2_000)
    assert sum(refused) > 0 and lat.repairs_failed == sum(refused)
    again = lattice_from_json(lat.to_json(), w1)
    assert again.repairs_failed == lat.repairs_failed
    old = lat.to_json()
    del old["repairs_failed"]
    assert lattice_from_json(old, w1).repairs_failed == 0


@pytest.fixture
def probed_sets(monkeypatch):
    """The point sets _probe_coverage is called on, in call order."""
    seen = []

    def spy(probes, xy, taus, delta):
        seen.append(xy.copy())
        return _probe_coverage(probes, xy, taus, delta)

    monkeypatch.setattr(btk.lattice, "_probe_coverage", spy)
    return seen


def _full_recount(lat, probe_count):
    probes = _probe_points(lat.r_max, probe_count)
    return _probe_coverage(_xy(probes), _xy(lat.points), lat.taus, lat.delta)


@pytest.mark.parametrize("r_max, probe_count", [(0.3, 20_000), (0.4, 20_000), (0.5, 10_000)])
def test_certify_reuses_build_pass_exactly(w1, delta1, r_max, probe_count, probed_sets):
    lat = build_lattice(w1, delta1, r_max, probe_count=probe_count)
    # one full pass, then one pass over the points a repair round inserted
    assert len(probed_sets) == 2 and len(probed_sets[1]) >= 1
    np.testing.assert_array_equal(np.concatenate(probed_sets), _xy(lat.points))
    reused = certify_lattice(lat, probe_count)
    assert len(probed_sets) == 2
    assert reused == certify_lattice(dataclasses.replace(lat), probe_count)
    assert len(probed_sets) == 3
    covered, counts = _full_recount(lat, probe_count)
    assert lat.multiplicity_observed == counts.max()
    assert lat.probe_pass == (probe_count, int(np.sum(~covered)))


def test_repair_rounds_merge_exactly(w1, delta1, monkeypatch, probed_sets):
    # the sweep drops every fifth ring candidate, leaving holes, and each
    # repair round inserts only the innermost uncovered probe that keeps
    # separation, so the repair runs all 20 rounds and still misses probes
    lat_mod = btk.lattice
    first_fit = lat_mod._first_fit

    def holes(n, a, b):
        # colour 1 is dropped by the sweep, which keeps colour 0
        return first_fit(n, a, b) + (np.arange(n) % 5 == 2)

    def one_per_round(state, xy, taus, delta):
        hit = _conflicts_brute_force(state.xy, state.taus, delta, xy[:, 0], xy[:, 1], taus)
        return np.flatnonzero(~hit)[:1]

    monkeypatch.setattr(lat_mod, "_first_fit", holes)
    monkeypatch.setattr(lat_mod, "_repair_round", one_per_round)
    lat = build_lattice(w1, delta1, 0.3, probe_count=5_000)
    assert len(probed_sets) == 21
    assert [len(xy) for xy in probed_sets[1:]] == [1] * 20
    np.testing.assert_array_equal(np.concatenate(probed_sets), _xy(lat.points))
    covered, counts = _full_recount(lat, 5_000)
    assert lat.probe_pass == (5_000, int(np.sum(~covered))) and lat.probe_pass[1] > 0
    assert lat.multiplicity_observed == counts.max()
    cert = certify_lattice(lat, 5_000)
    assert cert == certify_lattice(dataclasses.replace(lat), 5_000)
    assert cert.covering_misses == lat.probe_pass[1] and not cert.passed


def test_build_and_certify_probe_all_points_once(w1, delta1, probed_sets):
    lat = build_lattice(w1, delta1, 0.4, probe_count=20_000)
    certify_lattice(lat, probe_count=20_000)
    sizes = [len(xy) for xy in probed_sets]
    # one full pass over the swept points, one over the repair's insertions
    assert sum(n > len(lat) // 2 for n in sizes) == 1
    assert sum(sizes) == len(lat)


def test_probe_pass_record_is_build_only(lat_tiny, w1, delta1, probed_sets):
    assert lat_tiny.probe_pass == (20_000, 0)
    pts = lat_tiny.points
    others = [
        dataclasses.replace(lat_tiny),
        lattice_from_json(lat_tiny.to_json(), w1),
        Lattice(weight=w1, delta=delta1, r_max=0.3, points=pts,
                multiplicity_observed=lat_tiny.multiplicity_observed,
                taus=lat_tiny.taus),
    ]
    for lat in others:
        assert lat.probe_pass is None
        assert certify_lattice(lat, 20_000) == certify_lattice(lat_tiny, 20_000)
    assert len(probed_sets) == len(others)
    # a different probe count on the built lattice runs its own full pass
    cert = certify_lattice(lat_tiny, 7_000)
    assert len(probed_sets) == len(others) + 1 and len(probed_sets[-1]) == len(lat_tiny)
    assert cert.probes_checked == 7_000
    assert cert == certify_lattice(others[0], 7_000)


@pytest.mark.parametrize("probe_count", [0, -5])
def test_probe_count_must_be_positive(lat_tiny, w1, delta1, probe_count):
    with pytest.raises(ParameterError, match="probe_count"):
        build_lattice(w1, delta1, 0.3, probe_count=probe_count)
    with pytest.raises(ParameterError, match="probe_count"):
        certify_lattice(lat_tiny, probe_count=probe_count)


def test_multiplicity_and_coverage_match_brute_force(lat_tiny, delta1):
    # probes at exactly delta*tau and 3*delta*tau from lattice points sit on
    # the boundaries of both tests
    k = np.arange(0, len(lat_tiny), 3)
    unit = np.exp(2j * np.pi * 0.37 * k)
    probes = np.concatenate([
        _probe_points(0.3, 3_000),
        lat_tiny.points[k] + delta1 * lat_tiny.taus[k] * unit,
        lat_tiny.points[k] + 3.0 * delta1 * lat_tiny.taus[k] * unit,
    ])
    covered, counts = _probe_coverage(
        _xy(probes), _xy(lat_tiny.points), lat_tiny.taus, delta1
    )
    # the distance as _probe_coverage computes it, sqrt(dx^2 + dy^2), not hypot
    diff = probes[:, None] - lat_tiny.points[None, :]
    d = np.sqrt(diff.real**2 + diff.imag**2)
    np.testing.assert_array_equal(covered, np.any(d < delta1 * lat_tiny.taus, axis=1))
    np.testing.assert_array_equal(counts, np.sum(d < 3.0 * delta1 * lat_tiny.taus, axis=1))


def test_probe_points_match_scipy_halton():
    from scipy.stats import qmc

    # the index runs on across draws, as scipy's sampler's does
    sampler = qmc.Halton(d=2, scramble=False)
    start = 0
    for n in (1_000, 5_007, 20_064):
        idx = np.arange(start, start + n)
        mine = np.column_stack([_radical_inverse(idx, 2), _radical_inverse(idx, 3)])
        assert mine.tobytes() == sampler.random(n).tobytes()
        start += n

    def scipy_probes(r_max, count):
        sampler = qmc.Halton(d=2, scramble=False)
        pts = []
        while (need := count - sum(map(len, pts))) > 0:
            raw = sampler.random(int(need * 1.5) + 64)
            z = r_max * ((2.0 * raw[:, 0] - 1.0) + 1j * (2.0 * raw[:, 1] - 1.0))
            pts.append(z[np.abs(z) <= r_max])
        return np.concatenate(pts)[:count]

    for r_max, count in ((0.3, 1_000), (0.5, 20_000), (0.9, 7)):
        assert _probe_points(r_max, count).tobytes() == scipy_probes(r_max, count).tobytes()


def test_import_leaves_scipy_stats_unloaded():
    src = Path(btk.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, btk; print('scipy.stats' in sys.modules)"],
        cwd=src, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_EDGES = np.sqrt(2.0) ** np.arange(-14, -3)
_RADII = {
    # five octaves of radii, every band holding many distinct radii
    "octaves": 2.0 ** np.random.default_rng(7).uniform(-7.0, -2.0, 400),
    # radii on the powers of sqrt(2) and one float either side of them
    "band_edges": np.resize(np.concatenate(
        [_EDGES, np.nextafter(_EDGES, 0.0), np.nextafter(_EDGES, 1.0)]), 300),
    "one_row": np.array([0.05]),
    "no_rows": np.empty(0),
    "scalar": 0.03,
}


@pytest.mark.parametrize("case", list(_RADII))
def test_pairs_is_a_banded_superset(case):
    rng = np.random.default_rng(11)
    targets = rng.uniform(-1.0, 1.0, (3_000, 2))
    radii = _RADII[case]
    n = 200 if np.ndim(radii) == 0 else len(radii)
    xy = rng.uniform(-1.0, 1.0, (n, 2))
    row, hit = _pairs(xy, radii, targets)
    assert row.dtype == hit.dtype == np.intp
    r = np.broadcast_to(radii, (n,))
    d = np.sqrt((xy[:, None, 0] - targets[None, :, 0]) ** 2
                + (xy[:, None, 1] - targets[None, :, 1]) ** 2)
    want = d <= r[:, None]
    got = np.zeros_like(want)
    got[row, hit] = True
    # every pair within its row's radius is returned, each pair once, and
    # none beyond sqrt(2) times that radius (one band spans at most sqrt(2))
    assert want.any() or n == 0
    assert not np.any(want & ~got)
    assert len(np.unique(row * len(targets) + hit)) == len(row)
    assert np.all(d[row, hit] <= np.sqrt(2.0) * r[row] * (1 + 1e-12))


def _distances(xy, targets):
    return np.sqrt((xy[:, None, 0] - targets[None, :, 0]) ** 2
                   + (xy[:, None, 1] - targets[None, :, 1]) ** 2)


# on the grid of multiples of 2^-7, the cell side at radius 5 * 2^-7, every
# coordinate and distance of a 3-4-5 step is exact, so pairs sit at exactly
# their radius and points on cell edges
_STEP = 2.0**-7
_GRID = _STEP * np.stack(np.meshgrid(np.arange(-12, 13), np.arange(-9, 10)), -1).reshape(-1, 2)
def _pairs_on_rounded_edges(n=1_500):
    """Targets a few ulps from the edges of 0.01-wide cells (one band, largest
    radius 0.05), each with one row beside it at exactly its float distance:
    the cell arithmetic rounds the target's column and the row's reach
    differently."""
    rng = np.random.default_rng(1)
    tx = 0.01 * rng.integers(-90, 90, n)
    tx += rng.integers(-3, 4, n) * np.spacing(np.abs(tx) + 1e-300)
    targets = np.column_stack([tx, rng.uniform(-0.9, 0.9, n)])
    xy = targets.copy()
    xy[:, 0] -= rng.uniform(0.045, 0.05, n) * rng.choice([-1.0, 1.0], n)
    radii = np.sqrt(((xy - targets) ** 2).sum(axis=1))
    return np.vstack([xy, [[0.0, 0.0]]]), np.append(radii, 0.05), targets


_PAIR_CASES = {
    "cell_edges": (_GRID[::2], np.full(len(_GRID[::2]), 5 * _STEP), _GRID),
    "rounded_edges": _pairs_on_rounded_edges(),
    "negative": (np.random.default_rng(2).uniform(-0.9, -0.7, (300, 2)),
                 np.random.default_rng(3).uniform(0.004, 0.03, 300),
                 np.random.default_rng(4).uniform(-0.95, -0.65, (2_000, 2))),
    # radii wider than the whole set: every pair is within reach
    "wider_than_the_disk": (np.random.default_rng(5).uniform(-0.5, 0.5, (60, 2)),
                            np.random.default_rng(6).uniform(2.0, 2.8, 60),
                            np.random.default_rng(7).uniform(-0.5, 0.5, (80, 2))),
}


@pytest.mark.parametrize("case", list(_PAIR_CASES))
def test_pairs_on_cell_edges_negative_and_wide(case):
    xy, radii, targets = _PAIR_CASES[case]
    row, hit = _pairs(xy, radii, targets)
    d = _distances(xy, targets)
    want = d <= radii[:, None]
    got = np.zeros_like(want)
    got[row, hit] = True
    assert want.sum() >= len(xy)
    if case == "cell_edges":
        assert np.any(d == radii[:, None])  # pairs at exactly the radius
    assert not np.any(want & ~got)
    assert len(np.unique(row * len(targets) + hit)) == len(row)
    assert np.all(d[row, hit] <= np.sqrt(2.0) * radii[row] * (1 + 1e-12))


def test_pairs_skips_a_band_whose_annulus_holds_no_data():
    # rows of radius 0.05 among the data near the origin, and rows of radius
    # 0.01 (another band) on |z| = 0.9, where no datum lies within reach of
    # their norms: that band gives no pair, and the first band all of its own
    rng = np.random.default_rng(8)
    targets = rng.uniform(-0.2, 0.2, (500, 2))
    angle = 2.0 * np.pi * rng.random(30)
    xy = np.vstack([rng.uniform(-0.2, 0.2, (40, 2)),
                    0.9 * np.column_stack([np.cos(angle), np.sin(angle)])])
    radii = np.concatenate([np.full(40, 0.05), np.full(30, 0.01)])
    row, hit = _pairs(xy, radii, targets)
    d = _distances(xy, targets)
    want = d <= radii[:, None]
    got = np.zeros_like(want)
    got[row, hit] = True
    assert want[:40].any() and not want[40:].any()
    assert np.all(row < 40)
    assert not np.any(want & ~got)
    assert np.all(d[row, hit] <= np.sqrt(2.0) * radii[row] * (1 + 1e-12))


@pytest.mark.parametrize("case", ["octaves", "band_edges", "scalar", *_PAIR_CASES])
def test_pairs_self_search_returns_each_pair_once(case):
    # xy against itself: each pair of distinct rows once, found from the row
    # first in (x, index) order, whichever band that row's radius falls in
    if case in _PAIR_CASES:
        xy, radii, _ = _PAIR_CASES[case]
    else:
        radii = _RADII[case]
        n = 200 if np.ndim(radii) == 0 else len(radii)
        xy = np.random.default_rng(11).uniform(-0.3, 0.3, (n, 2))
        radii = np.broadcast_to(radii, (n,))
    n = len(xy)
    row, hit = _pairs(xy, radii)
    assert row.dtype == hit.dtype == np.intp
    assert np.all(row != hit)
    lo, hi = np.minimum(row, hit), np.maximum(row, hit)
    assert len(np.unique(lo * n + hi)) == len(row)
    first = (xy[row, 0] < xy[hit, 0]) | ((xy[row, 0] == xy[hit, 0]) & (row < hit))
    assert first.all()
    d = _distances(xy, xy)
    # every pair within the smaller of its two radii is returned
    want = d <= np.minimum(radii[:, None], radii[None, :])
    np.fill_diagonal(want, False)
    got = np.zeros_like(want)
    got[lo, hi] = got[hi, lo] = True
    assert want.any()
    assert not np.any(want & ~got)
    assert np.all(d[row, hit] <= np.sqrt(2.0) * radii[row] * (1 + 1e-12))


@pytest.fixture(scope="module")
def lat_bands(w1):
    """r_max 0.8 at delta = m_tau/4: tau falls about tenfold across the lattice."""
    return build_lattice(w1, w1.m_tau / 4.0, 0.8, probe_count=3_000)


def _min_ratio_and_cover(lat, probes):
    """Brute force over every pair: min separation ratio, covered mask, counts."""
    pts, taus, delta = lat.points, lat.taus, lat.delta
    ratio, covered, counts = np.inf, [], []
    for s in range(0, len(pts), 500):
        d = np.abs(pts[s : s + 500, None] - pts[None, :])
        d[np.arange(len(d)), s + np.arange(len(d))] = np.inf
        lim = delta * np.maximum(taus[s : s + 500, None], taus[None, :])
        ratio = min(ratio, float(np.min(d / lim)))
    for s in range(0, len(probes), 500):
        diff = probes[s : s + 500, None] - pts[None, :]
        d = np.sqrt(diff.real**2 + diff.imag**2)
        covered.append(np.any(d < delta * taus, axis=1))
        counts.append(np.sum(d < 3.0 * delta * taus, axis=1))
    return ratio, np.concatenate(covered), np.concatenate(counts)


def test_multi_band_lattice_matches_brute_force(lat_bands):
    lat, delta = lat_bands, lat_bands.delta
    # the probe pass spans at least three bands of search radii
    assert len(np.unique(np.floor(2.0 * np.log2(3.0 * delta * lat.taus)))) >= 3
    k = np.arange(0, len(lat), 3)
    unit = np.exp(2j * np.pi * 0.37 * k)
    probes = np.concatenate([
        _probe_points(0.8, 3_000),
        lat.points[k] + delta * lat.taus[k] * unit,
        lat.points[k] + 3.0 * delta * lat.taus[k] * unit,
    ])
    covered, counts = _probe_coverage(_xy(probes), _xy(lat.points), lat.taus, delta)
    _, want_covered, want_counts = _min_ratio_and_cover(lat, probes)
    np.testing.assert_array_equal(covered, want_covered)
    np.testing.assert_array_equal(counts, want_counts)
    # a full pass at another probe count
    probes = _probe_points(0.8, 4_000)
    ratio, want_covered, want_counts = _min_ratio_and_cover(lat, probes)
    cert = certify_lattice(lat, probe_count=4_000)
    assert cert.min_separation_ratio == ratio and cert.separation_ok
    assert cert.covering_misses == int(np.sum(~want_covered))
    assert cert.multiplicity_observed == int(want_counts.max())


@pytest.mark.parametrize("m", [2, 3])
def test_multi_band_partition_matches_brute_force(lat_bands, m):
    pts, taus = lat_bands.points, lat_bands.taus
    thresh = (2.0**m) * lat_bands.delta
    # first fit against every earlier point, with no search structure
    colors = np.zeros(len(pts), dtype=int)
    for k in range(len(pts)):
        near = np.abs(pts[:k] - pts[k]) < thresh * np.minimum(taus[:k], taus[k])
        used = set(colors[:k][near].tolist())
        colors[k] = min(set(range(len(used) + 1)) - used)
    got = partition_separated(lat_bands, m)
    assert len(got) == colors.max() + 1
    for c, part in enumerate(got):
        np.testing.assert_array_equal(part, pts[colors == c])
