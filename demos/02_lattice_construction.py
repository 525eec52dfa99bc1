"""(delta, tau)-lattices: construction, certification, counting, partition.

Builds a lattice whose points are delta*tau-separated yet whose delta*tau
disks cover the disk of radius r_max, certifies both properties on a fresh
probe grid, and shows the ball-counting function and the separated partition
that make the lattice usable for operator estimates.
"""

import tempfile
from pathlib import Path

import numpy as np

from btk import (
    build_lattice,
    certify_lattice,
    count_in_ball,
    make_exponential_weight,
    partition_separated,
)
from btk.lattice import save_lattice


def main():
    w = make_exponential_weight(1.0)
    delta = w.m_tau / 8.0
    print(f"delta = m_tau / 8 = {delta:.6f}")

    lat = build_lattice(w, delta, r_max=0.8, probe_count=50_000)
    print(f"lattice: {len(lat)} points up to |z| = {lat.r_max}")

    cert = certify_lattice(lat, probe_count=50_000)
    print(f"certification passed: {cert.passed}")
    print(f"  min separation ratio : {cert.min_separation_ratio:.6f} (>= 1)")
    print(f"  covering misses      : {cert.covering_misses} "
          f"of {cert.probes_checked} probes")
    print(f"  disk multiplicity    : {cert.multiplicity_observed} (<= 256)")

    # points per quasi-hyperbolic ball of radius 2^m delta grows like a fixed
    # power of 2^m, uniformly over centers
    rng = np.random.default_rng(7)
    centers = 0.75 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
    print("\nball counts (max over 50 random centers):")
    for m in range(1, 5):
        top = max(count_in_ball(lat, z, m) for z in centers)
        print(f"  m = {m}:  max count = {top:4d}   bound 16 * 2^(4m) = "
              f"{16 * 2 ** (4 * m)}")

    # split into boundedly many subfamilies, each 2^m delta-separated
    m = 2
    parts = partition_separated(lat, m)
    sizes = sorted((len(p) for p in parts), reverse=True)
    print(f"\npartition at separation 2^{m} delta: {len(parts)} parts, "
          f"sizes {sizes[:6]}{'...' if len(sizes) > 6 else ''}")

    path = Path(tempfile.mkdtemp(prefix="btk_demo_")) / "lattice_08.json"
    save_lattice(lat, str(path))
    print(f"\nsaved to {path}")


if __name__ == "__main__":
    main()
