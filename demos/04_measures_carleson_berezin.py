"""Measure functionals: averaging function, Carleson constant, Berezin.

Compares the three ways of measuring how big a positive measure is relative
to the space: the tau-scale averaging function mu_hat, its sup (the Carleson
constant) with a tail ladder that separates bounded from compact behavior,
and the Berezin transform computed through the kernel.
"""

import numpy as np

from btk import (
    AtomicMeasure,
    berezin_many,
    build_basis_table,
    carleson_constant,
    indicator_density,
    make_exponential_weight,
    mu_hat,
    mu_hat_lp_norm,
    power_density,
)


def main():
    w = make_exponential_weight(1.0)
    delta = w.m_tau / 8.0
    bt = build_basis_table(w, degree_max=2000)

    dA = indicator_density(0.0, 1.0)
    compact = power_density(2.0, support=(0.0, 0.7))
    atoms = AtomicMeasure([0.3, 0.5j], [1.0, 0.5])

    # for area measure, mu_hat is exactly delta^2 everywhere
    print(f"mu_hat(dA) at r = 0.5: {mu_hat(w, dA, delta, 0.5):.8f}   "
          f"delta^2 = {delta**2:.8f}")

    # Carleson constants with the tail ladder: a compactly supported measure
    # decays to zero, dA does not decay at all
    for name, mu in (("dA", dA), ("power r^2 on (0,0.7)", compact),
                     ("two atoms", atoms)):
        rep = carleson_constant(w, mu, delta, r_max=0.9)
        tails = ", ".join(f"{s:.3g}" for s in rep.tail_sups)
        print(f"\n{name}:")
        print(f"  C_mu = sup mu_hat = {rep.value:.6g} at |z| = "
              f"{abs(rep.argmax):.3f}")
        print(f"  tail sups at radii {rep.tail_radii}: [{tails}]")
        print(f"  compact signature: {rep.compact_signature}")

    # the Berezin transform of dA is identically 1 (the kernel reproduces
    # itself); for atoms it concentrates near the atom
    print(f"\nBerezin(dA)(0.4)    = {berezin_many(bt, dA, np.array([0.4]))[0]:.10f}")
    z_near = 0.3 + 0.5 * delta * float(w.tau(0.3))
    near, far = berezin_many(bt, atoms, np.array([z_near, -0.6]))
    print(f"Berezin(atoms) near the atom at 0.3: {near:.4f}")
    print(f"Berezin(atoms) far away at -0.6:     {far:.4e}")

    # L^p(d lambda_tau) norms of mu_hat drive the Schatten-class tests
    # mu_hat of a compactly supported measure has kinks at the support edge,
    # so relax the quadrature tolerance (factor windows don't need 1e-6);
    # one call evaluates the field once for the whole ladder of p
    ps = (0.5, 1.0, 2.0)
    vals = mu_hat_lp_norm(w, compact, delta, ps, r_max=0.9,
                          tol=1e-4, max_doublings=6)
    for p, val in zip(ps, vals):
        print(f"||mu_hat||_{{L^{p}}} for the compact measure: {val:.6g}")


if __name__ == "__main__":
    main()
