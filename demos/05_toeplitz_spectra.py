"""Toeplitz operators: assembly, spectra, Schatten norms, Berezin symbols.

Assembles truncated Toeplitz matrices for radial and atomic measures (a
diagonal, and a weighted basis factor), takes their spectra (the diagonal, and
the squared singular values of the factor), and relates operator norms and
Schatten sums back to the measure functionals.
"""

import numpy as np

from btk import (
    AtomicMeasure,
    assemble_toeplitz,
    berezin_many,
    berezin_operator,
    build_basis_table,
    carleson_constant,
    indicator_density,
    make_exponential_weight,
    power_density,
    schatten_norm,
    spectrum,
)


def main():
    w = make_exponential_weight(1.0)
    delta = w.m_tau / 8.0
    bt = build_basis_table(w, degree_max=2000)
    dim = 256

    # T_dA is the identity
    rep = spectrum(assemble_toeplitz(bt, indicator_density(0.0, 1.0), dim))
    print(f"T_dA: operator norm = {rep.operator_norm:.12f}, "
          f"trace/dim = {rep.trace / dim:.12f}")

    # a radial measure gives a diagonal matrix; eigenvalues decay when the
    # support stays inside the disk
    mu_r = power_density(2.0, support=(0.0, 0.7))
    rep_r = spectrum(assemble_toeplitz(bt, mu_r, dim))
    print(f"\nradial r^2 on (0,0.7): structure = {rep_r.structure}")
    print(f"  largest eigenvalues: "
          f"{np.array2string(rep_r.eigenvalues[:4], precision=5)}")
    print(f"  eigenvalue 64:       {rep_r.eigenvalues[64]:.3e}")
    for p in (0.5, 1.0, 2.0):
        print(f"  Schatten p={p}: {schatten_norm(rep_r, p):.6g}   "
          f"(truncation tail flagged: {rep_r.tail_flag(p)})")

    # an atomic measure gives a finite-rank operator: one nonzero eigenvalue
    # per atom (up to degeneracy), everything else exactly zero
    mu_a = AtomicMeasure([0.3, 0.5j, -0.4], [1.0, 0.5, 0.25])
    rep_a = spectrum(assemble_toeplitz(bt, mu_a, dim))
    nonzero = rep_a.eigenvalues[rep_a.eigenvalues > 1e-14]
    print(f"\nthree atoms: {len(nonzero)} nonzero eigenvalues "
          f"{np.array2string(nonzero, precision=5)}")

    # the operator norm is equivalent to the Carleson constant
    c_mu = carleson_constant(w, mu_a, delta, r_max=0.9).value
    print(f"  lambda_1 / C_mu = {rep_a.operator_norm / c_mu:.4f}")

    # Berezin symbol of the matrix agrees with the measure's Berezin transform
    tm = assemble_toeplitz(bt, mu_a, 512)
    z = 0.25 + 0.2j
    a = berezin_operator(bt, tm, z)
    b = berezin_many(bt, mu_a, np.array([z]))[0]
    print(f"\nBerezin at {z}: operator {a:.10f} vs measure {b:.10f} "
          f"(rel diff {abs(a - b) / b:.2e})")


if __name__ == "__main__":
    main()
