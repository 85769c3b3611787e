"""
Observable dictionaries and Gram matrices
=========================================

A dictionary is an ordered set of monomials that spans the
finite-dimensional subspace everything else works in.  Full monomial
dictionaries are enumerated in graded-lexicographic order with the
constant function first.
"""

import numpy as np

from koopest import (
    Domain,
    MonomialSpec,
    closed_quadratic_dictionary,
    evaluate,
    evaluate_many,
    gauss_legendre_nodes,
    gram,
    make_monomial_dictionary,
    unit_box,
)

# All monomials of total degree <= 2 on a 2-D state: six observables.
spec = MonomialSpec(state_dim=2, max_degree=2)
dct = make_monomial_dictionary(spec)
print("degree-2 monomial dictionary:", dct.names)
print("evaluated at (1, 2):        ", evaluate(dct, np.array([1.0, 2.0])))

# The closed quadratic benchmark uses a hand-picked subset of four.
bench = closed_quadratic_dictionary()
print("\nbenchmark dictionary:        ", bench.names)

# Inner products use the uniform probability measure on a box domain,
# where monomials have exact analytic moments.
lam = gram(dct, unit_box(2))
print(f"\ngram matrix, condition number {lam.cond:.2f}:")
print(np.array_str(lam.matrix, precision=4, suppress_small=True))

# Tensor-product Gauss-Legendre quadrature agrees to roundoff
# (order >= degree + 1).
points, weights = gauss_legendre_nodes(unit_box(2), 4)
psi = evaluate_many(dct, points)
lam_q = psi.T @ (weights[:, None] * psi)
print("\nmax |analytic - quadrature|:", np.abs(lam.matrix - lam_q).max())

# Rescaling the domain rescales the moments.
wide = gram(dct, Domain([-2.0, -2.0], [2.0, 2.0]))
print("E[x1^2] on [-1,1]^2 vs [-2,2]^2:", lam.matrix[1, 1], "vs", wide.matrix[1, 1])
