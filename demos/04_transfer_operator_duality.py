"""
Transfer operator via Gram duality
==================================

The adjoint transfer (Perron-Frobenius) matrix is the Gram-conjugated
transpose of the Koopman matrix.  The conjugation preserves the spectrum,
satisfies a bilinear duality identity to roundoff, and agrees with a
direct Monte Carlo evaluation of the defining kernel integral.
"""

import numpy as np

from koopest import (
    ClosedQuadraticParams,
    NoiseModel,
    closed_quadratic_dictionary,
    closed_quadratic_koopman,
    duality_check,
    gram,
    koopman_to_pf,
    make_closed_quadratic,
    pf_apply_integral_mc,
    unit_box,
)

params = ClosedQuadraticParams(rho=0.2, mu=0.3, c=1.0)
dct = closed_quadratic_dictionary()
lam = gram(dct, unit_box(2))
k = closed_quadratic_koopman(params, noise_variance=1.0)

p = koopman_to_pf(k, lam)
print("transfer matrix:")
print(np.array_str(p.matrix, precision=4, suppress_small=True))
print(f"\ngram condition number: {p.gram.cond:.2f}")

# Pairing identity <K a, b>_Lambda = <a, P b>_Lambda: its largest defect over
# unit pairs (a, b) is the spectral norm ||K^T Lambda - Lambda P||_2.
defect = duality_check(k, p.matrix, lam)
print(f"duality defect ||K^T Lambda - Lambda P||_2: {defect:.2e}")

# Conjugation is a similarity transform, so the eigenvalues carry over.
print("koopman spectrum: ", np.round(np.sort(np.linalg.eigvals(k).real), 4))
print("transfer spectrum:", np.round(np.sort(np.linalg.eigvals(p.matrix).real), 4))

# Independent cross-check: evaluate the kernel integral of the transfer
# operator by Monte Carlo and project back onto the dictionary.  The noise
# scale must stay resolvable by the projection quadrature (order 16 covers
# standard deviations down to ~0.15 on [-1, 1] axes).
sigma = 0.15
small = make_closed_quadratic(params, noise=NoiseModel.gaussian(sigma))
p_small = koopman_to_pf(closed_quadratic_koopman(params, sigma**2), lam)
g = np.array([0.3, -0.2, 0.5, 0.1])
coords, se = pf_apply_integral_mc(
    small, dct, lam, g, n_mc=20000, seed=12, quadrature_order=16, return_stderr=True
)
print("\nintegral oracle: ", np.round(coords, 4))
print("matrix product:  ", np.round(p_small.matrix @ g, 4))
print("deviation in standard errors:", np.round(np.abs(coords - p_small.matrix @ g) / se, 2))
