"""Finite-dimensional transfer (Perron-Frobenius) operator via Gram duality.

The transfer matrix is the Gram-conjugated transpose of the Koopman matrix,
``P = Lambda^-1 K^T Lambda``, obtained here by factorization-based solves
(the Gram inverse is never formed).  Two independent cross-checks are
provided: a bilinear-form duality identity on random coefficient pairs, and
a Monte Carlo evaluation of the defining kernel integral
``[P g](x) = int g(y) rho(x - T(y)) dy`` projected back onto the dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from .basis import DEFAULT_QUADRATURE_ORDER, Dictionary, GramMatrix, evaluate_many, gauss_legendre_nodes
from .dynamics import StochasticSystem
from .estimator import OperatorEstimate
from .seeding import make_rng, mix_seed

CONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class PFEstimate:
    """Transfer-operator matrix tied to the Gram matrix and Koopman source."""

    matrix: np.ndarray
    gram: GramMatrix
    source_koopman: OperatorEstimate | None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.gram.n_basis, self.gram.n_basis):
            raise ValueError("transfer matrix size must match the gram matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def n_basis(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(k) -> np.ndarray:
    if isinstance(k, OperatorEstimate):
        return k.matrix
    return np.asarray(k, dtype=float)


def conjugate_stack(kmats, gram: GramMatrix) -> list[np.ndarray]:
    """Transfer matrices ``Lambda^-1 K^T Lambda`` of a sequence of Koopman
    matrices, the Gram matrix factored once and each solve LAPACK ``dpotrs``
    (what ``cho_solve`` calls).  Each is checked against the construction
    identity ``Lambda P = K^T Lambda`` to 1e-10 in Frobenius norm (after
    back-substitution)."""
    lam = gram.matrix
    c, lower = scipy.linalg.cho_factor(lam)
    out = []
    for kmat in kmats:
        rhs = kmat.T @ lam
        p, _ = dpotrs(c, rhs, lower=lower)
        defect, _ = dpotrs(c, lam @ p - rhs, lower=lower)
        err = float(np.linalg.norm(defect, "fro"))
        scale = max(1.0, float(np.linalg.norm(p, "fro")))
        if err > CONSTRUCTION_TOL * scale:
            raise ValueError(f"transfer-matrix construction identity violated: residual {err:.3e}")
        out.append(p)
    return out


def koopman_to_pf(k, gram: GramMatrix) -> PFEstimate:
    """Conjugate a Koopman matrix (an OperatorEstimate or a plain square
    matrix) into the transfer-operator matrix: a :func:`conjugate_stack` of one."""
    kmat = _as_matrix(k)
    n = gram.n_basis
    if kmat.shape != (n, n):
        raise ValueError("koopman matrix size must match the gram matrix")
    (p,) = conjugate_stack([kmat], gram)
    return PFEstimate(p, gram, k if isinstance(k, OperatorEstimate) else None)


def duality_check(k, p, gram: GramMatrix, n_trials: int, seed: int) -> float:
    """Max defect of the pairing identity ``(K a)^T Lambda b = a^T Lambda (P b)``.

    Coefficient pairs (a, b) are drawn with unit norm; for a transfer matrix
    built by :func:`koopman_to_pf` the defect is at roundoff level (<= 1e-10).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    kmat = _as_matrix(k)
    pmat = _as_matrix(p)
    lam = gram.matrix
    n = lam.shape[0]
    rng = make_rng(seed)
    a = rng.standard_normal((n_trials, n))
    b = rng.standard_normal((n_trials, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    lhs = np.einsum("ij,ij->i", a @ kmat.T, b @ lam)
    rhs = np.einsum("ij,ij->i", a, b @ (lam @ pmat).T)
    return float(np.max(np.abs(lhs - rhs)))


def pf_apply_integral_mc(
    system: StochasticSystem,
    dictionary: Dictionary,
    gram: GramMatrix,
    coeffs_g: np.ndarray,
    n_mc: int,
    seed: int,
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER,
    return_stderr: bool = False,
):
    """Dictionary coordinates of the transfer operator applied via its integral.

    Evaluates ``[P g](x) = int_X g(y) rho(x - T(y)) dy`` (integral restricted
    to the Gram domain) by uniform Monte Carlo in y at each tensor
    Gauss-Legendre node x, then Galerkin-projects the result onto the
    dictionary span through the Gram matrix.  Serves as a small-scale oracle
    that the conjugated matrix propagates coefficients consistently with the
    kernel integral.

    With ``return_stderr`` also returns per-coordinate Monte Carlo standard
    errors (node noises propagated through the quadrature weights and the
    Gram solve).

    The projected field varies on the length scale of the noise standard
    deviation, so the node spacing must resolve it: on ``[-1, 1]`` axes,
    ``quadrature_order >= 16`` is adequate for standard deviations down to
    about 0.15, while the default Gram order of 8 is not.
    """
    if n_mc < 2:
        raise ValueError("n_mc must be at least 2")
    if not system.noise.has_density:
        raise ValueError(
            "integral transfer application needs a noise model with a density"
        )
    coeffs_g = np.asarray(coeffs_g, dtype=float)
    if coeffs_g.shape != (dictionary.n_basis,):
        raise ValueError("coeffs_g must have length n_basis")
    domain = gram.domain
    vol = domain.volume
    nodes, weights = gauss_legendre_nodes(domain, quadrature_order)
    psi_nodes = evaluate_many(dictionary, nodes)

    node_means = np.empty(nodes.shape[0])
    node_vars = np.empty(nodes.shape[0])
    for j in range(nodes.shape[0]):
        rng = make_rng(mix_seed(seed, j))
        ys = domain.sample(rng, n_mc)
        g_vals = evaluate_many(dictionary, ys) @ coeffs_g
        dens = system.noise.density(nodes[j][None, :] - system.transition(ys))
        vals = vol * g_vals * dens
        node_means[j] = np.mean(vals)
        node_vars[j] = np.var(vals, ddof=1) / n_mc

    b = psi_nodes.T @ (weights * node_means)
    c, low = scipy.linalg.cho_factor(gram.matrix)
    coords = scipy.linalg.cho_solve((c, low), b)
    if not return_stderr:
        return coords
    cov_b = (psi_nodes * (weights**2 * node_vars)[:, None]).T @ psi_nodes
    half = scipy.linalg.cho_solve((c, low), cov_b)
    cov_coords = scipy.linalg.cho_solve((c, low), half.T)
    stderr = np.sqrt(np.clip(np.diag(cov_coords), 0.0, None))
    return coords, stderr
