"""Finite-dimensional transfer (Perron-Frobenius) operator via Gram duality.

The transfer matrix is the Gram-conjugated transpose of the Koopman matrix,
``P = Lambda^-1 K^T Lambda``, obtained here by factorization-based solves
(the Gram inverse is never formed).  Two independent cross-checks are
provided: the exact defect of the bilinear-form duality identity, the
spectral norm ``||K^T Lambda - Lambda P||_2``, and a Monte Carlo evaluation
of the defining kernel integral ``[P g](x) = int g(y) rho(x - T(y)) dy``
projected back onto the dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DEFAULT_QUADRATURE_ORDER, Dictionary, GramMatrix, evaluate_many, gauss_legendre_nodes
from .dynamics import BLOCK, StochasticSystem
from .seeding import make_rng, mix_seed

CONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class PFEstimate:
    """Transfer-operator matrix and the Gram matrix it is conjugated by."""

    matrix: np.ndarray
    gram: GramMatrix

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.gram.n_basis, self.gram.n_basis):
            raise ValueError("transfer matrix size must match the gram matrix")
        object.__setattr__(self, "matrix", m)


def conjugate_stack(kmats, gram: GramMatrix) -> list[np.ndarray]:
    """Transfer matrices ``Lambda^-1 K^T Lambda`` of a sequence of Koopman
    matrices, the Gram matrix factored once and each solve LAPACK ``dpotrs``
    (what ``cho_solve`` calls).  Each is checked against the construction
    identity ``Lambda P = K^T Lambda`` to 1e-10 in Frobenius norm (after
    back-substitution)."""
    import scipy.linalg  # loaded at the first solve, not at import
    lam = gram.matrix
    c, lower = scipy.linalg.cho_factor(lam)
    out = []
    for kmat in kmats:
        rhs = kmat.T @ lam
        p, _ = scipy.linalg.lapack.dpotrs(c, rhs, lower=lower)
        defect, _ = scipy.linalg.lapack.dpotrs(c, lam @ p - rhs, lower=lower)
        err = float(np.linalg.norm(defect, "fro"))
        scale = max(1.0, float(np.linalg.norm(p, "fro")))
        if err > CONSTRUCTION_TOL * scale:
            raise ValueError(f"transfer-matrix construction identity violated: residual {err:.3e}")
        out.append(p)
    return out


def koopman_to_pf(kmat, gram: GramMatrix) -> PFEstimate:
    """Conjugate a square Koopman matrix into the transfer-operator matrix: a
    :func:`conjugate_stack` of one."""
    kmat = np.asarray(kmat, dtype=float)
    if kmat.shape != (gram.n_basis, gram.n_basis):
        raise ValueError("koopman matrix size must match the gram matrix")
    (p,) = conjugate_stack([kmat], gram)
    return PFEstimate(p, gram)


def duality_check(kmat, pmat, gram: GramMatrix) -> float:
    """Defect ``||K^T Lambda - Lambda P||_2`` of the pairing identity
    ``(K a)^T Lambda b = a^T Lambda (P b)``: its exact supremum over unit a
    and b.  For a transfer matrix built by :func:`koopman_to_pf` it is at
    roundoff level (<= 1e-10)."""
    lam = gram.matrix
    kmat, pmat = np.asarray(kmat, dtype=float), np.asarray(pmat, dtype=float)
    if kmat.shape != lam.shape or pmat.shape != lam.shape:
        raise ValueError("koopman and transfer matrix sizes must match the gram matrix")
    residual = kmat.T @ lam - lam @ pmat
    return float(np.linalg.norm(residual, 2))


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

    Node j draws from its own stream ``mix_seed(seed, j)``, one generator
    re-keyed from node to node.  Whole nodes are lifted, mapped and weighed
    in batches of at most ``BLOCK // 2`` rows (at least one node; full blocks
    raised the peak memory), bit-equal to one node at a time.

    With ``return_stderr`` also returns per-coordinate Monte Carlo standard
    errors (node noises propagated through the quadrature weights and the
    Gram solve).

    The projected field varies on the length scale of the noise standard
    deviation, so the node spacing must resolve it: on ``[-1, 1]`` axes,
    ``quadrature_order >= 16`` is adequate for standard deviations down to
    about 0.15, while the default order of 8 is not.
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

    node_means = np.empty(len(nodes))
    node_vars = np.empty(len(nodes))
    per_batch = max(1, (BLOCK // 2) // n_mc)
    rng = make_rng(0)  # re-keyed to each node's stream
    for start in range(0, len(nodes), per_batch):
        batch = range(start, min(start + per_batch, len(nodes)))
        ys = np.concatenate([domain.sample(make_rng(mix_seed(seed, j), rng), n_mc) for j in batch])
        psi = evaluate_many(dictionary, ys).reshape(len(batch), n_mc, -1)
        # one product per node: a batched (m, N) @ (N,) differs in the last bit
        g_vals = np.array([p @ coeffs_g for p in psi])
        tys = system.transition(ys).reshape(len(batch), n_mc, -1)
        vals = vol * g_vals * system.noise.density(nodes[batch, None, :] - tys)
        node_means[batch] = np.mean(vals, axis=1)
        node_vars[batch] = np.var(vals, axis=1, ddof=1) / n_mc

    import scipy.linalg
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
