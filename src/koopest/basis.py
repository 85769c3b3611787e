"""Observable dictionaries and inner products on a compact box domain.

A dictionary is an ordered set of scalar observables on the state space.
Monomial dictionaries are first-class: their multi-indices are enumerated in
graded-lexicographic order (constant first) and their Gram matrix has exact
analytic entries.  Arbitrary user dictionaries are supported as opaque
vectorized callables, in which case the Gram matrix falls back to
tensor-product Gauss-Legendre quadrature.

Inner products use the uniform probability measure on a user-configured
hyper-rectangle (default ``[-1, 1]^n``), which keeps the Gram matrix
well-conditioned and its condition number directly computable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

DEFAULT_QUADRATURE_ORDER = 8  # exact for per-axis polynomial degree <= 15


@dataclass(frozen=True)
class Domain:
    """Nonempty hyper-rectangle ``[lower_i, upper_i]`` used as the state box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be 1-D vectors of the same length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("domain bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("domain must satisfy lower[i] < upper[i] for all i")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Uniform draws; shape ``(dim,)`` for size=None else ``(size, dim)``."""
        if size is None:
            return rng.uniform(self.lower, self.upper)
        return rng.uniform(self.lower, self.upper, size=(size, self.dim))


def unit_box(dim: int) -> Domain:
    """The default domain ``[-1, 1]^dim``."""
    return Domain(-np.ones(dim), np.ones(dim))


def grlex_exponents(state_dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices with total degree <= max_degree.

    Graded-lexicographic order: ascending total degree, and within a degree
    the first coordinate varies slowest and highest powers come first, so for
    two variables and degree two the order is
    ``(0,0), (1,0), (0,1), (2,0), (1,1), (0,2)``.
    """
    if state_dim < 1:
        raise ValueError("state_dim must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    exps = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=state_dim)
        if sum(e) <= max_degree
    ]
    exps.sort(key=lambda e: (sum(e), tuple(-ei for ei in e)))
    return exps


def monomial_name(exponents: Sequence[int]) -> str:
    """Human-readable label, e.g. ``(2, 1) -> 'x1^2*x2'`` and all-zeros -> '1'."""
    parts = []
    for i, p in enumerate(exponents):
        if p == 1:
            parts.append(f"x{i + 1}")
        elif p > 1:
            parts.append(f"x{i + 1}^{p}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class MonomialSpec:
    """Full monomial basis of total degree <= max_degree on state_dim variables."""

    state_dim: int
    max_degree: int

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be positive")
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")

    @property
    def exponent_list(self) -> list[tuple[int, ...]]:
        return grlex_exponents(self.state_dim, self.max_degree)

    @property
    def n_basis(self) -> int:
        return math.comb(self.state_dim + self.max_degree, self.max_degree)

    def to_dict(self) -> dict:
        return {"state_dim": self.state_dim, "max_degree": self.max_degree}

    @classmethod
    def from_dict(cls, data: dict) -> "MonomialSpec":
        return cls(state_dim=int(data["state_dim"]), max_degree=int(data["max_degree"]))


def _monomial_function(exponents: np.ndarray) -> Callable:
    e = np.asarray(exponents, dtype=float)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.prod(x**e, axis=-1)

    return f


@dataclass(frozen=True)
class Dictionary:
    """Ordered set of scalar observables on an n-dimensional state.

    Each observable must accept an array of shape ``(n,)`` or ``(m, n)`` and
    return a scalar or an ``(m,)`` vector (vectorized over the leading axis).
    ``exponents`` is set for pure-monomial dictionaries and enables the
    analytic Gram matrix; it is None for opaque user dictionaries.
    """

    functions: tuple
    names: tuple
    state_dim: int
    exponents: np.ndarray | None = field(default=None)

    def __post_init__(self):
        funcs = tuple(self.functions)
        names = tuple(str(s) for s in self.names)
        if len(funcs) < 1:
            raise ValueError("a dictionary needs at least one observable")
        if len(names) != len(funcs):
            raise ValueError("names and functions must have the same length")
        if len(set(names)) != len(names):
            raise ValueError("observable names must be distinct")
        if self.state_dim < 1:
            raise ValueError("state_dim must be positive")
        object.__setattr__(self, "functions", funcs)
        object.__setattr__(self, "names", names)
        if self.exponents is not None:
            exps = np.asarray(self.exponents, dtype=int)
            if exps.shape != (len(funcs), self.state_dim):
                raise ValueError("exponents must have shape (n_basis, state_dim)")
            object.__setattr__(self, "exponents", exps)

    @property
    def n_basis(self) -> int:
        return len(self.functions)


def make_dictionary(functions: Sequence[Callable], names: Sequence[str], state_dim: int) -> Dictionary:
    """Dictionary of opaque observables; Gram matrices will use quadrature."""
    return Dictionary(tuple(functions), tuple(names), state_dim)


def dictionary_from_exponents(exponents, state_dim: int | None = None, names: Sequence[str] | None = None) -> Dictionary:
    """Monomial dictionary with an explicit (possibly partial) exponent list."""
    exps = np.asarray(exponents, dtype=int)
    if exps.ndim != 2:
        raise ValueError("exponents must be a 2-D array (n_basis, state_dim)")
    if (exps < 0).any():
        raise ValueError("exponents must be nonnegative")
    if state_dim is None:
        state_dim = exps.shape[1]
    if names is None:
        names = [monomial_name(e) for e in exps]
    funcs = tuple(_monomial_function(e) for e in exps)
    return Dictionary(funcs, tuple(names), state_dim, exponents=exps)


def make_monomial_dictionary(spec: MonomialSpec) -> Dictionary:
    """Full graded-lex monomial dictionary for the given spec; constant first."""
    return dictionary_from_exponents(
        np.array(spec.exponent_list, dtype=int), state_dim=spec.state_dim
    )


def evaluate(dictionary: Dictionary, x) -> np.ndarray:
    """Evaluate all observables at one state; returns a length-N vector.

    Raises if the state has the wrong length or any observable produces a
    non-finite value (an ill-posed dictionary/state pair).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dictionary.state_dim,):
        raise ValueError(
            f"state must have shape ({dictionary.state_dim},), got {x.shape}"
        )
    out = np.array([f(x) for f in dictionary.functions], dtype=float)
    if not np.isfinite(out).all():
        raise ValueError("dictionary evaluation produced non-finite values")
    return out


def evaluate_many(dictionary: Dictionary, xs) -> np.ndarray:
    """Evaluate all observables at a batch of states; returns ``(m, N)``."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dictionary.state_dim:
        raise ValueError(
            f"states must have shape (m, {dictionary.state_dim}), got {xs.shape}"
        )
    cols = [np.broadcast_to(f(xs), (xs.shape[0],)) for f in dictionary.functions]
    out = np.column_stack(cols).astype(float)
    if not np.isfinite(out).all():
        raise ValueError("dictionary evaluation produced non-finite values")
    return out


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive-definite matrix of pairwise observable inner products.

    ``cond`` is the 2-norm condition number ``|Lambda|_2 |Lambda^-1|_2``,
    computed once from the eigendecomposition that rejects a matrix which is
    not positive definite (ValueError naming the smallest eigenvalue).
    """

    matrix: np.ndarray
    domain: Domain
    method: str  # "analytic-monomial" | "quadrature"
    names: tuple
    cond: float = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("gram matrix must be square")
        w = np.linalg.eigvalsh(m)
        if w[0] <= 0.0:
            raise ValueError(
                "gram matrix is not positive definite (smallest eigenvalue "
                f"{w[0]:.6e}); the observables are linearly dependent on this domain"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cond", float(w[-1] / w[0]))

    @property
    def n_basis(self) -> int:
        return self.matrix.shape[0]


def _axis_moments(lower: float, upper: float, max_power: int) -> np.ndarray:
    """Normalized moments ``E[x^p]`` of Uniform(lower, upper) for p = 0..max_power."""
    p = np.arange(max_power + 1)
    return (upper ** (p + 1) - lower ** (p + 1)) / ((p + 1) * (upper - lower))


def _analytic_monomial_gram(exponents: np.ndarray, domain: Domain) -> np.ndarray:
    exps = np.asarray(exponents, dtype=int)
    n_basis, dim = exps.shape
    max_power = 2 * int(exps.max(initial=0))
    moments = [
        _axis_moments(domain.lower[k], domain.upper[k], max_power) for k in range(dim)
    ]
    lam = np.ones((n_basis, n_basis))
    for k in range(dim):
        powers = exps[:, k][:, None] + exps[:, k][None, :]
        lam *= moments[k][powers]
    return lam


def gauss_legendre_nodes(domain: Domain, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre rule for the normalized uniform measure.

    Returns ``(points, weights)`` with points of shape ``(order^dim, dim)``
    and weights summing to 1.
    """
    if order < 1:
        raise ValueError("quadrature order must be positive")
    t, w = np.polynomial.legendre.leggauss(order)
    axes_pts, axes_wts = [], []
    for k in range(domain.dim):
        lo, hi = domain.lower[k], domain.upper[k]
        axes_pts.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * t)
        axes_wts.append(0.5 * w)  # normalized per-axis mass
    grids = np.meshgrid(*axes_pts, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*axes_wts, indexing="ij")
    weights = np.ones(points.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    return points, weights


def gram(
    dictionary: Dictionary,
    domain: Domain,
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER,
    method: str = "auto",
) -> GramMatrix:
    """Gram matrix of the dictionary under the uniform measure on the domain.

    Parameters
    ----------
    dictionary, domain :
        The observables and the box carrying the normalized uniform measure.
    quadrature_order :
        Gauss-Legendre nodes per axis for the quadrature path.
    method :
        "auto" uses the exact analytic formula for monomial dictionaries and
        quadrature otherwise; "analytic" or "quadrature" force a path.

    Raises
    ------
    ValueError
        If the smallest eigenvalue is not strictly positive (the observables
        are linearly dependent on this domain), with the eigenvalue named.
    """
    if dictionary.state_dim != domain.dim:
        raise ValueError("dictionary and domain dimensions differ")
    if method == "auto":
        method = "analytic" if dictionary.exponents is not None else "quadrature"
    if method == "analytic":
        if dictionary.exponents is None:
            raise ValueError("analytic Gram requires a monomial dictionary")
        lam = _analytic_monomial_gram(dictionary.exponents, domain)
        tag = "analytic-monomial"
    elif method == "quadrature":
        pts, wts = gauss_legendre_nodes(domain, quadrature_order)
        psi = evaluate_many(dictionary, pts)
        lam = psi.T @ (wts[:, None] * psi)
        tag = "quadrature"
    else:
        raise ValueError(f"unknown gram method {method!r}")

    lam = np.triu(lam) + np.triu(lam, 1).T  # exact symmetry by mirroring
    return GramMatrix(lam, domain, tag, dictionary.names)
