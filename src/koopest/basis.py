"""Monomial dictionaries and inner products on a compact box domain.

A dictionary is an ordered set of N monomials ``x^e_j`` on an n-dimensional
state, n >= 2, defined by its ``(N, n)`` exponent table: graded-lexicographic
multi-indices (constant first) for the full basis, or any explicit list.
It lifts ``(m, n)`` states to ``(m, N)`` values through a power table, and
its Gram matrix is exact and analytic.

The lift is bit-equal to ``np.prod(xs ** e, axis=-1)`` for each exponent
row ``e``, at a fraction of its cost.  Per coordinate, the power table
holds ``x^0 = 1`` and ``x^1 = x`` (exact identities of ``pow``) and one
``pow`` per state for each distinct exponent >= 2 over the whole batch,
where the reference form calls ``pow`` once per state, observable and
coordinate.  Each observable's column is then gathered from the table and
multiplied in coordinate order.  The exponent operand of ``pow`` is a
contiguous array: given a stride-0 exponent 2, numpy squares by ``x*x``,
which differs from ``pow`` in the last bit of a few percent of values.
With one coordinate the reference form itself takes that ``x*x`` path,
which is why a dictionary needs at least two.

Inner products use the uniform probability measure on a user-configured
hyper-rectangle (default ``[-1, 1]^n``), which keeps the Gram matrix
well-conditioned and its condition number directly computable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_QUADRATURE_ORDER = 8  # exact for per-axis polynomial degree <= 15
LIFT_ROWS = 8192  # states per monomial power table


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


@dataclass(frozen=True, eq=False)  # compared by identity: its fields are arrays
class Dictionary:
    """Ordered set of N monomials on an n-dimensional state, n >= 2.

    Built from its ``(N, n)`` exponent table, row j the multi-index of the
    observable named ``names[j]``; the names, ``state_dim`` and the power
    table plan of :meth:`lift` follow from it.  :func:`evaluate_many` is the
    one caller of ``lift`` and checks the states' shape and the values'
    finiteness; :func:`evaluate` calls it on a batch of one.
    """

    exponents: np.ndarray
    names: tuple = field(init=False)
    state_dim: int = field(init=False)
    _plan: tuple = field(init=False, repr=False)

    def __post_init__(self):
        exps = np.asarray(self.exponents)
        if exps.ndim != 2 or exps.dtype.kind not in "iu":  # 2.5 must not read as 2
            raise ValueError(f"exponents must be a 2-D integer array (n_basis, state_dim), "
                             f"got {exps.dtype} of shape {exps.shape}")
        exps = exps.astype(int)
        n = exps.shape[1]
        if n < 2:
            raise ValueError(f"exponents need at least 2 columns (state coordinates), got {n}")
        if (exps < 0).any():
            raise ValueError("exponents must be nonnegative")
        names = tuple(monomial_name(e) for e in exps)
        if len(names) < 1:
            raise ValueError("a dictionary needs at least one observable")
        if len(set(names)) != len(names):
            raise ValueError("observable names must be distinct")
        # The power table's rows: 1, then x_1..x_n, then x_k^e for each
        # distinct (k, e >= 2).  rows[k, j] is the row holding coordinate k's
        # factor of observable j.
        high = sorted({(k, int(e)) for row in exps for k, e in enumerate(row) if e >= 2})
        bases = np.array([1 + k for k, _ in high], dtype=np.intp)
        degrees = np.array([e for _, e in high], dtype=float)
        row_of = {(k, 0): 0 for k in range(n)} | {(k, 1): 1 + k for k in range(n)}
        row_of |= {(k, e): 1 + n + i for i, (k, e) in enumerate(high)}
        rows = np.array([[row_of[k, e] for e in exps[:, k]] for k in range(n)], dtype=np.intp)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "state_dim", n)
        object.__setattr__(self, "_plan", (bases, degrees, rows))

    @property
    def n_basis(self) -> int:
        return len(self.names)

    def lift(self, xs: np.ndarray) -> np.ndarray:
        """The ``(m, N)`` values at ``(m, n)`` states, bit-equal to
        ``np.prod(xs ** e, axis=-1)`` per observable."""
        # x^0 = 1 and x^1 = x are exact, every higher power is one pow per
        # state with a contiguous exponent operand (a stride-0 exponent 2
        # would make numpy square by x*x, which differs from pow in the last
        # bit), and the factors are multiplied in coordinate order.
        # LIFT_ROWS states at a time, so the table and products stay small
        # next to the output.
        bases, degrees, rows = self._plan
        n, n_high = self.state_dim, len(degrees)
        out = np.empty((len(xs), self.n_basis))
        for start in range(0, len(xs), LIFT_ROWS):
            chunk = xs[start : start + LIFT_ROWS]
            m = len(chunk)
            table = np.empty((1 + n + n_high, m))
            table[0] = 1.0
            table[1 : 1 + n] = chunk.T
            exponent = np.repeat(degrees, m).reshape(n_high, m)
            np.power(table[bases], exponent, out=table[1 + n :])
            product = table[rows[0]]
            for r in rows[1:]:
                product *= table[r]
            out[start : start + m] = product.T
        return out


def make_monomial_dictionary(state_dim: int, max_degree: int) -> Dictionary:
    """Full graded-lex monomial dictionary of total degree <= max_degree on
    state_dim variables; constant first."""
    return Dictionary(grlex_exponents(state_dim, max_degree))


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
    return evaluate_many(dictionary, x[None])[0]


def evaluate_many(dictionary: Dictionary, xs) -> np.ndarray:
    """Evaluate all observables at a batch of states; returns ``(m, N)``.

    Raises on a state of the wrong width, or on a non-finite value (a
    monomial of a large state can overflow).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dictionary.state_dim:
        raise ValueError(
            f"states must have shape (m, {dictionary.state_dim}), got {xs.shape}"
        )
    # an overflow is reported once, by the check below, not also as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = dictionary.lift(xs)
    if not np.isfinite(out).all():
        raise ValueError("dictionary evaluation produced non-finite values")
    return out


@dataclass(frozen=True, eq=False)  # compared by identity: its fields are arrays
class GramMatrix:
    """Symmetric positive-definite matrix of pairwise observable inner products.

    ``cond`` is the 2-norm condition number ``|Lambda|_2 |Lambda^-1|_2``,
    computed once from the eigendecomposition that rejects a matrix which is
    not positive definite (ValueError naming the smallest eigenvalue).
    """

    matrix: np.ndarray
    domain: Domain
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


def gram(dictionary: Dictionary, domain: Domain) -> GramMatrix:
    """Exact Gram matrix ``E[psi_i psi_j]`` of the dictionary under the
    uniform probability measure on the domain, a product of per-axis
    analytic moments.

    Raises
    ------
    ValueError
        If the dictionary and domain dimensions differ, or if the smallest
        eigenvalue is not strictly positive (the observables are linearly
        dependent on this domain, numerically), with the eigenvalue named.
    """
    if dictionary.state_dim != domain.dim:
        raise ValueError("dictionary and domain dimensions differ")
    exps = dictionary.exponents
    max_power = 2 * int(exps.max(initial=0))
    lam = np.ones((dictionary.n_basis, dictionary.n_basis))
    for k in range(domain.dim):
        moments = _axis_moments(domain.lower[k], domain.upper[k], max_power)
        lam *= moments[exps[:, k][:, None] + exps[:, k][None, :]]
    lam = np.triu(lam) + np.triu(lam, 1).T  # exact symmetry by mirroring
    return GramMatrix(lam, domain, dictionary.names)
