"""Random dynamical systems ``x_{t+1} = T(x_t) + xi_t`` and sample generation.

Ships the two benchmark systems used throughout:

* a closed quadratic map whose lifted dynamics on the dictionary
  ``[1, x1, x2, x1^2]`` are exactly linear, so the ground-truth Koopman
  matrix is known in closed form, and
* an Euler-discretized Van der Pol oscillator, whose lifted dynamics on
  degree-two monomials are not closed.

Trajectories are bit-reproducible functions of (system, x0, steps, seed).
"""

from __future__ import annotations

import ast
import ctypes
import functools
import keyword
import math
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import Dictionary, Domain, evaluate, evaluate_many
from .seeding import make_rng

GAUSSIAN_IID = "gaussian-iid"
NO_NOISE = "none"

STATE_DIM = 2  # every system is planar: the simulator steps two named coordinates

DEFAULT_DIVERGENCE_NORM = 1e6
# Rows per block, both for drawing trajectory noise and for lifting samples
# into moments and residuals.  One constant, so a fit streamed from
# trajectory_chunks forms the same block sums as accumulate / residuals over
# the simulated samples and the two agree bit for bit.
BLOCK = 65536


class DivergenceError(RuntimeError):
    """A simulated state left the finite / bounded region."""

    def __init__(self, step: int, norm: float, threshold: float):
        self.step = step
        self.norm = norm
        self.threshold = threshold
        super().__init__(
            f"trajectory diverged at step {step}: state norm {norm:.3e} "
            f"exceeds threshold {threshold:.3e} (or is non-finite)"
        )


@dataclass(frozen=True)
class NoiseModel:
    """Additive iid noise on the plane, drawn independently across time steps
    and the two coordinates.  ``std_dev`` holds one standard deviation per
    coordinate; a single entry serves both.  Kind ``"none"`` draws -0.0, which
    adds nothing to any state (+0.0 turns a -0.0 into +0.0), whatever its ``std_dev``."""

    kind: str  # "gaussian-iid" | "none"
    std_dev: np.ndarray

    def __post_init__(self):
        if self.kind not in (GAUSSIAN_IID, NO_NOISE):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        sd = np.atleast_1d(np.asarray(self.std_dev, dtype=float))
        if sd.shape == (1,):
            sd = np.full(STATE_DIM, sd[0])
        if sd.shape != (STATE_DIM,):
            raise ValueError(
                f"std_dev needs 1 or {STATE_DIM} entries (systems are planar), got {sd.size}"
            )
        if (sd < 0).any() or not np.isfinite(sd).all():
            raise ValueError("std_dev entries must be finite and nonnegative")
        object.__setattr__(self, "std_dev", sd)

    @classmethod
    def gaussian(cls, std_dev) -> "NoiseModel":
        return cls(GAUSSIAN_IID, std_dev)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(NO_NOISE, 0.0)

    @property
    def has_density(self) -> bool:
        return self.kind == GAUSSIAN_IID and bool((self.std_dev > 0).all())

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m iid noise vectors, shape (m, 2).  Consumes no randomness if silent."""
        if self.kind == NO_NOISE:
            return np.full((m, STATE_DIM), -0.0)
        return rng.normal(0.0, 1.0, size=(m, STATE_DIM)) * self.std_dev

    def density(self, v) -> np.ndarray:
        """Product-Gaussian probability density of each state (last axis) of v."""
        if not self.has_density:
            raise ValueError("noise model has no density (kind 'none' or zero std)")
        v = np.atleast_2d(np.asarray(v, dtype=float))
        z = v / self.std_dev
        norm = (2.0 * np.pi) ** (STATE_DIM / 2.0) * float(np.prod(self.std_dev))
        return np.exp(-0.5 * np.sum(z * z, axis=-1)) / norm


STEP_NAMES = ("x1", "x2", "w1", "w2")  # the state and the noise of a step; T reads the state
# gcc contracts ``a * b + c`` into one fused multiply-add, rounded once, on a
# machine that has one (aarch64, for example), where Python rounds twice;
# -ffp-contract=off keeps Python's bits.
COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}

# Both kernels step x <- T(x) + w path by path, the noise added last, and return each path's
# stop: its first state whose norm sqrt(x1*x1 + x2*x2) is NaN, +inf or above the bound, or m.
_PYTHON = """
def kernel(_params, _paths, _noise, _bound):
    {names} = _params
    _stops = []
    for _path, _w in _zip(_paths, _noise):
        x1, x2 = _path[0].tolist()
        _out1, _out2 = [], []
        _append1, _append2 = _out1.append, _out2.append
        _failed = False
        for _w1, _w2 in _zip(*_w.T.tolist()):
            x1, x2 = ({0}) + _w1, ({1}) + _w2
            _append1(x1)
            _append2(x2)
            _norm = _sqrt(x1 * x1 + x2 * x2)
            _failed = not _norm < _inf or _norm > _bound
            if _failed:
                break
        _path[1 : len(_out1) + 1] = _array([_out1, _out2]).T
        _stops.append(len(_out1) - _failed)
    return _array(_stops, int)
"""
_C = """#include <math.h>
void kernel(const double *p, double *x, const double *w, long *stop, long n, long m, double bound) {{
    {names}
    for (long r = 0, t; r < n; r++, x += 2 * (m + 1), w += 2 * m) {{
        double v_x1 = x[0], v_x2 = x[1];
        for (t = 0; t < m; t++) {{
            const double y1 = {0} + w[2 * t], y2 = {1} + w[2 * t + 1];
            x[2 * t + 2] = v_x1 = y1;
            x[2 * t + 3] = v_x2 = y2;
            const double norm = sqrt(y1 * y1 + y2 * y2);
            if (!isfinite(norm) || norm > bound) break;
        }}
        stop[r] = t;
    }}
}}
"""


@functools.cache
def _python(update: tuple, names: tuple):
    """The generated Python kernel of an update pair, the pair compiled, and
    its C text, each operation in parentheses.  A map may read only x1, x2,
    the parameter ``names`` and finite float constants through ``+``, ``-``
    and ``*``, so Python and C evaluate the same IEEE operations in the same
    order: one walk checks each tree and writes its C text before any runs."""
    allowed = STEP_NAMES[:STATE_DIM] + names

    def c(node):
        op = getattr(node, "op", None)
        if isinstance(node, ast.BinOp) and type(op) in _OPERATORS:
            return f"({c(node.left)} {_OPERATORS[type(op)]} {c(node.right)})"
        if isinstance(node, ast.UnaryOp) and isinstance(op, ast.USub):
            return f"(-{c(node.operand)})"
        if isinstance(node, ast.Name) and node.id in allowed:
            return f"v_{node.id}"
        if isinstance(node, ast.Constant) and type(node.value) is float and math.isfinite(node.value):
            return repr(node.value)
        what = ast.unparse(node) if op is None else type(op).__name__
        raise ValueError(f"update {expr!r} may use only {', '.join(allowed)}, finite float "
                         f"constants, +, -, * and parentheses, not {what}")

    texts = []
    for expr in update:
        try:
            texts.append(c(ast.parse(expr, mode="eval").body))
        except SyntaxError:
            raise ValueError(f"update {expr!r} is not a Python expression") from None
    namespace = {"_zip": zip, "_array": np.array, "_sqrt": math.sqrt, "_inf": math.inf}
    exec(_PYTHON.format(*update, names=f"[{', '.join(names)}]"), namespace)
    return namespace["kernel"], compile(f"({update[0]}), ({update[1]})", "<update>", "eval"), texts


@functools.cache
def _kernel(update: tuple, names: tuple):
    """``(kernel, stepping)`` of an update pair in this process: the C kernel,
    built from stdin into a temporary directory at the first call, else the
    Python kernel and the reason."""
    unpack = " ".join(f"const double v_{name} = p[{i}];" for i, name in enumerate(names))
    source = _C.format(*_python(update, names)[2], names=unpack)
    try:
        if (compiler := shutil.which(COMPILE[0])) is None:
            raise OSError("no C compiler found")
        import subprocess  # here: a run that steps nothing starts no process

        with tempfile.TemporaryDirectory() as tmp:
            library = f"{tmp}/kernel.so"
            done = subprocess.run([compiler, *COMPILE[1:], "-x", "c", "-o", library, "-"],
                                  input=source.encode(), capture_output=True)
            if done.returncode:
                raise OSError(f"{COMPILE[0]} exited with status {done.returncode}")
            try:
                fn = ctypes.CDLL(library).kernel
            except (OSError, AttributeError):
                raise OSError(f"the library {COMPILE[0]} built did not load") from None
    except OSError as err:
        return _python(update, names)[0], f"python: {err}"
    fn.argtypes, fn.restype = [ctypes.c_void_p] * 4 + [ctypes.c_long] * 2 + [ctypes.c_double], None

    def kernel(params, paths, noise, bound):
        params = np.ascontiguousarray(params, dtype=float)
        n, m, _ = noise.shape
        if ((params.shape, noise.shape, paths.shape) != ((len(names),), (n, m, 2), (n, m + 1, 2))
                or not all(a.dtype == float and a.flags.c_contiguous for a in (paths, noise))
                or not paths.flags.writeable):
            raise ValueError("the kernel takes float64 C-contiguous paths (R, m + 1, 2), "
                             f"noise (R, m, 2) and {len(names)} parameters")
        stops = np.empty(n, dtype=ctypes.c_long)
        fn(params.ctypes.data, paths.ctypes.data, noise.ctypes.data, stops.ctypes.data, n, m, bound)
        return stops

    return kernel, f"compiled ({' '.join(COMPILE[:3])})"


@dataclass(frozen=True)
class StochasticSystem:
    """State-transition law ``x+ = T(x) + noise`` on the plane.

    A system is its map and its planar noise.  ``update`` is the map T,
    written once as a pair of strings, ``T1`` and ``T2`` over ``x1, x2``
    and the names of ``params`` (finite floats), checked by ``_python``.
    From it come the kernels ``kernel(params, paths, noise, bound)``, compiled
    C or Python, which step ``x <- T(x) + w`` and stop each path at its first
    state out of ``bound``, writing the same bytes, and ``transition``, which
    is T.  Systems are immutable and safe to share across workers.
    """

    update: tuple
    params: dict
    noise: NoiseModel

    def __post_init__(self):
        if not (isinstance(self.update, (tuple, list)) and len(self.update) == STATE_DIM
                and all(isinstance(expr, str) for expr in self.update)):
            raise ValueError(f"update must be a pair of strings, one expression per coordinate, "
                             f"got {self.update!r}")
        if any(not name.isidentifier() or keyword.iskeyword(name) or name[0] == "_"
               or name in STEP_NAMES for name in self.params):
            raise ValueError(f"parameter names {list(self.params)} must be identifiers other "
                             f"than {', '.join(STEP_NAMES)}, not beginning with '_'")
        object.__setattr__(self, "update", tuple(self.update))
        _python(self.update, tuple(self.params))  # checks the pair
        object.__setattr__(self, "params", {k: float(v) for k, v in self.params.items()})
        for name, value in self.params.items():
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {value!r}")

    @property
    def stepping(self) -> str:
        """How this process steps the system: "compiled (...)" or "python: <why>"."""
        return _kernel(self.update, tuple(self.params))[1]

    def transition(self, x) -> np.ndarray:
        """T of one state ``(2,)`` or of each row of ``(m, 2)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != STATE_DIM:
            raise ValueError(f"state must have shape (2,) or (m, 2), got {x.shape}")
        pair = eval(_python(self.update, tuple(self.params))[1],
                    {**self.params, **dict(zip(STEP_NAMES, x.T))})
        return np.stack(np.broadcast_arrays(*pair), axis=-1)  # a map of no state is a float


@dataclass(frozen=True)
class ClosedQuadraticParams:
    """Parameters of the closed quadratic benchmark map.

    ``x1+ = rho*x1 + xi1``, ``x2+ = mu*x2 + (rho^2 - mu)*c*x1^2 + xi2``.
    Contraction needs |rho| < 1 and |mu| < 1; larger magnitudes are accepted
    with a warning since trajectories may then diverge.
    """

    rho: float
    mu: float
    c: float = 1.0

    def __post_init__(self):
        for name in ("rho", "mu", "c"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if abs(self.rho) >= 1 or abs(self.mu) >= 1:
            warnings.warn(
                "closed quadratic map with |rho| >= 1 or |mu| >= 1 may diverge",
                stacklevel=3,  # past the generated __init__, at the caller
            )


def make_closed_quadratic(
    params: ClosedQuadraticParams, noise: NoiseModel | None = None
) -> StochasticSystem:
    """Closed quadratic benchmark; default noise is unit-variance Gaussian."""
    rho, mu, c = params.rho, params.mu, params.c
    return StochasticSystem(("rho * x1", "mu * x2 + a * x1 * x1"),
                            {"rho": rho, "mu": mu, "a": (rho * rho - mu) * c},
                            NoiseModel.gaussian(1.0) if noise is None else noise)


def closed_quadratic_dictionary() -> Dictionary:
    """The four observables ``[1, x1, x2, x1^2]`` that close the benchmark map."""
    return Dictionary([[0, 0], [1, 0], [0, 1], [2, 0]])


def closed_quadratic_koopman(
    params: ClosedQuadraticParams, noise_variance: float = 1.0
) -> np.ndarray:
    """Ground-truth Koopman matrix of the closed quadratic map.

    Column k holds the coordinates of the propagated observable psi_k in the
    dictionary ``[1, x1, x2, x1^2]``; the only noise contribution is
    ``E[(rho*x1 + xi)^2] = rho^2*x1^2 + Var(xi)``, which puts the noise
    variance of the first coordinate in the (1, 4) entry.
    """
    if noise_variance < 0:
        raise ValueError("noise_variance must be nonnegative")
    rho, mu, c = params.rho, params.mu, params.c
    k = np.zeros((4, 4))
    k[0, 0] = 1.0
    k[0, 3] = noise_variance
    k[1, 1] = rho
    k[2, 2] = mu
    k[3, 2] = (rho * rho - mu) * c
    k[3, 3] = rho * rho
    return k


def make_vanderpol(
    dt: float, noise: NoiseModel | None = None, standard_vdp: bool = False
) -> StochasticSystem:
    """Euler-discretized Van der Pol oscillator with additive noise.

    The default map is ``x1+ = x1 + dt*x2``,
    ``x2+ = x2 + dt*((1 - x1^2)*x1 - x1)``; setting ``standard_vdp`` swaps in
    the textbook damping field ``(1 - x1^2)*x2 - x1``.  Default noise is
    Gaussian with standard deviation 0.01 per coordinate, comparable to the
    dt-scale drift.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    damped = "x2" if standard_vdp else "x1"
    return StochasticSystem(
        ("x1 + dt * x2", f"x2 + dt * ((1.0 - x1 * x1) * {damped} - x1)"),
        {"dt": dt}, NoiseModel.gaussian(0.01) if noise is None else noise)


@dataclass(frozen=True)
class SampleSet:
    """Paired predecessor/successor states (x_t, y_t) used for estimation.

    Pairs that chain bit for bit (each ``ys[t]`` is ``xs[t + 1]``) are one
    trajectory: its T + 1 states x_0..x_T are held once in the contiguous
    ``states`` array, and ``xs`` and ``ys`` are its views ``states[:-1]`` and
    ``states[1:]``.  Other pairs keep ``xs`` and ``ys`` apart and have
    ``states = None``.
    """

    xs: np.ndarray
    ys: np.ndarray
    seed: int
    states: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 2 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be 2-D arrays of identical shape")
        if xs.shape[0] < 1:
            raise ValueError("sample set must contain at least one pair")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("sample set entries must be finite")
        states = None
        # bits, not values: 0.0 == -0.0, but a lift or a CSV tells them apart
        if (xs[1:].view(np.uint64) == ys[:-1].view(np.uint64)).all():
            states = np.concatenate([xs[:1], ys])
            xs, ys = states[:-1], states[1:]
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "states", states)

    @property
    def n_samples(self) -> int:
        return self.xs.shape[0]

    @property
    def state_dim(self) -> int:
        return self.xs.shape[1]


def trajectory_chunks(
    system: StochasticSystem,
    x0,
    steps: int,
    seeds,
    max_norm: float = DEFAULT_DIVERGENCE_NORM,
    domain: Domain | None = None,
):
    """Step one trajectory per seed; yield their states block by block.

    Each item is ``(paths, index, failed)``.  ``paths`` has shape
    ``(len(index), m + 1, 2)``: the m + 1 states of this block of each
    trajectory still running, ``index`` holding their positions in ``seeds``
    (a block's last state is the next block's first).  Each block is one
    call of the system's kernel (see :class:`StochasticSystem`), which stops a
    trajectory at its first state of 2-norm NaN, +inf or above ``max_norm``
    (positive, or +inf); ``failed`` maps the position of each one stopped in
    this block to its DivergenceError.  Every trajectory draws its initial
    state (``x0=None``, uniform on ``domain``) and its noise from its own
    seed stream, ``BLOCK`` rows at a time, so its states do not depend on
    the other seeds: identical arguments give :func:`simulate`'s trajectory.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if not max_norm > 0:  # a NaN bound would fail no state, one of 0 or below every state
        raise ValueError(f"max_norm must be positive or +inf, got {max_norm!r}")
    rngs = [make_rng(seed) for seed in seeds]
    if x0 is None:
        if domain is None:
            raise ValueError("either x0 or domain must be given")
        starts = [domain.sample(rng) for rng in rngs]
    else:
        starts = [x0] * len(rngs)
    x = np.array(starts, dtype=float)
    if x.shape != (len(rngs), STATE_DIM) or not np.isfinite(x).all():
        raise ValueError("x0 must be a finite state of the system's dimension")
    kernel, _ = _kernel(system.update, tuple(system.params))
    params = tuple(system.params.values())
    index = np.arange(len(rngs))
    done = 0
    while done < steps and index.size:
        m = min(BLOCK, steps - done)
        noise = np.stack([system.noise.draw(rngs[k], m) for k in index])
        paths = np.empty((index.size, m + 1, STATE_DIM))
        paths[:, 0] = x
        stops = kernel(params, paths, noise, max_norm)
        failed = {}
        for r in np.flatnonzero(stops < m):  # the failing state's norm, as the kernel takes it
            i = int(stops[r])
            x1, x2 = paths[r, i + 1].tolist()
            failed[int(index[r])] = DivergenceError(done + i, math.sqrt(x1 * x1 + x2 * x2), max_norm)
        if failed:
            index, paths = index[stops == m], paths[stops == m]
        x = paths[:, -1].copy()
        yield paths, index, failed
        done += m


def simulate(
    system: StochasticSystem,
    x0,
    steps: int,
    seed: int,
    max_norm: float = DEFAULT_DIVERGENCE_NORM,
    domain: Domain | None = None,
) -> SampleSet:
    """Simulate one trajectory of ``steps`` transitions and return its
    consecutive (x_t, x_{t+1}) pairs, a SampleSet over its ``steps + 1`` states.

    It starts at ``x0``, or with ``x0=None`` at a state drawn uniformly from
    ``domain`` on the same seed stream.  Identical 64-bit seeds give
    bit-identical sample sets.  The first state of 2-norm NaN, +inf or above
    ``max_norm`` raises DivergenceError with its step and its norm.
    """
    blocks = []
    for paths, _, failed in trajectory_chunks(system, x0, steps, [seed], max_norm, domain):
        if failed:
            raise failed[0]
        blocks.append(paths[0, :-1])
    blocks.append(paths[0, -1:])  # a block's last state opens the next block
    states = np.concatenate(blocks)
    return SampleSet(states[:-1], states[1:], int(seed))


def step_pairs(system: StochasticSystem, xs, seed: int) -> SampleSet:
    """One noisy transition from each given state: independent (x, y) pairs."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != STATE_DIM:
        raise ValueError("xs must have shape (m, 2)")
    rng = make_rng(seed)
    ys = system.transition(xs) + system.noise.draw(rng, xs.shape[0])
    return SampleSet(xs, ys, int(seed))


def koopman_apply_mc(
    system: StochasticSystem,
    dictionary: Dictionary,
    coeffs,
    x,
    n_mc: int,
    seed: int,
):
    """Monte Carlo estimate ``(value, stderr)`` of the propagated observable
    ``E_xi[phi(T(x)+xi)]``, ``phi`` the dictionary combination with the given
    coefficients; the standard error is NaN below two draws.  Silent noise
    gives the exact ``phi(T(x))`` and 0.0 for any n_mc.  This estimator is
    the independent oracle used by closure diagnostics and ground-truth
    matrix checks.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (STATE_DIM,):  # one state: a batch would reach the lift as (1, n_mc, 2)
        raise ValueError(f"state must have shape (2,), got {x.shape}")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (dictionary.n_basis,):
        raise ValueError("coeffs must have length n_basis")
    tx = system.transition(x)
    if system.noise.kind == NO_NOISE:
        return float(evaluate(dictionary, tx) @ coeffs), 0.0
    rng = make_rng(seed)
    ys = tx[None, :] + system.noise.draw(rng, n_mc)
    vals = evaluate_many(dictionary, ys) @ coeffs
    sem = float(np.std(vals, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else float("nan")
    return float(np.mean(vals)), sem
