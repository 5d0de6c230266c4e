"""Principal symbols of order 2m, their convexity structure and sharp constants.

A symbol is a finite coefficient matrix ``{a_ab}`` indexed by pairs of
multi-indices of order m, defining ``A(x, xi) = sum a_ab(x) xi^(a+b)``.
The module converts the pair coefficients to the order-2m coefficients
``a_g`` with multinomial normalization, builds the quadratic form matrix
``(a_{a+b}(x))`` whose positive semi-definiteness is the strong-convexity
test, and evaluates the two constants that govern sharp Gaussian decay:

* ``sigma_m = (2m-1) (2m)^(-2m/(2m-1)) sin(pi/(4m-2))`` -- decay exponent,
* ``k_m = sin(pi/(4m-2))^(1-2m)``  -- growth rate of the twisted lower bound,

linked by ``inf_l (-l*d + l^(2m) k_m t) = -sigma_m d^(2m/(2m-1)) / t^(1/(2m-1))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import exprlang


# ---------------------------------------------------------------------------
# multi-indices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def multi_indices(n, order):
    """All multi-indices of the given order in n variables.

    Ordering is lexicographic descending on the entry tuples, fixed once so
    that matrix layouts and golden files are reproducible.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n == 1:
        return ((order,),)
    out = []
    for first in range(order, -1, -1):
        for rest in multi_indices(n - 1, order - first):
            out.append((first,) + rest)
    return tuple(out)


def add_indices(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def multinomial(order, gamma):
    """(order)! / (gamma_1! ... gamma_n!)"""
    v = math.factorial(order)
    for g in gamma:
        v //= math.factorial(g)
    return v


def monomial(xi, gamma):
    """prod_j xi_j^gamma_j over per-axis arrays, by repeated products, so that
    no value depends on array layout (``np.power``'s SIMD loop may)."""
    v = 1.0
    for x, g in zip(xi, gamma):
        for _ in range(g):
            v = v * x
    return v


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class CoefficientField:
    """Scalar field over the domain, evaluable at arbitrary points."""

    def at(self, x):
        """Value at the point ``x``, a sequence of n coordinates."""
        raise NotImplementedError

    def at_many(self, points):
        return np.array([self.at(p) for p in np.atleast_2d(points).tolist()])


@dataclass(frozen=True)
class ConstantField(CoefficientField):
    value: float

    def at(self, x):
        return self.value

    def at_many(self, points):
        return np.full(len(np.atleast_2d(points)), self.value, dtype=float)


@dataclass(frozen=True)
class ExprField(CoefficientField):
    """An expression in x1..xn, compiled at its first point; the compiled
    callable is cached on the instance, outside ``==`` and ``hash``."""

    expr: object
    n: int

    @cached_property
    def _point(self):
        return exprlang.compile_expr(self.expr, self.n)

    def at(self, x):
        if len(x) != self.n:
            raise ValueError(f"point x={_shown(x)} has {len(x)} coordinates; "
                             f"the coefficient takes {self.n}")
        try:
            v = self._point(x)
        except exprlang.EvalError as exc:
            raise ValueError(f"coefficient evaluation failed at x={_shown(x)}: {exc}") from exc
        if not math.isfinite(v):
            raise ValueError(f"coefficient evaluated to {v} at x={_shown(x)}")
        return v


def _shown(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def as_field(value, n):
    if isinstance(value, CoefficientField):
        return value
    if isinstance(value, str):
        expr = exprlang.parse(value, n)
        if exprlang.reads_coordinates(expr):
            return ExprField(expr, n)
        # "2*pi" is one value: at_many is one np.full, and the oracle sees a constant
        try:
            v = exprlang.evaluate(expr, ())
        except exprlang.EvalError as exc:
            raise ValueError(f"coefficient evaluation failed: {exc}") from exc
        if not math.isfinite(v):
            raise ValueError(f"coefficient evaluated to {v}")
        return ConstantField(v)
    return ConstantField(float(value))


# ---------------------------------------------------------------------------
# symbol specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    bounds: tuple  # ((lo, hi), ...) per axis

    @property
    def n(self):
        return len(self.bounds)

    def center(self):
        return np.array([0.5 * (lo + hi) for lo, hi in self.bounds])


@dataclass(frozen=True)
class SymbolSpec:
    """Half-order m, dimension n, symmetric pair coefficients, domain."""

    m: int
    n: int
    coefficients: dict = field(compare=False)
    domain: DomainSpec = None
    # a(x) with A = a(x) |xi|^(2m); set by ``isotropic``, and in 1D always
    isotropic_coefficient: CoefficientField = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need m >= 1 and n >= 1")
        symmetric = {}
        for (a, b), f in self.coefficients.items():
            if sum(a) != self.m or sum(b) != self.m:
                raise ValueError(f"pair {(a, b)} must have |alpha| = |beta| = m")
            if len(a) != self.n or len(b) != self.n:
                raise ValueError(f"pair {(a, b)} has wrong dimension")
            prev = symmetric.get((b, a))
            if prev is not None and prev is not f and prev != f:
                raise ValueError(f"conflicting entries for symmetric pair {(a, b)}")
            symmetric[(a, b)] = f
            symmetric[(b, a)] = f
        object.__setattr__(self, "coefficients", symmetric)
        if self.n == 1:
            object.__setattr__(self, "isotropic_coefficient", symmetric.get(((self.m,), (self.m,))))
        if self.domain is None:
            object.__setattr__(
                self, "domain", DomainSpec(tuple((0.0, 1.0) for _ in range(self.n)))
            )

    @classmethod
    def isotropic(cls, m, n, coefficient=1.0, domain=None):
        """A(x, xi) = a(x) |xi|^(2m), via diagonal multinomial weights m!/alpha!."""
        base = as_field(coefficient, n)
        coeffs = {}
        for alpha in multi_indices(n, m):
            w = multinomial(m, alpha)
            f = base if w == 1 else _ScaledField(base, float(w))
            coeffs[(alpha, alpha)] = f
        spec = cls(m, n, coeffs, _as_domain(domain, n))
        object.__setattr__(spec, "isotropic_coefficient", base)
        return spec

    @classmethod
    def axis_powers(cls, m, n, weights=None, domain=None):
        """A(x, xi) = sum_i c_i xi_i^(2m)  (no cross terms)."""
        weights = [1.0] * n if weights is None else list(weights)
        coeffs = {}
        for i, c in enumerate(weights):
            alpha = tuple(m if j == i else 0 for j in range(n))
            coeffs[(alpha, alpha)] = as_field(c, n)
        return cls(m, n, coeffs, _as_domain(domain, n))


@dataclass(frozen=True)
class _ScaledField(CoefficientField):
    base: CoefficientField
    factor: float

    def at(self, x):
        return self.factor * self.base.at(x)

    def at_many(self, points):
        return self.factor * self.base.at_many(points)


def _as_domain(domain, n):
    if domain is None:
        return None
    if isinstance(domain, DomainSpec):
        return domain
    bounds = tuple(tuple(map(float, b)) for b in domain)
    if len(bounds) != n:
        raise ValueError("domain bounds must give one (lo, hi) pair per axis")
    return DomainSpec(bounds)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_symbol(spec, x, xi):
    """A(x, xi) = sum over pairs a_ab(x) xi^(a+b); homogeneous of degree 2m.

    One point ``x`` gives a float, a ``(k, n)`` array k values, with ``xi``
    one vector or one row per point.  The two steps, :func:`coefficient_values`
    and :func:`symbol_sum`, are elementwise: a batch equals per-point calls.
    """
    pts, xi, single = as_batch(spec.n, x, xi, "xi")
    vals = symbol_sum(spec, coefficient_values(spec, pts), xi.T)
    return float(vals[0]) if single else vals


def as_batch(n, x, v, name):
    """``(points, vectors, single)``: ``x`` as ``(k, n)`` points, ``v`` as
    one row or one row per point; ``single`` when ``x`` was one point."""
    x = np.asarray(x, dtype=float)
    single = x.ndim < 2
    if single and x.size != n:
        raise ValueError(f"x must be one point of dimension {n} or a (k, {n}) array")
    pts = x.reshape(-1, n)
    v = np.asarray(v, dtype=float).reshape(-1, n)
    if len(v) not in (1, len(pts)):
        raise ValueError(f"{name} must be one vector or one row per point")
    return pts, v, single


def coefficient_values(spec, points):
    """Step one of :func:`eval_symbol`: an array over the ``(k, n)`` points per
    entry of ``spec.coefficients``, each distinct base field evaluated once and
    a :class:`_ScaledField` taken as its factor times its base's values."""
    scaled = [(f.base, f.factor) if isinstance(f, _ScaledField) else (f, None)
              for f in spec.coefficients.values()]
    bases = {id(f): f for f, _ in scaled}
    vals = {key: f.at_many(points) for key, f in bases.items()}
    return [vals[id(f)] if w is None else w * vals[id(f)] for f, w in scaled]


def symbol_sum(spec, coeffs, xi):
    """Step two of :func:`eval_symbol`: ``sum a_ab xi^(a+b)`` in the order of
    ``spec.coefficients``, broadcast over the coefficient and per-axis arrays."""
    return sum(c * monomial(xi, add_indices(a, b)) for c, (a, b) in zip(coeffs, spec.coefficients))


def gamma_coefficients(spec, x):
    """Order-2m coefficients a_g(x) with A = sum C(2m, g) a_g(x) xi^g; floats
    at one point, arrays over a ``(k, n)`` array of points."""
    pts = np.asarray(x, dtype=float).reshape(-1, spec.n)
    out = {g: np.zeros(len(pts)) for g in multi_indices(spec.n, 2 * spec.m)}
    for c, (a, b) in zip(coefficient_values(spec, pts), spec.coefficients):
        out[add_indices(a, b)] += c
    out = {g: v / multinomial(2 * spec.m, g) for g, v in out.items()}
    return {g: float(v[0]) for g, v in out.items()} if np.ndim(x) < 2 else out


def _gamma_matrices(spec, pts):
    """``(k, d, d)`` stack of the gamma forms at the ``(k, n)`` points."""
    order = multi_indices(spec.n, spec.m)
    ag = gamma_coefficients(spec, pts)
    return np.moveaxis(np.array([[ag[add_indices(a, b)] for b in order] for a in order]), -1, 0)


@dataclass(frozen=True)
class GammaForm:
    x: tuple
    matrix: np.ndarray
    index_order: tuple  # multi-indices of order m labelling rows/columns


def gamma_form(spec, x):
    """Quadratic form matrix (a_{alpha+beta}(x)) over multi-indices of order m."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return GammaForm(tuple(x), _gamma_matrices(spec, x[None])[0], multi_indices(spec.n, spec.m))


@dataclass
class ConvexityReport:
    strongly_convex: bool
    min_eigenvalue: float
    witness_point: tuple
    inconclusive: bool = False
    form_scale: float = math.nan  # largest |entry| of the forms; in 1D the largest |a(x)|


def is_strongly_convex(spec, sample_points):
    """PSD test of the gamma form at each sample point.

    Tolerance is scale-invariant: an eigenvalue is accepted when it is at
    least ``-1e-10 * (1 + max-norm of the matrix)``.  Failure of the one
    stacked ``eigvalsh`` is reported as inconclusive, never as a negative
    verdict, at the first non-finite form (else the first point).
    """
    pts = np.asarray(list(sample_points), dtype=float).reshape(-1, spec.n)
    if not len(pts):
        raise ValueError("need at least one sample point")
    mats = _gamma_matrices(spec, pts)
    try:
        lo = np.linalg.eigvalsh(mats)[:, 0]
    except np.linalg.LinAlgError:
        bad = ~np.all(np.isfinite(mats), axis=(1, 2))
        return ConvexityReport(False, math.nan, tuple(pts[int(np.argmax(bad))]), True)
    scale = np.max(np.abs(mats), axis=(1, 2))
    ratio = lo / (1.0 + scale)
    i = int(np.argmin(ratio))
    return ConvexityReport(bool(ratio[i] >= -1e-10), float(lo[i]), tuple(pts[i]), False,
                           float(np.max(scale)))


@dataclass(frozen=True)
class SharpConstants:
    """sigma_m (Gaussian decay constant) and k_m (twisting growth constant)."""

    m: int
    sigma_m: float
    k_m: float


def sharp_constants(m):
    if m < 1:
        raise ValueError("m must be >= 1")
    s = math.sin(math.pi / (4 * m - 2))
    sigma = (2 * m - 1) * (2 * m) ** (-2 * m / (2 * m - 1)) * s
    return SharpConstants(m, sigma, s ** (1 - 2 * m))


def decay_constant_from_growth(kappa, m):
    """sigma such that inf_l(-l d + l^(2m) kappa t) = -sigma d^(2m/(2m-1)) t^(-1/(2m-1))."""
    if kappa <= 0:
        raise ValueError("growth coefficient must be positive")
    return (2 * m - 1) * (2 * m) ** (-2 * m / (2 * m - 1)) * kappa ** (-1 / (2 * m - 1))


def sphere_directions(n, count):
    """Unit directions used for sampling: endpoints in 1D, uniform angles in
    2D, Fibonacci sphere in 3D."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if n == 3:
        k = np.arange(count)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * k
        z = 1.0 - 2.0 * (k + 0.5) / count
        r = np.sqrt(1.0 - z * z)
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ellipticity_constant(spec, sample_points):
    """min over sampled (x, xi on the unit sphere) of A(x, xi).

    A certified-by-sampling lower estimate of the ellipticity constant: the
    coefficients once per point, repeated across 64 directions for one
    :func:`symbol_sum` over points x directions, with golden-section
    refinement around the minimizing angle in 2D.
    """
    dirs = sphere_directions(spec.n, 64)
    pts = np.asarray(list(sample_points), dtype=float).reshape(-1, spec.n)
    coeffs = coefficient_values(spec, pts)
    vals = symbol_sum(spec, [np.repeat(c, len(dirs)) for c in coeffs],
                      np.tile(dirs, (len(pts), 1)).T)
    p, i = divmod(int(np.argmin(vals)), len(dirs))
    best = float(np.min(vals))
    if spec.n == 2:
        coeffs = [c[p:p + 1] for c in coeffs]
        f = lambda th: symbol_sum(spec, coeffs, (np.cos(th), np.sin(th)))
        th0 = 2 * np.pi * i / len(dirs)
        width = 2 * np.pi / len(dirs)
        best = min(best, float(_golden_min(f, [th0 - width], [th0 + width])[0]))
    return best


def _golden_min(f, a, b):
    """Golden-section estimate of the minimum of a unimodal f on [a, b], in 60 steps.

    Works elementwise: with arrays ``a``, ``b`` (and ``f`` mapping an array
    of abscissae to an array of values) every interval is refined at once.
    """
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        left = fc < fd  # keep [a, d], else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        p = np.where(left, b - g * (b - a), a + g * (b - a))
        fp = f(p)
        c, d = np.where(left, p, d), np.where(left, c, p)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return np.minimum(fc, fd)
