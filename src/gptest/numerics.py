"""Linear-algebra, random-number, and quadrature primitives.

Everything here is deterministic given its inputs (and, for random
streams, the seed).  Dense symmetric problems in this package are small
(J up to a few dozen), so numpy's routines are used directly behind the
contracts below, and the two closed-form tails use Python's ``math``.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from .errors import InvalidInput

# Odd 64-bit constant used to derive child stream seeds (splitmix64 increment).
_STREAM_SALT = 0x9E3779B97F4A7C15
# Ridge jitter added to the diagonal of a Gram or sandwich-meat matrix so
# that an exactly singular one can still be solved.
RIDGE_JITTER = 1e-10


def _as_sym(a) -> np.ndarray:
    """Validate and symmetrize a square matrix: returns (A + A.T) / 2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")
    return (a + a.T) / 2.0


def sym_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(values) V^T of a symmetric matrix, as
    the (values, vectors) pair of ``np.linalg.eigh`` but with the values
    descending; column j of vectors is the orthonormal eigenvector of values[j]."""
    vals, vecs = np.linalg.eigh(_as_sym(a))
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


class RngStream:
    """Seeded random stream; identical seeds reproduce identical draws.

    Thin wrapper over numpy's PCG64 generator, which is built on the first
    draw, so a stream that is never drawn from (one that only spawns
    children, say) costs no generator.  Normal draws use numpy's ziggurat
    algorithm, which is fixed for a given numpy version, so all sequences
    are bit-reproducible within one build.  A stream is single-owner; use
    :meth:`spawn` to derive independent child streams for parallel work.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def spawn(self, index: int) -> "RngStream":
        """Derive a child stream; deterministic in (seed, index)."""
        mixed = (self.seed ^ ((index + 1) * _STREAM_SALT)) & 0xFFFFFFFFFFFFFFFF
        return RngStream(mixed)


def normal_cdf(x: float) -> float:
    """Standard normal CDF; keeps full relative accuracy deep in the lower tail."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


# Gauss-Legendre rule of chisq_mixture_sf, mapped to [0, 1].  Built once at
# import because building it costs milliseconds, more than a whole
# inversion.
_MIX_NODES, _MIX_WEIGHTS = np.polynomial.legendre.leggauss(128)
_MIX_NODES = (_MIX_NODES + 1.0) / 2.0
_MIX_WEIGHTS = _MIX_WEIGHTS / 2.0
# The contour integral is cut where a bound on its integrand falls below
# exp(-_MIX_LOG_TAIL) times the integrand's value at the saddle point.
_MIX_LOG_TAIL = 45.0


def _mixture_saddle(w: np.ndarray, x: float, upper: bool) -> float:
    """Saddle point of exp(K(t) - t x) / t for weights with max(w) = 1.

    K(t) = -1/2 sum_j log(1 - 2 w_j t) is the cumulant generating function
    of sum_j w_j chi2_j(1), so the saddle solves K'(t) - 1/t = x.  That
    function increases on both sides of 0.  Because each w_j / (1 - 2 w_j t)
    lies between 0 and 1 / (1 - 2t), the root above 0 lies in
    (1/2 - J/(2x), 1/2) and the root below 0 in (-(J/2 + 1)/x, 0).
    Safeguarded Newton finds the root on the requested side.  The result
    only places the contour, so it stops once the Newton step is below
    1e-10 of the distance to the nearest singularity, or at rounding level.
    """
    if upper:
        lo, hi = max(0.0, 0.5 - w.size / (2.0 * x)), 0.5
    else:
        lo, hi = -(w.size / 2.0 + 1.0) / x, 0.0
    t = 0.5 * (lo + hi)
    for _ in range(100):
        d = 1.0 - 2.0 * w * t
        excess = np.sum(w / d) - 1.0 / t - x
        step = excess / (np.sum(2.0 * w * w / (d * d)) + 1.0 / (t * t))
        if abs(step) <= 1e-10 * min(abs(t), 0.5 - t) + 1e-15 * abs(t):
            break
        if excess > 0.0:
            hi = t
        else:
            lo = t
        t_new = t - step
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    return t


def chisq_mixture_sf(weights, x: float) -> float:
    """Upper tail P(sum_j w_j Z_j^2 > x) of a weighted chi-square(1) mixture.

    Deterministic, with about 1e-12 relative accuracy or better from p near
    1 down to the smallest doubles.  It inverts the moment generating
    function M(t) = exp(K(t)) by Gil-Pelaez/Bromwich inversion (Imhof 1961):

        P(Q > x) = [c < 0] + (1/pi) int_0^inf Im[M(t) e^{-tx} t'(s) / t] ds

    along the hyperbola t(s) = c + 2f (cosh s - 1) + 2i f sinh s through the
    saddle point c of the integrand, with f = 1/(2 max w) - c.  For x at or
    above the mean, c lies in (0, 1/(2 max w)) and the integral is the upper
    tail; below the mean, c < 0 and the integral is minus the lower tail,
    which keeps the relative accuracy near p = 1.  Near c the hyperbola is
    the parabola whose focus is the first branch point 1/(2 max w); further
    out its asymptotes run at 45 degrees, so it passes every branch point
    at no less than 1/sqrt(2) of that point's distance from c.  |M(t)| thus
    exceeds its value at c by at most 2^(1/4) per weight, while |e^{-tx}|
    falls like exp(-2 f x (cosh s - 1)); s is cut where the product of the
    two bounds reaches exp(-_MIX_LOG_TAIL), and a fixed Gauss-Legendre rule
    converges, also for hundreds of weights in clusters.

    Weights are eigenvalues and may carry rounding noise: entries above
    -1e-10 * max|w| are clipped to zero, more negative ones raise
    InvalidInput.
    """
    w = np.asarray(weights, dtype=float)
    x = float(x)
    if w.ndim != 1 or w.size == 0:
        raise InvalidInput(f"mixture weights must be a nonempty vector, got shape {w.shape}")
    if not (np.isfinite(w).all() and math.isfinite(x)):
        raise InvalidInput("mixture weights and threshold must be finite")
    if w.min() < -1e-10 * np.abs(w).max():
        raise InvalidInput("mixture weights must be nonnegative")
    w_max = float(w.max())
    if w_max <= 0.0:
        if x > 0:
            warnings.warn("all mixture weights are zero", RuntimeWarning)
            return 0.0
        return 1.0
    if x <= 0:
        return 1.0
    w = w[w > 0.0] / w_max  # also drops the clipped rounding noise
    # Outside these bounds p rounds to 1.0, as P(Q <= x) <= sqrt(x / max w),
    # or underflows to 0.0, as P(Q > x) <= P(chi2_J > x / max w), for any
    # J below 1e10; inside them the contour scales stay well within doubles.
    z = min(max(x / w_max, 1e-40), 1e12)
    upper = z >= w.sum()
    c = _mixture_saddle(w, z, upper)
    f = 0.5 - c
    # log of 2^(1/4) per weight, plus a margin for t'(s) / t
    log_growth = 0.25 * np.log(2.0) * w.size + 2.0
    s_max = np.arccosh(1.0 + (_MIX_LOG_TAIL + log_growth) / (2.0 * f * z))
    s = s_max * _MIX_NODES
    t = c + 2.0 * f * (np.cosh(s) - 1.0) + 2j * f * np.sinh(s)
    dt = 2.0 * f * (np.sinh(s) + 1j * np.cosh(s))
    log_m = -0.5 * np.log1p(-2.0 * np.outer(t, w)).sum(axis=1)
    integrand = np.exp(log_m - t * z) * dt / t
    p = (0.0 if upper else 1.0) + float(s_max * (_MIX_WEIGHTS @ integrand.imag)) / np.pi
    return min(1.0, max(0.0, p))


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of chi-square(df) for a positive integer df.

    With h = x/2 this is the regularized gamma tail Q(df/2, h), summed as
    the finite series Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1)
    (Abramowitz and Stegun 1964, 26.4) from Q(1/2, h) = erfc(sqrt h) for
    odd df or Q(1, h) = e^-h for even df.  Each term is formed in logs, so
    none overflows or underflows before its true value would.
    """
    if not (df >= 1 and float(df).is_integer()):
        raise InvalidInput(f"chi-square df must be a positive integer, got {df}")
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h, odd = x / 2.0, df % 2
    terms = [math.erfc(math.sqrt(h)) if odd else math.exp(-h)]
    terms += [math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
              for a in (k - 0.5 * odd for k in range(1, (int(df) + 1) // 2))]
    return math.fsum(terms)
