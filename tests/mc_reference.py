"""Reference implementations that tests check the package against.

The Monte Carlo tail of a chi-square mixture is the reference for the
exact ``numerics.chisq_mixture_sf``: ``gp_test_unstandardized``
calibrates with the exact tail, and nothing in the package draws
chi-square variates, so the sampler lives here.  ``irls_reference`` is
the batched logistic Newton loop in its plain form, every step computed
from the current coefficients.  ``basis_reference`` evaluates one basis
function without the recurrence and the helpers of ``gptest.basis``.
"""

import warnings

import numpy as np
from numpy.polynomial.legendre import Legendre

from gptest.errors import InvalidInput
from gptest.numerics import RngStream


def chisq1(rng: RngStream, size=None):
    """Chi-square(1) draws: squared standard normals from ``rng``."""
    return np.square(rng.normal(size))


def weighted_chisq_pvalue(taus, s: float, draws: int, rng: RngStream) -> float:
    """Monte Carlo upper-tail probability of sum_j tau_j chi2_j(1) at s."""
    taus = np.asarray(taus, dtype=float)
    if draws < 10_000:
        raise InvalidInput("need at least 1e4 Monte Carlo draws")
    if np.any(taus < -1e-10 * max(1.0, np.abs(taus).max())):
        raise InvalidInput("mixture weights must be nonnegative")
    taus = np.clip(taus, 0.0, None)
    if np.all(taus == 0.0):
        if s > 0:
            warnings.warn("all mixture weights are zero", RuntimeWarning)
            return 0.0
        return 1.0
    if s <= 0:
        return 1.0
    # Chunked so J * draws never allocates more than ~8e6 doubles.
    chunk = max(1, int(8e6 // max(1, len(taus))))
    exceed = 0
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        mix = chisq1(rng, (m, len(taus))) @ taus
        exceed += int(np.sum(mix >= s))
        done += m
    return exceed / draws


def irls_reference(features, y, weights):
    """Logistic coefficients (K, p) and converged flags (K,) of the K fits
    weighted by the rows of ``weights``: Newton steps from zero, every
    step's weights and gradient from the current coefficients, a fit
    frozen once its step is below 1e-8 (converged) or a coefficient
    passes 30 (clipped there, unconverged), at most 100 steps."""
    K, m = weights.shape
    p = features.shape[1]
    pairs = [(a, b) for a in range(p) for b in range(a, p)]
    column = {pair: j for j, pair in enumerate(pairs)}
    entry = [[column[min(a, b), max(a, b)] for b in range(p)] for a in range(p)]
    columns = features[:, [a for a, _ in pairs]]
    columns *= features[:, [b for _, b in pairs]]
    beta = np.zeros((K, p))
    converged = np.zeros(K, dtype=bool)
    running = np.arange(K)
    for _ in range(100):
        prob = 1.0 / (1.0 + np.exp(-beta @ features.T))
        work = np.maximum((1.0 - prob) * prob, 1e-10) * weights
        gram = (work @ columns)[:, entry]
        grad = ((y - prob) * weights) @ features
        step = np.linalg.solve(gram[running], grad[running][..., None])[..., 0]
        beta[running] += step
        capped = np.abs(beta[running]).max(axis=1) > 30.0
        if capped.any():
            np.clip(beta, -30.0, 30.0, out=beta)
        small = np.abs(step).max(axis=1) < 1e-8
        converged[running[small & ~capped]] = True
        running = running[~(small | capped)]
        if running.size == 0:
            break
    return beta, converged


def basis_reference(family: str, j: int, z):
    """Orthonormal basis function b_j at z in [-1, 1]: sqrt(2j + 1) times
    numpy's Legendre polynomial P_j, or 1, sqrt(2) cos(k pi z) for
    j = 2k - 1 and sqrt(2) sin(k pi z) for j = 2k."""
    z = np.asarray(z, dtype=float)
    if family == "legendre":
        return Legendre.basis(j)(z) * np.sqrt(2.0 * j + 1.0)
    if j == 0:
        return np.ones_like(z)
    k = (j + 1) // 2
    return np.sqrt(2.0) * (np.cos if j % 2 == 1 else np.sin)(k * np.pi * z)
