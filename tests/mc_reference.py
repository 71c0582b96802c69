"""Monte Carlo tail of a chi-square mixture: the reference that tests
check the exact ``numerics.chisq_mixture_sf`` against.

``gp_test_unstandardized`` calibrates with the exact tail; nothing in the
package draws chi-square variates, so the sampler lives here.
"""

import warnings

import numpy as np

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
