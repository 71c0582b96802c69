"""Reference implementations that tests check the package against.

The Monte Carlo tail of a chi-square mixture is the reference for the
exact ``numerics.chisq_mixture_sf``: ``gp_test_unstandardized``
calibrates with the exact tail, and nothing in the package draws
chi-square variates, so the sampler lives here.  ``irls_reference`` is
the batched logistic Newton loop in its plain form, every step computed
from the current coefficients.  ``basis_reference`` evaluates one basis
function without the recurrence and the helpers of ``gptest.basis``,
and ``tensor_bounds_reference`` takes a tensor basis's sups over every
point of a d-dimensional mesh.
``panel_b_reference`` draws a Panel B sample with a softmax of the
stratum weights on every row, without the helpers of ``gptest.dgp``.
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


def tensor_bounds_reference(family: str, j_star: int, d: int, grid_points: int):
    """sup |b| and sup ||B||_2 of the tensor basis of ``j_star`` functions per
    axis on [-1, 1]^d: every column evaluated at every point of the mesh of
    ``grid_points`` evenly spaced values per axis."""
    grid = np.linspace(-1.0, 1.0, grid_points)
    axis = np.column_stack([basis_reference(family, j, grid) for j in range(j_star)])
    points = np.indices((grid_points,) * d).reshape(d, -1)
    degrees = np.indices((j_star,) * d).reshape(d, -1)
    columns = np.ones((points.shape[1], degrees.shape[1]))
    for k in range(d):
        columns *= axis[points[k]][:, degrees[k]]
    return np.abs(columns).max(), np.linalg.norm(columns, axis=1).max()


def panel_b_reference(n: int, beta1: float, beta2: float, seed: int, u_sd: float):
    """Panel B columns (X1, X2, Z1, Z2, D, Y) drawn from ``RngStream(seed)``
    in the generator's order; each row's stratum is the number of its n x 5
    cumulative softmax probabilities at or below its uniform draw."""

    def expit(v):
        return 1.0 / (1.0 + np.exp(-v))

    rng = RngStream(seed)
    x1 = 2.0 * rng.uniform(n) - 1.0
    x2 = 2.0 * rng.uniform(n) - 1.0
    z1 = (rng.uniform(n) < expit(0.5 + 0.5 * x1 + 0.5 * x2)).astype(float)
    z2 = (rng.uniform(n) < expit(0.5 + 0.5 * x1 - 0.5 * x2)).astype(float)
    u = -0.3 + u_sd * rng.normal(n)
    xs1, xs2 = (x1 > 0).astype(float), (x2 > 0).astype(float)
    sco, co = 3.5 + 0.5 * xs1 + xs2, 2.0 + xs1 + xs2
    logw = np.column_stack([1.0 - xs2, sco, sco, co, co])  # ANT, SCO1, SCO2, RCO, ECO
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    probs = w / w.sum(axis=1, keepdims=True)
    stratum = (rng.uniform(n)[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1)
    d = np.select(
        [stratum == 1, stratum == 2, stratum == 3, stratum == 4],
        [z1, z2, z1 * z2, np.maximum(z1, z2)],
        0.0,
    )
    y0 = 1.0 + x1 + x2 + u + rng.normal(n)
    sco2 = -2.0 * x1
    if beta1:
        sco2 = sco2 + beta1 * (np.cos(np.pi * x1) + np.cos(np.pi * x2))
    if beta2:
        sco2 = sco2 + beta2 * (x1 + x2)
    effect = np.select([stratum == 0, stratum == 2], [0.0, sco2], -2.0 * x1)
    y = d * (y0 + effect) + (1.0 - d) * y0
    return {"X1": x1, "X2": x2, "Z1": z1, "Z2": z2, "D": d, "Y": y}
