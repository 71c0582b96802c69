"""Built-in regression learners and K-fold cross-fitting.

The learner roster is deliberately small: ordinary least squares for
continuous targets and iteratively reweighted least squares logistic
regression for binary ones.  Cross-fitting fits every nuisance model a
score needs without the held-out fold and writes its predictions on that
fold into a per-row array, so each nuisance becomes one array of
out-of-fold values; the score is then evaluated once on the full sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLabels,
    InsufficientStratum,
    InvalidInput,
    SingularDesign,
)
from .dgp import Dataset, expit
from .numerics import RngStream
from . import scores as sc

_RIDGE_JITTER = 1e-10
_LOGIT_MAX_ITER = 100
_LOGIT_TOL = 1e-8
_LOGIT_COEF_CAP = 30.0


@dataclass
class LinearFit:
    """Fitted linear model; ``link`` is 'identity' or 'logit'."""

    coefficients: np.ndarray  # intercept first
    link: str = "identity"
    converged: bool = True

    def predict(self, features: np.ndarray) -> np.ndarray:
        eta = features @ self.coefficients
        return expit(eta) if self.link == "logit" else eta


@dataclass
class CrossFitResult:
    pseudo_outcomes: np.ndarray
    fold_of: np.ndarray | None  # fold index of each row; None in oracle mode
    nuisances: dict[str, np.ndarray]  # out-of-fold value of each nuisance per row
    diagnostics: dict = field(default_factory=dict)


def with_intercept(x: np.ndarray) -> np.ndarray:
    """Prepend a column of ones to a covariate vector or matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return np.column_stack([np.ones(x.shape[0]), x])


def _solve_normal(gram: np.ndarray, moment: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        jittered = gram + _RIDGE_JITTER * np.eye(gram.shape[0])
        try:
            return np.linalg.solve(jittered, moment)
        except np.linalg.LinAlgError:
            raise SingularDesign("design matrix is rank deficient") from None


def fit_ols(features: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least squares fit; near-singular designs get a 1e-10 ridge jitter."""
    features = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = features.shape
    if n <= p:
        raise SingularDesign(f"need n > p, got n={n}, p={p}")
    beta = _solve_normal(features.T @ features, features.T @ y)
    return LinearFit(coefficients=beta, link="identity")


def fit_logistic(features: np.ndarray, y: np.ndarray) -> LinearFit:
    """Logistic regression by iteratively reweighted least squares.

    Coefficients are capped at magnitude 30 as a separation guard; a fit
    that hits the cap or the iteration budget is returned with
    ``converged=False`` rather than raising.
    """
    features = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabels("logistic fit needs both classes present")
    beta = np.zeros(features.shape[1])
    converged = False
    for _ in range(_LOGIT_MAX_ITER):
        p = expit(features @ beta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        gram = features.T @ (w[:, None] * features)
        grad = features.T @ (y - p)
        step = _solve_normal(gram, grad)
        beta = beta + step
        if np.max(np.abs(beta)) > _LOGIT_COEF_CAP:
            beta = np.clip(beta, -_LOGIT_COEF_CAP, _LOGIT_COEF_CAP)
            break
        if np.max(np.abs(step)) < _LOGIT_TOL:
            converged = True
            break
    return LinearFit(coefficients=beta, link="logit", converged=converged)


def make_folds(n: int, K: int, rng: RngStream) -> np.ndarray:
    """Fold index of each row: a random permutation chunked into K near-equal folds."""
    if not (2 <= K <= n):
        raise InvalidInput(f"need 2 <= K <= n, got K={K}, n={n}")
    sizes = np.full(K, n // K)
    sizes[: n % K] += 1
    fold_of = np.empty(n, dtype=int)
    fold_of[rng.permutation(n)] = np.repeat(np.arange(K), sizes)
    return fold_of


def _stratum_fit(features, y, mask, learner, fold: int, label: str):
    if np.sum(mask) < features.shape[1] + 1:
        raise InsufficientStratum(
            f"training data for fold {fold} has too few rows in stratum {label}"
        )
    try:
        return learner(features[mask], y[mask])
    except DegenerateLabels:
        raise InsufficientStratum(
            f"training data for fold {fold} is single-class in stratum {label}"
        ) from None


def _target(data: Dataset, spec: sc.ScoreSpec, role: str):
    """The column playing ``role`` and its learner: IRLS if declared binary, else OLS."""
    name = spec.column(role)
    return data.col(name), fit_logistic if name in data.binary else fit_ols


# Each fitter fits on the ``train`` rows of the shared intercept design
# ``feats`` and returns (nuisance values at the ``held`` rows, fits).


def _fit_me(data: Dataset, spec: sc.ScoreSpec, feats, train, held, fold: int):
    y, y_learner = _target(data, spec, "y")
    a = data.col(spec.column("a"))
    s = data.col(spec.column("s"))
    s_model = _stratum_fit(feats, s, train, fit_logistic, fold, "S")
    fits = [s_model]
    ps1 = s_model.predict(held)
    values = {}
    for sv in (0, 1):
        in_s = train & (s == sv)
        a_model = _stratum_fit(feats, a, in_s, fit_logistic, fold, f"S={sv}")
        cell = in_s & (a == spec.arm)
        mu = _stratum_fit(feats, y, cell, y_learner, fold, f"(A={spec.arm},S={sv})")
        fits += [a_model, mu]
        ps = ps1 if sv == 1 else 1.0 - ps1
        pa1 = a_model.predict(held)
        values[f"pi_s{sv}"] = ps * (pa1 if spec.arm == 1 else 1.0 - pa1)
        values[f"mu_s{sv}"] = mu.predict(held)
    return values, fits


def _fit_iv(data: Dataset, spec: sc.ScoreSpec, feats, train, held, fold: int):
    fits = {}
    for j in (1, 2):
        z = data.col(spec.column(f"z{j}"))
        fits[f"pz{j}"] = _stratum_fit(feats, z, train, fit_logistic, fold, f"Z{j}")
        for zv in (0, 1):
            arm = train & (z == zv)
            for role in ("d", "y"):
                target, learner = _target(data, spec, role)
                key = f"mu_{role}{j}_{zv}"
                fits[key] = _stratum_fit(feats, target, arm, learner, fold, f"Z{j}={zv}")
    return {key: fit.predict(held) for key, fit in fits.items()}, fits.values()


def _fit_parametric(data: Dataset, spec: sc.ScoreSpec, feats, train, held, fold: int):
    """The fitted mean ``h`` and each held-out row's leverage under this fold's Gram matrix."""
    train_feats = feats[train]
    fit = fit_ols(train_feats, data.col(spec.column("y"))[train])
    gram = train_feats.T @ train_feats / train_feats.shape[0]
    gram_inv = np.linalg.inv(gram + _RIDGE_JITTER * np.eye(gram.shape[0]))
    leverage = np.einsum("ij,jk,ik->i", held, gram_inv, held)
    return {"h": fit.predict(held), "leverage": leverage}, [fit]


def _fit_condcov(data: Dataset, spec: sc.ScoreSpec, feats, train, held, fold: int):
    fits = {}
    for key, role in (("mean_y", "y"), ("mean_z", "z")):
        target, learner = _target(data, spec, role)
        fits[key] = _stratum_fit(feats, target, train, learner, fold, role)
    return {key: fit.predict(held) for key, fit in fits.items()}, fits.values()


_FITTERS = {
    sc.MEAN_EXCHANGEABILITY: _fit_me,
    sc.IV_COMPATIBILITY: _fit_iv,
    sc.PARAMETRIC_SPEC: _fit_parametric,
    sc.CONDITIONAL_COVARIANCE: _fit_condcov,
}


def crossfit(data: Dataset, spec: sc.ScoreSpec, K: int, rng: RngStream) -> CrossFitResult:
    """Out-of-fold pseudo-outcomes g(O_i; eta-hat without fold k(i)) for the given score.

    In oracle mode the analytic nuisances are evaluated at X and no
    models are fit.
    """
    x = data.covariate_matrix(spec.covariates)
    if spec.nuisance_mode == "oracle":
        eta = {key: f(x) for key, f in spec.oracle.items()}
        return CrossFitResult(sc.evaluate_score(data, eta, spec), None, eta)
    fold_of = make_folds(data.n, K, rng)
    feats = with_intercept(x)
    fitter = _FITTERS[spec.kind]
    eta = {}
    nonconverged = 0
    for k in range(K):
        hold = fold_of == k
        values, fits = fitter(data, spec, feats, ~hold, feats[hold], k)
        for key, value in values.items():
            eta.setdefault(key, np.empty(data.n))[hold] = value
        nonconverged += sum(not fit.converged for fit in fits)
    pseudo = sc.evaluate_score(data, eta, spec)
    if not np.all(np.isfinite(pseudo)):
        raise InvalidInput("cross-fitting produced non-finite pseudo-outcomes")
    return CrossFitResult(
        pseudo_outcomes=pseudo,
        fold_of=fold_of,
        nuisances=eta,
        diagnostics={"K": K, "nonconverged_fits": nonconverged},
    )
