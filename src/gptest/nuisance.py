"""Built-in regression learners and K-fold cross-fitting.

The learner roster is deliberately small: logistic regression by
iteratively reweighted least squares for a 0/1 column, and ordinary
least squares for any other.  Cross-fitting fits every nuisance model a
score needs without the held-out fold and writes its predictions on that
fold into a per-row array, so each nuisance becomes one array of
out-of-fold values; the score is then evaluated once on the full sample.

The K fold fits of one nuisance model are solved together: fold k
weights the model's stratum rows by ``fold_of[i] != k``, and the K
weighted normal equations (or Newton steps) are solved as one stack.
The (K, n) fold weights are built once per cross-fit.  Each stratum is
set up once for every model fit on it: its rows of the design and of the
fold weights are gathered, and each fit's row count, the Gram product
columns and the base Gram stack are computed.  Least squares solves with
that Gram, and the first IRLS step with a quarter of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientStratum, InvalidInput, SingularDesign
from .dgp import Dataset, expit
from .numerics import RIDGE_JITTER, RngStream
from . import scores as sc

_LOGIT_MAX_ITER = 100
_LOGIT_TOL = 1e-8
_LOGIT_COEF_CAP = 30.0
_LOGIT_MIN_WEIGHT = 1e-10


@dataclass
class CrossFitResult:
    pseudo_outcomes: np.ndarray
    fold_of: np.ndarray | None  # fold index of each row; None in oracle mode
    nuisances: dict[str, np.ndarray]  # out-of-fold value of each nuisance per row
    covariates: np.ndarray  # the n x d covariate matrix the nuisances were fit or evaluated at
    diagnostics: dict = field(default_factory=dict)


def with_intercept(x: np.ndarray) -> np.ndarray:
    """Prepend a column of ones to a covariate vector or matrix.  The result
    is C-contiguous: the BLAS summation order of every fit on it, and so
    its bits, depend on that layout."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    out = np.empty((x.shape[0], x.shape[1] + 1))
    out[:, 0] = 1.0
    out[:, 1:] = x
    return out


def _solve_one(gram: np.ndarray, moment: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        jittered = gram + RIDGE_JITTER * np.eye(gram.shape[0])
        try:
            return np.linalg.solve(jittered, moment)
        except np.linalg.LinAlgError:
            raise SingularDesign(
                "design matrix is rank deficient: the covariates are collinear "
                "or constant within a stratum"
            ) from None


def _solve_normal(gram: np.ndarray, moment: np.ndarray) -> np.ndarray:
    """Solve a (K, p, p) stack of normal equations; a singular system is
    retried on its own with a 1e-10 ridge jitter."""
    try:
        return np.linalg.solve(gram, moment[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.array([_solve_one(g, m) for g, m in zip(gram, moment)])


def _pair_index(p: int):
    """For the products f_a * f_b of a p-column design's columns, a <= b,
    one column each: the a and the b of every product, and for every
    entry (a, b) of a p x p matrix the column holding its product."""
    pairs = [(a, b) for a in range(p) for b in range(a, p)]
    column = {pair: j for j, pair in enumerate(pairs)}
    entry = np.array([[column[min(a, b), max(a, b)] for b in range(p)] for a in range(p)])
    left, right = (list(side) for side in zip(*pairs))
    return left, right, entry


def _grams(weights: np.ndarray, columns: np.ndarray, entry) -> np.ndarray:
    """The (K, p, p) stack sum_i weights[k, i] f_i f_i' from the product columns."""
    return (weights @ columns)[:, entry]


class _Setup:
    """What the K fold fits of every model on one set of rows share: the
    rows' design, their (K, m) fold weights W, each fit's row count, the
    design's product columns C and Gram entry index (``_pair_index``,
    built if not given) and the base Gram stack W·C."""

    def __init__(self, features: np.ndarray, weights: np.ndarray, pair_index=None):
        left, right, self.entry = pair_index or _pair_index(features.shape[1])
        self.features, self.weights = features, weights
        self.counts = weights.sum(axis=1)
        self.columns = features[:, left]
        self.columns *= features[:, right]
        self.gram = _grams(weights, self.columns, self.entry)


def _lstsq(fit: _Setup, y: np.ndarray) -> np.ndarray:
    """Least squares coefficients (K, p), fit k on the rows where weights[k] is 1."""
    return _solve_normal(fit.gram, (fit.weights * y) @ fit.features)


def _irls(fit: _Setup, y: np.ndarray):
    """Logistic coefficients (K, p) and converged flags (K,), fit k on the
    rows where weights[k] is 1.

    Every fit takes its own Newton steps from zero.  A fit whose
    coefficients pass magnitude 30 is clipped there and stops unconverged
    (a separation guard); one whose step falls below 1e-8 stops converged;
    either way it is frozen while the others go on.  A fit still running
    after 100 steps is unconverged.
    """
    features, weights, columns, entry = fit.features, fit.weights, fit.columns, fit.entry
    K, m = weights.shape
    beta = np.zeros((K, features.shape[1]))
    converged = np.zeros(K, dtype=bool)
    running = np.arange(K)
    prob = np.empty((K, m))
    work = np.empty((K, m))
    for step_no in range(_LOGIT_MAX_ITER):
        if step_no == 0:
            # at beta = 0 every probability is exactly 1/2 and every weight
            # exactly 1/4, so this is the step below without its passes
            gram = 0.25 * fit.gram
            grad = (weights * (y - 0.5)) @ features
        else:
            # prob = expit(eta) in place, in the 1 / (1 + exp(-eta)) form of dgp.expit
            np.matmul(-beta, features.T, out=prob)
            np.exp(prob, out=prob)
            prob += 1.0
            np.divide(1.0, prob, out=prob)
            np.subtract(1.0, prob, out=work)
            work *= prob
            np.maximum(work, _LOGIT_MIN_WEIGHT, out=work)
            work *= weights
            gram = _grams(work, columns, entry)
            np.subtract(y, prob, out=work)
            work *= weights
            grad = work @ features
        # a full slice (views, no copies) while every fit runs
        live = slice(None) if running.size == K else running
        step = _solve_normal(gram[live], grad[live])
        beta[live] += step
        capped = np.abs(beta[live]).max(axis=1) > _LOGIT_COEF_CAP
        small = np.abs(step).max(axis=1) < _LOGIT_TOL
        stop = small | capped
        if stop.any():
            if capped.any():
                # only the capped fits can lie outside the cap
                np.clip(beta, -_LOGIT_COEF_CAP, _LOGIT_COEF_CAP, out=beta)
            converged[running[small & ~capped]] = True
            running = running[~stop]
            if running.size == 0:
                break
    return beta, converged


def check_folds(K: int, n: int | None = None) -> int:
    """Return K if it is at least 2 and, when the row count n is given, at most n."""
    if K < 2 or (n is not None and K > n):
        raise InvalidInput(f"need 2 <= K <= n, got K={K}" + ("" if n is None else f", n={n}"))
    return K


def make_folds(n: int, K: int, rng: RngStream) -> np.ndarray:
    """Fold index of each row: a random permutation chunked into K near-equal folds."""
    check_folds(K, n)
    sizes = np.full(K, n // K)
    sizes[: n % K] += 1
    fold_of = np.empty(n, dtype=int)
    fold_of[rng.permutation(n)] = np.repeat(np.arange(K), sizes)
    return fold_of


class _Folds:
    """The shared intercept design, the fold of every row and the (K, n)
    fold weights W[k, i] = fold_of[i] != k; counts the fold fits that did
    not converge."""

    def __init__(self, features: np.ndarray, fold_of: np.ndarray, K: int):
        n = fold_of.size
        self.features = features
        self.fold_of = fold_of
        self.weights = (fold_of != np.arange(K)[:, None]).astype(float)
        self.everyone = np.ones(n, dtype=bool)
        # where row i's own-fold value sits in a flattened (K, n) array
        self.own_fold = fold_of * n + np.arange(n)
        self.pair_index = _pair_index(features.shape[1])
        self.nonconverged = 0

    def training(self, stratum: np.ndarray, label: str):
        """The stratum's rows (an index array, or a full slice for
        ``everyone``) and the set-up of its fits on their fold weights."""
        if stratum is self.everyone:
            rows, features, weights = slice(None), self.features, self.weights
        else:
            rows = np.flatnonzero(stratum)
            features = np.take(self.features, rows, axis=0)
            weights = np.take(self.weights, rows, axis=1)
        fit = _Setup(features, weights, self.pair_index)
        short = np.flatnonzero(fit.counts < features.shape[1] + 1)
        if short.size:
            raise InsufficientStratum(
                f"training data for fold {short[0]} has too few rows in stratum {label}"
            )
        return rows, fit

    def out_of_fold(self, fit: _Setup, y: np.ndarray, binary: bool, label: str):
        """Row i's prediction from fold ``fold_of[i]``'s fit to the stratum's
        labels ``y``: by IRLS if they are ``binary`` (0/1), else by least squares."""
        if not binary:
            return np.take(_lstsq(fit, y) @ self.features.T, self.own_fold)
        # a fold trains on one class when its count of ones is 0 or its row count
        ones = fit.weights @ y
        single = np.flatnonzero((ones == 0.0) | (ones == fit.counts))
        if single.size:
            raise InsufficientStratum(
                f"training data for fold {single[0]} is single-class in stratum {label}"
            )
        beta, converged = _irls(fit, y)
        self.nonconverged += int(np.sum(~converged))
        return expit(np.take(beta @ self.features.T, self.own_fold))

    def predict(self, stratum: np.ndarray, *targets):
        """Out-of-fold predictions of each (labels, binary, label) target from
        one set-up of the stratum; a failure names the target's label."""
        rows, fit = self.training(stratum, targets[0][2])
        return [self.out_of_fold(fit, y[rows], binary, label) for y, binary, label in targets]


# Each fitter takes the (column, binary) of each role from ScoreSpec.check_columns
# and returns the out-of-fold value of each of its nuisances at every row.


def _fit_me(roles: dict, spec: sc.ScoreSpec, folds: _Folds):
    y, s, a = roles["y"], roles["s"], roles["a"]
    (ps1,) = folds.predict(folds.everyone, (*s, "S"))
    values = {}
    for sv in (0, 1):
        in_s = s[0] == sv
        (pa1,) = folds.predict(in_s, (*a, f"S={sv}"))
        ps = ps1 if sv == 1 else 1.0 - ps1
        values[f"pi_s{sv}"] = ps * (pa1 if spec.arm == 1 else 1.0 - pa1)
        cell = in_s & (a[0] == spec.arm)
        (values[f"mu_s{sv}"],) = folds.predict(cell, (*y, f"(A={spec.arm},S={sv})"))
    return values


def _fit_iv(roles: dict, spec: sc.ScoreSpec, folds: _Folds):
    d, y, z1, z2 = roles["d"], roles["y"], roles["z1"], roles["z2"]
    pz1, pz2 = folds.predict(folds.everyone, (*z1, "Z1"), (*z2, "Z2"))
    values = {"pz1": pz1, "pz2": pz2}
    for j, z in ((1, z1[0]), (2, z2[0])):
        for zv in (0, 1):
            label = f"Z{j}={zv}"
            mu = folds.predict(z == zv, (*d, label), (*y, label))
            values[f"mu_d{j}_{zv}"], values[f"mu_y{j}_{zv}"] = mu
    return values


def _fit_parametric(roles: dict, spec: sc.ScoreSpec, folds: _Folds):
    """The fitted mean ``h`` and each row's leverage under its own fold's Gram matrix."""
    _, fit = folds.training(folds.everyone, "Y")
    h = folds.out_of_fold(fit, roles["y"][0], False, "Y")
    p = fit.features.shape[1]
    gram = fit.gram / fit.counts[:, None, None]
    gram_inv = np.linalg.inv(gram + RIDGE_JITTER * np.eye(p))
    feats = folds.features
    leverage = np.einsum("ij,ijk,ik->i", feats, gram_inv[folds.fold_of], feats)
    return {"h": h, "leverage": leverage}


def _fit_condcov(roles: dict, spec: sc.ScoreSpec, folds: _Folds):
    mean_y, mean_z = folds.predict(folds.everyone, (*roles["y"], "y"), (*roles["z"], "z"))
    return {"mean_y": mean_y, "mean_z": mean_z}


_FITTERS = {
    sc.MEAN_EXCHANGEABILITY: _fit_me,
    sc.IV_COMPATIBILITY: _fit_iv,
    sc.PARAMETRIC_SPEC: _fit_parametric,
    sc.CONDITIONAL_COVARIANCE: _fit_condcov,
}


def crossfit(data: Dataset, spec: sc.ScoreSpec, K: int, rng: RngStream) -> CrossFitResult:
    """Out-of-fold pseudo-outcomes g(O_i; eta-hat without fold k(i)) for the given score.

    In oracle mode the analytic nuisances are evaluated at X and no
    models are fit.  Both modes check the score's columns first, refuse
    non-finite pseudo-outcomes and report the score's clip diagnostics.
    """
    roles = spec.check_columns(data)
    x = data.covariate_matrix(spec.covariates)
    if spec.nuisance_mode == "oracle":
        source, fold_of, eta, diagnostics = "the oracle", None, spec.oracle(x), {}
    else:
        folds = _Folds(with_intercept(x), make_folds(data.n, K, rng), K)
        eta = _FITTERS[spec.kind](roles, spec, folds)
        source, fold_of = "cross-fitting", folds.fold_of
        diagnostics = {"K": K, "nonconverged_fits": folds.nonconverged}
    pseudo = sc.evaluate_score(data, eta, spec)
    if not np.isfinite(pseudo).all():
        raise InvalidInput(f"{source} produced non-finite pseudo-outcomes")
    return CrossFitResult(
        pseudo_outcomes=pseudo,
        fold_of=fold_of,
        nuisances=eta,
        covariates=x,
        diagnostics={**diagnostics, **sc.clip_diagnostics(eta, spec)},
    )
