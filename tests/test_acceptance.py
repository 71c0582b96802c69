"""Acceptance suite: desk-scale rejection-rate reproductions plus the
property-based checks.  Each criterion prints a single PASS/FAIL line.

The Monte Carlo criteria share a cache of grids, one per (panel, n,
scenario, nuisance), each run on four worker processes, so the whole file
stays within a few minutes on four cores.
"""

import numpy as np

from gptest.basis import BasisSpec, build_design
from gptest.dgp import (
    PanelAConfig,
    PanelBConfig,
    expit,
    gen_panel_a,
    gen_panel_b,
    oracle_nuisances_panel_a,
    oracle_nuisances_panel_b,
)
from gptest.harness import SimGridConfig, run_grid
from gptest.numerics import RngStream, chisq_mixture_sf, sym_eigen
from gptest.scores import ScoreSpec, orthogonality_diagnostic
from mc_reference import weighted_chisq_pvalue

R = 500
ALPHA = 0.05

# every method and J* the criteria read, by panel; a grid's rows do not
# depend on which others share it, since its methods share each dataset
_METHODS = {"A": ("gp_standardized", "wald"), "B": ("gp_standardized",)}
_J_STARS = {"A": (3,), "B": (5,)}
_GRIDS = {}


def cell(panel, n, scenario, method, j_star, nuisance="crossfit"):
    key = (panel, n, scenario, nuisance)
    if key not in _GRIDS:
        cfg = SimGridConfig(
            panel=panel,
            sample_sizes=(n,),
            scenarios=(scenario,),
            j_star_list=_J_STARS[panel],
            methods=_METHODS[panel],
            replications=R,
            nuisance_mode=nuisance,
            threads=4,
        )
        _GRIDS[key] = run_grid(cfg).rows
    (row,) = [r for r in _GRIDS[key] if r["method"] == method and r["j_star"] == j_star]
    return row


def pooled_se(a, b):
    return float(np.sqrt(a["mc_stderr"] ** 2 + b["mc_stderr"] ** 2))


def test_criterion_1_panel_a_type_i_error(criterion_report):
    row = cell("A", 1000, (0.0, 0.0), "gp_standardized", 3)
    rate = row["rejection_rate"]
    ok = 0.03 <= rate <= 0.10
    criterion_report(1, ok, f"Panel A null rejection rate {rate:.3f} (band [0.03, 0.10])")
    assert ok


def test_criterion_2_panel_a_oracle_type_i_error(criterion_report):
    row = cell("A", 1000, (0.0, 0.0), "gp_standardized", 3, nuisance="oracle")
    rate = row["rejection_rate"]
    ok = 0.035 <= rate <= 0.07
    criterion_report(2, ok, f"Panel A oracle null rate {rate:.3f} (band [0.035, 0.07])")
    assert ok


def test_criterion_3_nonlinear_power_gap(criterion_report):
    gp = cell("A", 1000, (0.2, 0.0), "gp_standardized", 3)
    wald = cell("A", 1000, (0.2, 0.0), "wald", 3)
    ok = gp["rejection_rate"] >= 0.55 and wald["rejection_rate"] <= 0.12
    criterion_report(
        3, ok,
        f"nonlinear alternative: projection power {gp['rejection_rate']:.3f} "
        f"(need >= 0.55), Wald power {wald['rejection_rate']:.3f} (need <= 0.12)",
    )
    assert ok


def test_criterion_4_power_monotone_in_n(criterion_report):
    rows = [cell("A", n, (0.2, 0.0), "gp_standardized", 3) for n in (250, 500, 1000)]
    rates = [r["rejection_rate"] for r in rows]
    ok = all(
        rates[i] <= rates[i + 1] + pooled_se(rows[i], rows[i + 1])
        for i in range(2)
    )
    criterion_report(
        4, ok,
        "power vs n: " + " -> ".join(f"{r:.3f}" for r in rates)
        + " (nondecreasing within one pooled stderr)",
    )
    assert ok


def test_criterion_5_panel_b_type_i_error(criterion_report):
    row = cell("B", 2000, (0.0, 0.0), "gp_standardized", 5)
    rate = row["rejection_rate"]
    ok = 0.03 <= rate <= 0.10
    criterion_report(5, ok, f"Panel B null rejection rate {rate:.3f} (band [0.03, 0.10])")
    assert ok


def test_criterion_6_panel_b_power_ordering(criterion_report):
    scens = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3), (0.5, 0.5)]
    rows = [cell("B", 3000, s, "gp_standardized", 5) for s in scens]
    r1, r2, r3, r4 = (r["rejection_rate"] for r in rows)
    ok = (
        r4 >= r3 - pooled_se(rows[3], rows[2])
        and r3 >= r2 - pooled_se(rows[2], rows[1])
        and r2 >= 5.0 * r1 - float(
            np.sqrt(rows[1]["mc_stderr"] ** 2 + 25.0 * rows[0]["mc_stderr"] ** 2)
        )
    )
    criterion_report(
        6, ok,
        f"Panel B rates I..IV: {r1:.3f}, {r2:.3f}, {r3:.3f}, {r4:.3f} "
        "(IV >= III >= II >= 5*I within one pooled stderr)",
    )
    assert ok


def test_criterion_7_calibration_oracle(criterion_report):
    # the Monte Carlo helper, then the shipped exact tail against it
    draws = 100_000
    worst_abs = worst_exact = 0.0
    for tau, q in ((1.0, 3.841458820694124), (2.5, 2.5 * 3.841458820694124)):
        p = weighted_chisq_pvalue([tau], q, draws, RngStream(0))
        worst_abs = max(worst_abs, abs(p - 0.05))
        worst_exact = max(worst_exact, abs(chisq_mixture_sf(np.array([tau]), q) - 0.05))
    worst_pair = worst_z = 0.0
    for taus, s in (([0.5, 1.0, 2.0], 6.0), (list(range(1, 11)), 80.0)):
        pa = weighted_chisq_pvalue(taus, s, draws, RngStream(101))
        pb = weighted_chisq_pvalue(taus, s, draws, RngStream(202))
        worst_pair = max(worst_pair, abs(pa - pb))
        exact = chisq_mixture_sf(np.array(taus, dtype=float), s)
        se = np.sqrt(exact * (1.0 - exact) / draws)
        worst_z = max(worst_z, abs(pa - exact) / se, abs(pb - exact) / se)
    ok = worst_abs < 0.004 and worst_pair < 0.006 and worst_exact < 1e-12 and worst_z <= 4.0
    criterion_report(
        7, ok,
        f"calibration: single-weight error {worst_abs:.4f} (< 0.004), "
        f"two-seed gap {worst_pair:.4f} (< 0.006); chisq_mixture_sf single-weight "
        f"error {worst_exact:.1e} (< 1e-12), worst |z| vs Monte Carlo {worst_z:.2f} (<= 4)",
    )
    assert ok


def test_criterion_8_trace_frobenius_linkage(criterion_report):
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 20))
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        taus, _ = sym_eigen(a)
        tr, fr2 = float(np.trace(a)), float(np.linalg.norm(a) ** 2)
        scale = max(1.0, abs(tr), fr2)
        worst = max(
            worst,
            abs(tr - taus.sum()) / scale,
            abs(fr2 - np.sum(taus ** 2)) / scale,
        )
    ok = worst < 1e-9
    criterion_report(8, ok, f"trace/Frobenius vs eigenvalue sums: worst relative error {worst:.2e}")
    assert ok


def _logit(p):
    return np.log(p / (1.0 - p))


def _diagnostic_summary(data, spec, truth, pert, plug_fn):
    grid = (-0.2, -0.1, 0.0, 0.1, 0.2)
    d = orthogonality_diagnostic(data, spec, truth, pert, grid)
    c_small = d[3] + d[1] - 2 * d[2]
    c_large = d[4] + d[0] - 2 * d[2]
    ratio = abs(c_large) / abs(c_small)
    deriv = abs(d[3] - d[1]) / 0.2
    d_plug = orthogonality_diagnostic(data, spec, truth, pert, grid, score_fn=plug_fn)
    deriv_plug = abs(d_plug[3] - d_plug[1]) / 0.2
    return ratio, deriv, deriv_plug


def test_criterion_9_orthogonality_diagnostic(criterion_report):
    cfg_a = PanelAConfig(n=100_000, seed=21)
    data_a = gen_panel_a(cfg_a)
    truth_a = oracle_nuisances_panel_a(cfg_a, a=0)(data_a.covariate_matrix(("X1", "X2")))
    pert_a = {
        "pi_s1": expit(_logit(truth_a["pi_s1"]) + 0.3),
        "pi_s0": expit(_logit(truth_a["pi_s0"]) + 0.3),
        "mu_s1": truth_a["mu_s1"] + 0.3,
        "mu_s0": truth_a["mu_s0"],
    }

    def plug_me(data, bundle, spec):
        return bundle["mu_s1"] - bundle["mu_s0"]

    ratio_me, d_me, dp_me = _diagnostic_summary(
        data_a, ScoreSpec(kind="mean_exchangeability", arm=0), truth_a, pert_a, plug_me
    )

    cfg_b = PanelBConfig(n=100_000, seed=22)
    data_b = gen_panel_b(cfg_b)
    truth_b = oracle_nuisances_panel_b(cfg_b)(data_b.covariate_matrix(("X1", "X2")))
    pert_b = dict(truth_b)
    pert_b["pz1"] = expit(_logit(truth_b["pz1"]) + 0.3)
    pert_b["mu_y1_1"] = truth_b["mu_y1_1"] + 0.3
    pert_b["mu_d1_1"] = truth_b["mu_d1_1"] - 0.1

    def plug_iv(data, bundle, spec):
        out = 0.0
        for j, sign in ((1, 1.0), (2, -1.0)):
            num = bundle[f"mu_y{j}_1"] - bundle[f"mu_y{j}_0"]
            den = bundle[f"mu_d{j}_1"] - bundle[f"mu_d{j}_0"]
            den = np.where(np.abs(den) < 0.05, np.sign(den) * 0.05 + (den == 0) * 0.05, den)
            out = out + sign * num / den
        return out

    ratio_iv, d_iv, dp_iv = _diagnostic_summary(
        data_b, ScoreSpec(kind="iv_compatibility"), truth_b, pert_b, plug_iv
    )

    ok = (
        2.5 <= ratio_me <= 6.5 and 2.5 <= ratio_iv <= 6.5
        and dp_me > 10.0 * d_me and dp_iv > 10.0 * d_iv
    )
    criterion_report(
        9, ok,
        f"orthogonality: curvature ratios {ratio_me:.2f}/{ratio_iv:.2f} "
        f"(band [2.5, 6.5]); derivative gaps {dp_me / max(d_me, 1e-300):.0f}x/"
        f"{dp_iv / max(d_iv, 1e-300):.0f}x (need >= 10x)",
    )
    assert ok


def test_criterion_10_basis_orthonormality(criterion_report):
    # both families through the design the replications build, J* = 11 on
    # the 64 Gauss-Legendre nodes
    nodes, weights = np.polynomial.legendre.leggauss(64)
    worst = 0.0
    for family in ("legendre", "fourier"):
        spec = BasisSpec(family=family, j_star=11, ranges=((-1.0, 1.0),))
        values = build_design(nodes, spec).values
        for j in range(11):
            for k in range(11):
                inner = 0.5 * np.sum(weights * values[:, j] * values[:, k])
                worst = max(worst, abs(inner - (1.0 if j == k else 0.0)))
    ok = worst < 1e-10
    criterion_report(10, ok, f"basis Gram deviation {worst:.2e} for j,k <= 10, both families")
    assert ok


def test_criterion_11_invariance_suite(criterion_report):
    from gptest.engine import TestConfig as EngineConfig
    from gptest.engine import gp_test_standardized, gp_test_unstandardized
    from gptest.basis import DesignMatrix

    rng = np.random.default_rng(400)
    b = rng.standard_normal((200, 4))
    g = rng.standard_normal(200)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = gp_test_unstandardized(DesignMatrix(b), g, EngineConfig(seed=1))
    rot = gp_test_unstandardized(DesignMatrix(b @ q), g, EngineConfig(seed=1))
    rot_err = abs(base.statistic - rot.statistic) / max(1.0, abs(base.statistic))

    t_base = gp_test_standardized(DesignMatrix(b), g, EngineConfig()).t_hat
    t_scaled = gp_test_standardized(DesignMatrix(b), 13.7 * g, EngineConfig()).t_hat
    scale_err = abs(t_base - t_scaled) / max(1.0, abs(t_base))

    grid_kw = dict(
        panel="A", sample_sizes=(250,), scenarios=((0.0, 0.0),), j_star_list=(3,),
        methods=("gp_standardized",), replications=8, base_seed=5,
        nuisance_mode="oracle",
    )
    serial = [r["rejection_rate"] for r in run_grid(SimGridConfig(**grid_kw)).rows]
    parallel = [
        r["rejection_rate"]
        for r in run_grid(SimGridConfig(threads=2, **grid_kw)).rows
    ]
    threads_ok = serial == parallel

    ok = rot_err <= 1e-9 and scale_err <= 1e-9 and threads_ok
    criterion_report(
        11, ok,
        f"invariances: rotation {rot_err:.1e}, scale {scale_err:.1e} (<= 1e-9), "
        f"threads determinism {'exact' if threads_ok else 'BROKEN'}",
    )
    assert ok


def test_criterion_12_eigen_reconstruction(criterion_report):
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 51))
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        values, vectors = sym_eigen(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        recon = vectors @ (values[:, None] * vectors.T)
        worst = max(
            worst,
            float(np.linalg.norm(recon - a)) / scale,
            float(np.linalg.norm(vectors.T @ vectors - np.eye(dim))),
        )
    ok = worst < 1e-10
    criterion_report(12, ok, f"eigen reconstruction/orthogonality worst error {worst:.2e} on 1000 matrices")
    assert ok
