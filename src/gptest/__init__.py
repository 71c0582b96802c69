"""Growing-basis projection tests for conditional moment restrictions."""

from .basis import BasisSpec, DesignMatrix, build_design
from .engine import (
    GP_STANDARDIZED,
    GP_UNSTANDARDIZED,
    WALD_PROJECTION,
    TestConfig,
    TestResult,
    gp_test_standardized,
    gp_test_unstandardized,
    run_gp_test,
    run_gp_tests,
    wald_projection_test,
)
from .dgp import (
    Dataset,
    PanelAConfig,
    PanelBConfig,
    gen_panel_a,
    gen_panel_b,
    oracle_nuisances_panel_a,
    oracle_nuisances_panel_b,
    read_csv,
    sample_panel_a,
    sample_panel_b,
    write_csv,
)
from .harness import RejectionTable, SimGridConfig, run_grid
from .nuisance import crossfit, make_folds
from .numerics import RngStream
from .scores import ScoreSpec, evaluate_score, orthogonality_diagnostic

__version__ = "0.1.0"

__all__ = [
    "BasisSpec", "DesignMatrix", "build_design",
    "GP_STANDARDIZED", "GP_UNSTANDARDIZED", "WALD_PROJECTION",
    "TestConfig", "TestResult",
    "gp_test_standardized", "gp_test_unstandardized", "run_gp_test",
    "run_gp_tests", "wald_projection_test",
    "Dataset", "PanelAConfig", "PanelBConfig",
    "gen_panel_a", "gen_panel_b",
    "oracle_nuisances_panel_a", "oracle_nuisances_panel_b",
    "sample_panel_a", "sample_panel_b",
    "read_csv", "write_csv",
    "RejectionTable", "SimGridConfig", "run_grid",
    "crossfit", "make_folds",
    "RngStream",
    "ScoreSpec", "evaluate_score", "orthogonality_diagnostic",
]
