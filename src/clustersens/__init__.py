"""Sensitivity analysis of treatment effects in clustered observational data.

Quantifies how robust mixed-model treatment-effect estimates, and pooled
meta-analytic effects, are to unmeasured confounding via bias factors,
minimal bias factors, and tail probabilities of the random-effects law.
"""

from .dataset import (
    ClusteredDataset,
    PositivityReport,
    PositivityStratum,
    load_csv,
    positivity_report,
    write_csv,
)
from .errors import (
    ClusterSensError,
    ConvergenceError,
    DomainError,
    SchemaError,
    SeparationError,
    SingularDesignError,
    ValidationError,
    VarianceDominationError,
)
from .meta import (
    BiasDistribution,
    CommonBiasResult,
    MetaFit,
    PqSpec,
    StudyEffect,
    explains_away_meta,
    load_studies_csv,
    minimal_common_bias,
    p_of_q,
    pool,
)
from .mixed_models import (
    MixedModelFit,
    fit_from_json,
    fit_glmm_logit,
    fit_lmm,
    fit_lmm_batch,
    fit_to_json,
    icc_logistic,
)
from .sensitivity import (
    AdjustedEffect,
    BiasFactor,
    ConfoundedEffect,
    MinimalBiasFactor,
    SensitivitySpec,
    UnmeasuredSpec,
    adjust,
    bias_factor,
    confounded_effect,
    contour_grid,
    effect_from_interval,
    explains_away,
    marginal_logit_approx,
    marginal_logit_exact,
    minimal_bias_factor,
)
from .simulation import (
    MechanismParams,
    MetaEffectDistribution,
    ScenarioConfig,
    SimMetrics,
    generate,
    load_scenario,
    nu_from_icc,
    run_scenario,
    true_conditional_means,
)

__version__ = "0.1.0"
