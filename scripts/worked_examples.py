#!/usr/bin/env python3
"""Two worked robustness analyses on published summary results.

1. A single cohort study reporting a mean-difference effect of 5.49
   (95% CI 0.75 to 10.23): how strong must an unmeasured confounder be to
   move the interval to the null?
2. A 19-study meta-analysis pooling to log(1.33) with between-study
   variance 0.08: what constant per-study bias reduces the chance of a
   log(1.2) effect below 40%?
"""

import math

from clustersens import (
    BiasDistribution,
    MetaFit,
    PqSpec,
    SensitivitySpec,
    adjust,
    bias_factor,
    effect_from_interval,
    explains_away,
    explains_away_meta,
    minimal_bias_factor,
    minimal_common_bias,
    p_of_q,
)
from clustersens.sensitivity import CONTINUOUS_OUTCOME


def single_study_example():
    effect = effect_from_interval(5.49, 0.75, 10.23)
    minimal = minimal_bias_factor(effect)
    print("single study: estimate 5.49 (0.75 to 10.23)")
    print(f"  minimal bias factor: {minimal.value:.4g} ({minimal.direction} direction)")

    spec = SensitivitySpec(CONTINUOUS_OUTCOME, theta=3.0, treated_mean=0.25, control_mean=0.0)
    b = bias_factor(spec)
    adjusted = adjust(effect, b)
    print(f"  confounder with effect 3 and prevalence difference 0.25 -> bias {b.value:.4g}")
    print(f"  adjusted effect: {adjusted.estimate:.4g} ({adjusted.lb:.4g} to {adjusted.ub:.4g})")
    print(f"  explains away: {explains_away(effect, spec)}")


def meta_analysis_example():
    fit = MetaFit(mu_hat=math.log(1.33), v_hat=0.08, se_mu=0.05, q_statistic=40.0, k=19)
    spec = PqSpec(q=math.log(1.2), r=0.4)
    result = minimal_common_bias(fit, spec)
    print("meta-analysis: pooled log-RR log(1.33), between-study variance 0.08")
    print(f"  minimal common constant bias factor: {result.value:.4g}")
    p = p_of_q(fit, BiasDistribution(result.value, 0.0), spec.q)
    print(f"  p(q) at that bias: {p:.6g} (threshold r = {spec.r})")
    print(f"  explains away at the boundary: {explains_away_meta(fit, BiasDistribution(result.value, 0.0), spec)}")


if __name__ == "__main__":
    single_study_example()
    print()
    meta_analysis_example()
