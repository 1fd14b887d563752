"""Analytical companion to the protocols: the paper's closed-form bounds,
Chernoff tail calculators for the committee properties S1-S4, the word
laws of the Table 1 protocols (:mod:`repro.analysis.complexity`), and the
Monte-Carlo statistics helpers the benchmark harness uses.
"""

from repro.analysis.bounds import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    committee_property_bounds,
    common_values_fraction_bound,
    common_values_committee_bound,
    shared_coin_success_bound,
    whp_coin_success_bound,
)
from repro.analysis.complexity import expected_rounds_bound, fit_loglog_slope
from repro.analysis.stats import (
    BernoulliEstimate,
    estimate_probability,
    wilson_interval,
)

__all__ = [
    "BernoulliEstimate",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "committee_property_bounds",
    "common_values_committee_bound",
    "common_values_fraction_bound",
    "estimate_probability",
    "expected_rounds_bound",
    "fit_loglog_slope",
    "shared_coin_success_bound",
    "whp_coin_success_bound",
    "wilson_interval",
]
