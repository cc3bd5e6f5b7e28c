"""Finite exponential sums, exact identities, and empirical growth estimates.

The package evaluates weighted sums sum m^{-sigma} e^{if(m)} for the three
phases t*ln(1+t/m), t*ln(1+m/t), t*ln(m), verifies the exact identities tying
them together, and fits growth exponents against log-spaced t grids.
"""

from .asymptotics import (chi_asymptotic, chi_exact, e_term, eta_params,
                          fl_identity_residual, fr_identity_residual,
                          functional_equation_residual, zeta_reference)
from .doublesums import (Strategy, f_sum, g_sum, grid_double_sum,
                         lemma32_identity_residual, m_set_contains,
                         relation_36_check, s4_a_sum, s4_b_sum, s5_1_sum,
                         s5_2_sum, s5_decomposition_residual, tail_double_sum)
from .estlab import (FitReport, SampleSeries, Verdict, fit_growth_exponent,
                     gh_bound_check, j2_integral, j_integral, log_grid)
from .kernel import (log_gamma_complex, oracle_recompute, reduce_deterministic,
                     sum_array_deterministic)
from .phases import nsum_power, phase_eval, power_prefix, single_sum
from .specs import ComplexScalar, PhaseKind, SumSpec
from .suites import (ClaimRecord, ExperimentConfig, RefusedOptionError,
                     UnknownSuiteError, registered_suites, run_suite)

__version__ = "0.1.0"
