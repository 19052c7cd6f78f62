"""Perturbed Arnold cat map toolkit.

Library + CLI for the perturbed hyperbolic torus map S_eps = S0 + eps f:
perturbative conjugation and SRB expansion rates, exact eps-order cumulants
of the phase-space contraction rate, the perturbative large-deviation
functional and order-by-order fluctuation-relation checks, deterministic
Monte Carlo experiments, and Markov-partition symbolic coding for the
unperturbed map.
"""

from .torus import (CatSystem, HarmonicForce, Harmonic, TorusPoint,
                    time_reversal)
from .trig import TrigPoly, geometric_sum
from .conjugation import (ConjugationSeries, ExpansionRateSeries,
                          RateSeries, conjugacy_residual,
                          conjugation_order_k, expansion_rate_series)
from .cumulants import (CorrelationEngine, CumulantTable, ObservableSeries,
                        TransportMatrix, build_table, sigma_series,
                        transport_matrix)
from .fluctuation import (FTReport, ZetaSeries, asymmetry_coefficients,
                          beta_star, check_rel1, check_rel3, ft_report,
                          lambda_from_cumulants, observable_mean_expansion,
                          zeta, zeta_closed_form, zeta_ft_imposed)
from .simulate import (FitResult, RatioCurve, RunStats, SimConfig,
                       SlopeResult, build_curve, fit_models,
                       measure_asymmetry, simulate, slope_and_A)
from .partition import (CatCoder, MarkovPartition, MarkovReport, Rectangle,
                        SymbolWindow, TransitionMatrix, birkhoff_frequencies,
                        build_cat_partition, partition_from_json,
                        partition_to_json, transition_matrix, verify_markov)

__version__ = "0.1.0"
