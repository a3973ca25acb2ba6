"""Exact arithmetic for deformed random Young diagrams: partitions and
their anisotropic profiles, the Jack basis at rational parameter, lattice
path formulas for expectations and fluctuations, staircase limit shapes,
and reproducible samplers."""

from .diagrams import (AnisotropicDiagram, DiscreteMeasure, StaircaseShape,
                       diagram_booleans, observable_family, observables,
                       profile, rescale_observable, transition_measure)
from .ensembles import (AsymptoticRegime, CharacterMeasure,
                        ConditionalJackThoma, JackMeasure, JackPlancherel,
                        JackSchurWeyl, JackThoma, PoissonScaled, ThomaPoint,
                        character_measure, conditional_cumulant,
                        ensemble_from_config, extended_character, mass,
                        poisson_expectation, regime_sequences,
                        thoma_specialization, totally_positive_spec)
from .exactnum import SqrtExt, format_rational, parse_rational
from .jack import (PowerSumPoly, Specialization, duality_character_check,
                   hall_inner, irreducible_character, jack_basis,
                   jack_polynomial, normalized_character, ns_apply,
                   omega_dual, theta_coefficient)
from .partitions import Partition, falling_factorial, j_alpha, partitions_of
from .paths import (Excursion, RibbonPath, afp_cov, afp_mean, clt_cov,
                    clt_mean, count_lukasiewicz, depoissonized_expectation,
                    enumerate_lukasiewicz, enumerate_motzkin,
                    finite_cumulant_s, finite_expectation, finite_moment_s,
                    limit_moment, limit_moment_poly, moment_duality_check,
                    set_partitions)
from .limitshape import (BesselZeroList, JacobiOperator, bessel_j,
                         bessel_order_zeros, functional_equation_check,
                         jacobi_moment, jacobi_moment_symbolic,
                         moment_consistency, plancherel_limit_shape,
                         plancherel_operator, staircase_transition_atoms)
from .polynomials import Poly
from .rng import SplitMix64
from .sampler import (SampleRun, empirical_stats, exact_sample,
                      growth_distribution, growth_sample, growth_transitions,
                      run_sampler, scaled_profile, validate_growth)

__version__ = "0.1.0"
