"""confbc: rate regions for two-receiver broadcast channels whose
decoders can confer over rate-limited links.

The package is organized bottom-up:

  info_core        exact pmf/entropy/mutual-information arithmetic
  gridding         simplex grids with an evaluation budget
  channels         channel objects, JSON schema, worked examples
  regions          polytopes, supports, envelopes, Fourier-Motzkin
  dm_bounds        discrete inner/outer bounds and exact special cases
  gaussian_bounds  Gaussian row functions, exact cases, gap certificates
  suites           seeded verification suites behind `confbc verify`
  cli              the `confbc` entry point
"""

__version__ = "0.1.0"

from .errors import (ConfbcError, ChannelFormatError, InapplicableBoundError,
                     GridTooLargeError)
from .info_core import (Pmf, JointPmf, entropy, conditional_entropy,
                        mutual_information, compose_joint, binary_entropy,
                        xlog2x)
from .gridding import (simplex_grid, simplex_grid_chunks, simplex_grid_size,
                       EVAL_BUDGET)
from .channels import (DmBroadcastChannel, GaussianBc, load_channel,
                       dump_channel, example_channel, is_semi_deterministic,
                       more_capable_evidence, kappa)
from .regions import (ConstraintPolytope, RegionEnvelope, LinearSystem,
                      enumerate_vertices, batch_support, support_of_system,
                      envelope_dominates, project_r2_zero, fm_eliminate,
                      fan_2d, octant_fibonacci, default_dirs_2d,
                      default_dirs_3d, CANONICAL_DIRS_2D, CANONICAL_DIRS_3D,
                      write_support_csv, write_boundary_csv,
                      envelope_boundary_2d)
from .dm_bounds import (AuxFactorization, OuterAux, factorization_terms,
                        random_factorization, t4_substitution,
                        inner1_polytope, inner1_alpha_polytope, alpha1_star,
                        inner2_polytope, inner2_alpha_polytope, alpha2_star,
                        appendixB_system, outer_polytope, theorem4_polytope,
                        theorem5_polytope, primitive_relay_rate)
from .gaussian_bounds import (psi, outer_polytope_g, capacity_t7_polytope,
                              capacity_t8_polytope, approx_t9_polytope,
                              approx_t10_polytope, df_inner_polytope,
                              gap_bound_t11, gap_certificate, gap_certificates)
from .suites import SuiteReport, run_suite, suite_names
