"""Finite-horizon continuous-time Markov decision processes.

Model tables and drift certificates (`model`), the backward optimality-
equation solver (`dp`), exact thinning simulation with statistical identity
checks (`sim`), a dense two-phase simplex (`lp_core`), the occupation-measure
LP solved by column generation over deterministic Markov policies, with its
Lagrangian dual (`occupation`), and a CLI (`cli`).
"""

from .model import (CtmdpModel, DriftCertificate, MarkovPolicy, Violation,
                    ModelFormatError, validate_model, certify_drift,
                    auto_certificate, make_birth_death,
                    birth_death_certificate, cost_bound_from_tables,
                    linear_cost, load_model, model_from_dict, model_to_dict)
from .dp import (TimeGrid, ValueGrid, GridStabilityError, NumericsError,
                 solve_backward, evaluate_policy, check_value_envelope,
                 truncation_error_bound)
from .sim import (Trajectory, McEstimate, simulate, mc_value,
                  check_forward_kolmogorov, check_weight_bound)
from .lp_core import LpProblem, LpSolution, solve_lp
from .occupation import (OccupationGrid, DualCertificate,
                         occupation_of_policy, check_characterization,
                         build_constrained_lp, solve_constrained,
                         lagrangian_dual, disintegrate)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
