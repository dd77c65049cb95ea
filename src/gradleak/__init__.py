"""gradleak: a laboratory for label-leakage attacks on shared
projection-layer gradients.

Simulate ground-truthed weight updates, recover the contributing label set
from the update alone, compare against prior analytic baselines, measure
gradient-compression defenses, and reconstruct full label sequences by
restricted gradient matching.
"""

from .baselines import NotSingleSampleError, idlg_single, min_column_attack
from .defense import DefenseSpec, apply_defense, grad_drop, sign_sgd
from .gm import (GMProblem, GMResult, gm_gradients, gm_objective, make_problem, reconstruct,
                 regularizer)
from .linalg import (SvdConvergenceError, SvdResult, as_matrix, default_rank_tol,
                     numeric_rank, svd)
from .metrics import SetScore, length_error, set_score, wer
from .rlg import (DegenerateUpdateError, LabelSetPrediction, LpPivotLimitError,
                  LpSingularBasisError, RankAssumptionError, RlgConfig, extract_q,
                  lp_feasible, lp_separator, rlg_attack, screen)
from .simulator import (GradientCase, Scenario, ToyDecoder, initial_state,
                        logit_grad, sample_latents, simulate_case)

__version__ = "0.1.0"
