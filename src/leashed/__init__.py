"""Parameter-free online linear optimization with adaptive constraints.

A coin-betting learner driven by an online Newton step over betting
fractions, wrapped by reductions that remove the need for gradient-range
knowledge: truncation fabricates nondecreasing magnitude hints, an adaptive
barrier leashes the iterates so truncation stays affordable, and a
one-dimensional lift extends everything to arbitrary dimension with a
unit-ball direction learner. Closed-form regret guarantees ship as
executable evaluators, together with adversarial stream generators and an
acceptance suite that checks every guarantee numerically.
"""

from .adversaries import (
    KINDS,
    AdversaryConfig,
    StreamAdversary,
    best_betting_fraction,
    comparator_sweep,
    quantize_magnitude,
)
from .bounds import (
    BoundParams,
    StreamStats,
    bettor_bound,
    conjugate_bound,
    fixed_diameter_bound,
    full_stack_bound,
    hintless_bound,
)
from .coin_betting import (
    ONS_STEP,
    CoinBettor,
    ons_inner_regret,
    ons_regret_bound,
)
from .core import (
    GameDivergence,
    RegretLedger,
    RoundRecord,
    dual_norm,
    holder,
    run_game,
)
from .reductions import (
    DimFreeLift,
    Leashed,
    Truncation,
    fixed_diameter,
    leash_project,
    surrogate_grad,
    surrogate_loss,
    truncate,
)
from .stacks import ALGOS, build_learner, stack_bound
from .unit_ball import AdaGradBall, ball_regret_bound, project_unit_ball
from .acceptance import CRITERIA, SUITES, CriterionResult, format_result

__version__ = "0.1.0"

__all__ = [
    "ALGOS",
    "AdaGradBall",
    "AdversaryConfig",
    "BoundParams",
    "CRITERIA",
    "CoinBettor",
    "CriterionResult",
    "DimFreeLift",
    "GameDivergence",
    "KINDS",
    "Leashed",
    "ONS_STEP",
    "RegretLedger",
    "RoundRecord",
    "SUITES",
    "StreamAdversary",
    "StreamStats",
    "Truncation",
    "ball_regret_bound",
    "best_betting_fraction",
    "bettor_bound",
    "build_learner",
    "comparator_sweep",
    "conjugate_bound",
    "dual_norm",
    "fixed_diameter",
    "fixed_diameter_bound",
    "format_result",
    "full_stack_bound",
    "hintless_bound",
    "holder",
    "leash_project",
    "ons_inner_regret",
    "ons_regret_bound",
    "project_unit_ball",
    "quantize_magnitude",
    "run_game",
    "stack_bound",
    "surrogate_grad",
    "surrogate_loss",
    "truncate",
    "__version__",
]
