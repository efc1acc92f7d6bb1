"""Linear clobber: engine, standard-form rewriter, strategy, and verifier."""

from .core import (
    BLACK, WHITE, BudgetExceeded, EmptyPosition, Game, IllegalMove, Move,
    ParseError,
    add, alternating, apply_move, canonical, clobbers, expand_shorthand, flip,
    format_game, legal_moves, negate, opponent, parse_position,
)
from .asf import normalize, normalize_trace, potential, rule_table
from .oracle import (
    DEFAULT_MAX_STONES, OutcomeClass, SolveCache,
    equivalent, outcome, wins_moving_first,
)
from .taxonomy import (
    SClass, classify_part, count_vector, enumerate_s_games,
    in_K, in_LL, in_Q, in_S0, in_U, in_left_target, k_parts, part_slot,
    s_class,
)
from .strategy import (
    NotInScope, Ruleset, StrategyGap, StrategyMove, choose_left_move,
)
from .verifier import (
    TheoremReport, VerifyStats, check_asf_soundness, check_conjecture,
    check_theorem_left, check_theorem_right, check_u_closure, verify_range,
    verify_start,
)

__version__ = "0.1.0"
