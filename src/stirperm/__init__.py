"""stirperm: exact enumeration of pattern-avoiding Stirling permutations.

The package cross-validates three computation paths for the joint
plateau/descent/ascent statistics of pattern-restricted Stirling
permutations: exhaustive enumeration, closed-form counting formulas, and
truncated-series solutions of the defining functional equations.  The
bijections to ternary trees, ordered trees and favorite-child trees are
executable with inverses and statistic transport.
"""

from .errors import (
    BadPattern,
    CompositionError,
    DivisibilityError,
    InvalidPair,
    LimitExceeded,
    NonPolynomialResult,
    NotAvoider,
    StirpermError,
    UnknownEquation,
)
from .polynomials import Polynomial
from .words import (
    StatVector,
    contains,
    count_adjacent_122,
    count_occurrences,
    first_occurrences,
    format_word,
    is_stirling,
    parse_word,
    stats,
    stirling_order,
)
from .generation import (
    distribution,
    double_factorial_odd,
    generate_all,
    generate_avoiders,
    joint_plat_122,
    second_order_eulerian,
)
from .formulas import (
    FORMULAS,
    ascent_poly_132,
    binomial,
    count_213_by_stats,
    count_avoid_123,
    count_avoid_132,
    count_avoid_213,
    count_avoid_213_1233,
    descents_132,
    fibonacci,
    plateau_count_123,
    plateau_count_213,
    plateau_poly_123,
    plateau_poly_213,
)
from .series import (
    TruncatedSeries,
    catalan_series,
    chain_pattern,
    compose,
    pair_series,
    prepend1,
    prepend11,
    rational_series,
    recurrence_123,
    recurrence_132,
    series_123,
    series_132,
    series_213,
    solve_123,
    solve_132,
    solve_213,
    solve_R,
)
from .trees import (
    FCOrderedTree,
    OrderedTree,
    TernaryTree,
    fc_trees,
    ordered_trees,
    ternary_trees,
)
from .bijections import (
    apairs,
    avoiding_permutations,
    composition_of,
    fc_involution,
    from_fc_tree,
    involution_pair,
    left_path_labeling,
    lr_minima,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    rho,
    rho_inverse,
    to_fc_tree,
    verify_fc,
    verify_phi,
    verify_psi,
    verify_rho,
)
from .verification import CheckResult, run_checks

__version__ = "0.1.0"
