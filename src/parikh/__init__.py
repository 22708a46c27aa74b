"""Analysis toolkit for commutative (letter-counting) grammars.

Grammars are read and written in a small line-based text format; runs
and cycles are multisets of transitions validated by an Euler-style
balance-plus-reachability check; membership, inclusion, equivalence,
disjointness, and universality are decided exactly at desk scale; and
the generators reproduce the standard hard-instance families.
"""

from .bundles import BundlesResult, regular_bundles, two_letter_bundles
from .decomposition import CycleTerm, Decomposition, decompose_run, validate_decomposition
from .grammar import (
    Grammar,
    GrammarError,
    GrammarParseError,
    Transition,
    classify,
    difference_grammar,
    grammar_from_rules,
    negate_grammar,
    normalize,
    parse_grammar,
    serialize_grammar,
    trim,
)
from .intlinalg import (
    CosetIndex,
    PeriodLattice,
    cramer_solve,
    determinant,
    find_integer_dependency,
    hadamard_bound,
    is_linearly_independent,
    maximal_independent_subsets,
    nonneg_integer_solve,
    reduce_multiplicities,
)
from .membership import (
    GeneralMembership,
    MembershipResult,
    OracleLanguage,
    RegularMembership,
    Witness,
    member_general,
    member_regular,
    oracle_language,
)
from .runs import (
    BaseRunBound,
    DerivationTree,
    RunStats,
    SearchCapExceeded,
    Subrun,
    SubrunCheck,
    TransitionMultiset,
    base_run_bound,
    enumerate_runs,
    enumerate_simple_cycles,
    format_multiset,
    is_cycle,
    is_run,
    is_simple_cycle,
    is_skeleton_run,
    is_subrun,
    order_subrun,
    parse_multiset,
    run_stats,
    subrun_to_tree,
    tree_size_bound,
    tree_to_multiset,
)
from .semilinear import LinearSet, SemilinearSet, SimpleBundle, linear_member, semilinear_member
from .vector import MonomialError, Vec, format_monomial, parse_monomial
from .windows import (
    WindowBoundReport,
    WindowResult,
    compare_within_window,
    universality_within_window,
    window_bound_report,
)

__version__ = "0.1.0"
