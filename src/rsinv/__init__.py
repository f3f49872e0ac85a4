"""Robinson-Schensted on involutions: the tableau-transpose involution,
direct constructions of it on special permutation classes, an independent
insertion-free subsequence oracle, and exhaustive verification at small sizes.
"""
from .enumeration import (
    comp_count,
    compositions,
    count_A,
    count_involutions,
    count_layered,
    generalized_layered,
    involutions,
    layered_permutations,
    layered_tableaux,
    partition_count,
    partitions,
    standard_tableaux,
    verify_bounds,
)
from .direct import (
    f_123_avoiding_direct,
    f_gfk_tight_direct,
    f_rev_shortcut,
    recover_321_avoiding,
    tableau_of_321_avoiding,
)
from .greene import longest_k_decreasing, longest_k_increasing
from .permutations import (
    EntryClassification,
    Interval,
    Perm,
    classify_entries,
    contains_pattern,
    descent_set,
    format_permutation,
    inverse,
    is_involution,
    is_layered,
    is_permutation,
    jog_lengths,
    jogs,
    layers,
    parse_permutation,
    record_breakers,
    reverse,
    reverse_jogs,
)
from .insertion import (
    f_involution,
    inverse_rsk,
    is_dually_gfk_tight,
    is_gfk_tight,
    row_insert,
    rsk,
    tableau_of_involution,
)
from .tableaux import (
    Shape,
    Tableau,
    conjugate,
    is_layered_tableau,
    satisfies_transposed_layer,
    shape,
    tableau_descents,
    tableau_from_json,
    tableau_to_json,
    transpose,
    validate,
)

__version__ = "0.1.0"
