"""Exhaustive verification suites over every permutation (or involution,
or tableau) up to a size bound.

Each check names a stream of instances and a predicate that must hold on
every one of them; ``_check`` walks the stream, counts instances, and
collects counterexamples.  GFK-tightness is decided here by the subset
oracle of ``rsinv.greene`` and pattern avoidance by the pattern search,
both independent of insertion, so the checks test the insertion-based
answers rather than repeat them; likewise A_n is summed here over every
partition, and counted by a factorial scan with the oracle, to check the
dynamic programme of ``enumeration.count_A``.  Each reference refuses an
instance past its own cap: ORACLE_CAP in ``rsinv.greene``, BRUTE_COUNT_CAP
here.  Suites bundle related checks.  The CLI exposes them so the whole
battery can be reproduced without a test runner, refusing up front a size
at which some check would walk more than INSTANCE_BUDGET instances, and
the test suite asserts them at the sizes fixed in tests/test_acceptance.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import factorial
from typing import Any, Callable, Iterable, Iterator

from . import direct, enumeration, greene, tableaux
from .errors import DomainError, InstanceTooLarge
from .insertion import f_involution, inverse_rsk, is_gfk_tight, rsk, tableau_of_involution
from .permutations import (
    all_permutations,
    contains_pattern,
    descent_set,
    inverse,
    is_involution,
    is_layered,
    jogs,
    layers,
    longest_decreasing,
    record_breakers,
    reverse,
)
from .tableaux import (
    first_column,
    is_layered_tableau,
    satisfies_transposed_layer,
    shape,
    tableau_descents,
    transpose,
)

MAX_FAILURES_KEPT = 5


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check(
    name: str,
    instances: Iterable[Any],
    holds: Callable[[Any], bool],
    where: Callable[[Any], bool] = lambda _: True,
) -> CheckResult:
    """Count every instance for which ``where`` is true and keep a message
    for each one where ``holds`` is false; past MAX_FAILURES_KEPT messages
    the last one becomes a note that more were suppressed.  An instance
    over a brute-force cap is not counted: it stops the check with a last
    message naming the cap.  An int instance is a size n."""

    def label(x):
        return f"n={x}" if isinstance(x, int) else x

    res = CheckResult(name)
    for x in instances:
        try:
            if not where(x):
                continue
            ok = holds(x)
        except InstanceTooLarge as exc:
            res.failures.append(f"{name} stops at {label(x)}: {exc}")
            break
        res.checked += 1
        if ok:
            continue
        if len(res.failures) < MAX_FAILURES_KEPT:
            res.failures.append(f"{name} fails at {label(x)}")
        else:
            res.failures[-1] = "... more failures suppressed"
    return res


def _upto(family: Callable[[int], Iterable[Any]], max_n: int, start: int = 0) -> Iterator[Any]:
    """Every member of family(n) for n = start..max_n, in order of n."""
    return chain.from_iterable(family(n) for n in range(start, max_n + 1))


def _prefix_sums(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Prefix sums of parts, padded with zero parts to n terms."""
    return tuple(accumulate(parts + (0,) * (n - len(parts))))


def _distinct_family(
    members: Iterable[Any], count: int, valid: Callable[[Any], bool] = lambda _: True
) -> bool:
    """members are exactly count distinct values, each of them valid."""
    members = list(members)
    return len(members) == len(set(members)) == count and all(map(valid, members))


# ---------------------------------------------------------------- rsk suite


def check_roundtrip(max_n: int = 7) -> CheckResult:
    """inverse_rsk(rsk(p)) == p for every permutation."""
    return _check("roundtrip", _upto(all_permutations, max_n), lambda p: inverse_rsk(rsk(p)) == p)


def check_schuetzenberger(max_n: int = 7) -> CheckResult:
    """rsk(inverse(p)) swaps the insertion and recording tableaux."""
    return _check(
        "schuetzenberger",
        _upto(all_permutations, max_n),
        lambda p: rsk(inverse(p)) == rsk(p)[::-1],
    )


def check_reversal_transpose(max_n: int = 7) -> CheckResult:
    """The insertion tableau of the reversed word is the transpose."""
    return _check(
        "reversal-transpose",
        _upto(all_permutations, max_n),
        lambda p: rsk(reverse(p))[0] == transpose(rsk(p)[0]),
    )


def check_descent_transport(max_n: int = 7) -> CheckResult:
    """Position descents of p equal entry descents of the recording tableau."""
    return _check(
        "descent-transport",
        _upto(all_permutations, max_n),
        lambda p: descent_set(p) == tableau_descents(rsk(p)[1]),
    )


def check_f_twice(max_n: int = 8) -> CheckResult:
    """Applying the tableau-transpose map twice is the identity."""
    return _check(
        "f-twice",
        _upto(enumeration.involutions, max_n),
        lambda p: f_involution(f_involution(p)) == p,
    )


# ------------------------------------------------------------- greene suite


def check_shape_prefix_sums(max_n: int = 7) -> CheckResult:
    """Row (column) prefix sums of the insertion shape match the oracle's
    longest k-increasing (k-decreasing) lengths for every k."""

    def holds(p):
        rows = shape(rsk(p)[0])
        return (
            _prefix_sums(rows, len(p)) == greene.k_increasing_profile(p)[1:]
            and _prefix_sums(tableaux.conjugate(rows), len(p))
            == greene.k_decreasing_profile(p)[1:]
        )

    return _check("shape-prefix-sums", _upto(all_permutations, max_n), holds)


def check_profile_monotone(max_n: int = 7) -> CheckResult:
    """Profiles grow weakly, never exceed n, and saturate at n once k
    reaches the longest decreasing (increasing) subsequence length."""

    def holds(p):
        n = len(p)
        inc = greene.k_increasing_profile(p)
        lds = longest_decreasing(p)
        return all(inc[k - 1] <= inc[k] <= n for k in range(1, n + 1)) and all(
            inc[k] == n for k in range(lds, n + 1)
        )

    return _check("profile-monotone", _upto(all_permutations, max_n), holds)


def check_jog_lower_bound(max_n: int = 8) -> CheckResult:
    """Any k jogs form a k-increasing subsequence, so the k longest jogs
    bound the oracle value from below."""

    def holds(p):
        inc = greene.k_increasing_profile(p)
        lengths = sorted((j.length for j in jogs(p)), reverse=True)
        return all(total <= inc[k] for k, total in enumerate(accumulate(lengths), start=1))

    return _check("jog-lower-bound", _upto(all_permutations, max_n), holds)


def check_record_breaker_column(max_n: int = 7) -> CheckResult:
    """Record-breakers of p are exactly the first-column entries of the
    recording tableau."""
    return _check(
        "record-breaker-column",
        _upto(all_permutations, max_n),
        lambda p: record_breakers(p) == set(first_column(rsk(p)[1])),
    )


# ----------------------------------------------------- characterization suite


def check_layered_tableau_sets(max_n: int = 8) -> CheckResult:
    """Tableaux of layered permutations are exactly the tableaux passing
    is_layered_tableau; both families have 2^(n-1) members."""

    def holds(n):
        from_perms = {tableau_of_involution(w) for w in enumeration.layered_permutations(n)}
        from_filter = {t for t in enumeration.standard_tableaux(n) if is_layered_tableau(t)}
        return (
            from_perms == from_filter == set(enumeration.layered_tableaux(n))
            and len(from_perms) == 2 ** (n - 1)
        )

    return _check("layered-tableau-sets", range(1, max_n + 1), holds)


def check_tight_vs_transposed_layer(max_n: int = 8) -> CheckResult:
    """An involution's tableau satisfies the transposed layer condition
    exactly when the involution is GFK-tight."""
    return _check(
        "tight-vs-transposed-layer",
        _upto(enumeration.involutions, max_n),
        lambda p: satisfies_transposed_layer(tableau_of_involution(p))
        == greene.oracle_is_gfk_tight(p)
        == is_gfk_tight(p),
    )


def check_layered_vs_dually_tight(max_n: int = 8) -> CheckResult:
    """A permutation is layered exactly when it is a dually GFK-tight
    involution."""
    return _check(
        "layered-vs-dually-tight",
        _upto(all_permutations, max_n),
        lambda p: is_layered(p) == (is_involution(p) and greene.oracle_is_dually_gfk_tight(p)),
    )


def check_layer_jog_transport(max_n: int = 8) -> CheckResult:
    """The layers of a layered permutation reappear as the jogs of its
    image under the tableau-transpose map."""
    return _check(
        "layer-jog-transport",
        _upto(enumeration.layered_permutations, max_n, start=1),
        lambda w: set(layers(w)) == set(jogs(f_involution(w))),
    )


def check_ascent_flip(max_n: int = 8) -> CheckResult:
    """Adjacent values in ascending order in an involution end up in
    descending order in its image."""

    def holds(p):
        pos = inverse(p)
        fpos = inverse(f_involution(p))
        return all(fpos[a - 1] > fpos[a] for a in range(1, len(p)) if pos[a - 1] < pos[a])

    return _check("ascent-flip", _upto(enumeration.involutions, max_n), holds)


def check_general_equivalence(max_n: int = 7) -> CheckResult:
    """Both tableaux layered <=> p and its inverse dually GFK-tight, and
    the transposed form: both tableaux transposed-layer <=> both GFK-tight."""

    def holds(p):
        p_tab, q_tab = rsk(p)
        q = inverse(p)
        layered_form = (is_layered_tableau(p_tab) and is_layered_tableau(q_tab)) == (
            greene.oracle_is_dually_gfk_tight(p) and greene.oracle_is_dually_gfk_tight(q)
        )
        transposed_form = (
            satisfies_transposed_layer(p_tab) and satisfies_transposed_layer(q_tab)
        ) == (greene.oracle_is_gfk_tight(p) and greene.oracle_is_gfk_tight(q))
        return layered_form and transposed_form

    return _check("general-equivalence", _upto(all_permutations, max_n), holds)


def check_shape_jog_multisets(max_n: int = 7) -> CheckResult:
    """When p and its inverse are both GFK-tight, their jog lengths agree
    as multisets and match the row lengths of the common shape."""

    def lengths(intervals):
        return sorted((iv.length for iv in intervals), reverse=True)

    def tight_both_ways(p):
        return greene.oracle_is_gfk_tight(p) and greene.oracle_is_gfk_tight(inverse(p))

    return _check(
        "shape-jog-multisets",
        _upto(all_permutations, max_n),
        lambda p: lengths(jogs(p)) == lengths(jogs(inverse(p))) == sorted(
            shape(rsk(p)[0]), reverse=True
        ),
        where=tight_both_ways,
    )


def check_direct_gfk(max_n: int = 8) -> CheckResult:
    """The jog-reversal construction agrees with the insertion-based map on
    every GFK-tight involution."""
    return _check(
        "direct-gfk",
        _upto(enumeration.involutions, max_n),
        lambda p: direct.f_gfk_tight_direct(p) == f_involution(p),
        where=greene.oracle_is_gfk_tight,
    )


def check_direct_123(max_n: int = 10) -> CheckResult:
    """The record-breaker construction agrees with the insertion-based map
    on every 123-avoiding involution."""
    return _check(
        "direct-123",
        _upto(enumeration.involutions, max_n),
        lambda p: direct.f_123_avoiding_direct(p) == f_involution(p),
        where=lambda p: not contains_pattern(p, (1, 2, 3)),
    )


def check_two_row_roundtrip(max_n: int = 10) -> CheckResult:
    """Direct two-row tableau of a 321-avoiding involution equals the
    insertion tableau, and peeling recovers the involution."""
    return _check(
        "two-row-roundtrip",
        _upto(enumeration.involutions, max_n),
        lambda p: (t := direct.tableau_of_321_avoiding(p)) == tableau_of_involution(p)
        and direct.recover_321_avoiding(t) == p,
        where=lambda p: not contains_pattern(p, (3, 2, 1)),
    )


def check_shortcut(max_n: int = 8) -> CheckResult:
    """Reversal equals the tableau-transpose map whenever both p and its
    reverse are involutions."""
    return _check(
        "shortcut",
        _upto(enumeration.involutions, max_n),
        lambda p: direct.f_rev_shortcut(p) == f_involution(p),
        where=lambda p: is_involution(reverse(p)),
    )


# ----------------------------------------------------------- counting suite


#: largest n for which the n!-scan count is allowed
BRUTE_COUNT_CAP = 8


def count_A_by_partitions(n: int) -> int:
    """A_n as the literal sum of comp_count(h)**2 over the p(n) partitions
    h of n: the reference that count_A's dynamic programme is checked
    against."""
    return sum(enumeration.comp_count(h) ** 2 for h in enumeration.partitions(n))


def brute_count_general(n: int) -> int:
    """
    Count, by full n!-scan with the subset oracle, the permutations p such
    that p and its inverse are both dually GFK-tight.  Must agree with
    count_A; capped because the scan is factorial.
    """
    if n > BRUTE_COUNT_CAP:
        raise InstanceTooLarge(f"factorial scan capped at n <= {BRUTE_COUNT_CAP}, got {n}")
    tight = greene.oracle_is_dually_gfk_tight
    return sum(1 for p in all_permutations(n) if tight(p) and tight(inverse(p)))


def check_formula_vs_scan(max_n: int = 7) -> CheckResult:
    """count_A, the partition sum and the factorial-scan count of
    permutations that are dually GFK-tight together with their inverse
    agree."""
    return _check(
        "formula-vs-scan",
        range(1, min(max_n, BRUTE_COUNT_CAP) + 1),
        lambda n: enumeration.count_A(n) == count_A_by_partitions(n) == brute_count_general(n),
    )


def check_pairs_distinct(max_n: int = 7) -> CheckResult:
    """Tableau-pair generation yields count_A(n) pairwise distinct
    permutations, each dually GFK-tight along with its inverse."""

    def tight_both_ways(p):
        tight = greene.oracle_is_dually_gfk_tight
        return tight(p) and tight(inverse(p))

    return _check(
        "pairs-distinct",
        range(1, max_n + 1),
        lambda n: _distinct_family(
            enumeration.generalized_layered(n),
            enumeration.count_A(n),
            tight_both_ways,
        ),
    )


def check_composition_total(max_n: int = 12) -> CheckResult:
    """Compositions counted partition by partition total 2^(n-1)."""
    return _check(
        "composition-total",
        range(1, max_n + 1),
        lambda n: sum(enumeration.comp_count(h) for h in enumeration.partitions(n)) == 2 ** (n - 1),
    )


def check_exponential_bounds(max_n: int = 12) -> CheckResult:
    """p(n) * A_n >= 4^(n-1) and A_n <= 4^(n-1), in exact integers."""
    return _check("exponential-bounds", range(1, max_n + 1), enumeration.verify_bounds)


def check_partition_recurrence(max_n: int = 12) -> CheckResult:
    """The pentagonal recurrence agrees with the partition generator."""
    return _check(
        "partition-recurrence",
        range(max_n + 1),
        lambda n: _distinct_family(enumeration.partitions(n), enumeration.partition_count(n)),
    )


def check_family_counts(max_n: int = 10) -> CheckResult:
    """Family generators emit the advertised numbers of distinct, valid
    members."""
    families: dict[str, Callable[[int], bool]] = {
        "layered permutations": lambda n: _distinct_family(
            enumeration.layered_permutations(n), 2 ** (n - 1), is_layered
        ),
        "layered tableaux": lambda n: _distinct_family(
            enumeration.layered_tableaux(n),
            2 ** (n - 1),
            lambda t: tableaux.validate(t) and is_layered_tableau(t),
        ),
        "involutions": lambda n: _distinct_family(
            enumeration.involutions(n), enumeration.count_involutions(n), is_involution
        ),
        "standard tableaux": lambda n: sum(1 for _ in enumeration.standard_tableaux(n))
        == enumeration.count_involutions(n),
    }
    return _check(
        "family-counts",
        ((family, n) for n in range(1, max_n + 1) for family in families),
        lambda instance: families[instance[0]](instance[1]),
    )


SUITES: dict[str, list[Callable[..., CheckResult]]] = {
    "rsk": [
        check_roundtrip,
        check_schuetzenberger,
        check_reversal_transpose,
        check_descent_transport,
        check_f_twice,
    ],
    "greene": [
        check_shape_prefix_sums,
        check_profile_monotone,
        check_jog_lower_bound,
        check_record_breaker_column,
    ],
    "characterization": [
        check_layered_tableau_sets,
        check_tight_vs_transposed_layer,
        check_layered_vs_dually_tight,
        check_layer_jog_transport,
        check_ascent_flip,
        check_general_equivalence,
        check_shape_jog_multisets,
        check_direct_gfk,
        check_direct_123,
        check_two_row_roundtrip,
        check_shortcut,
    ],
    "counting": [
        check_formula_vs_scan,
        check_pairs_distinct,
        check_composition_total,
        check_exponential_bounds,
        check_partition_recurrence,
        check_family_counts,
    ],
}


#: most instances, summed over sizes, that one check may walk when
#: ``--max-n`` overrides its default size; ``require_budget`` refuses a run
#: past it before any check starts.  Every check of the default battery is
#: under it (the largest walk is the 46,234 permutations with n <= 8), and
#: so are the permutation checks at n <= 9 (409,114), but not at n <= 10
#: (4,037,914).
INSTANCE_BUDGET = 10**6

#: check -> instances it walks at size n.  A check whose instances are
#: sizes counts what it builds at each: the members of the families it
#: lists, or count_A's dynamic-programme steps (fewer than (n+1)^3).  A
#: size past a check's own cap counts 0, as does every larger size.
WALKS: dict[Callable[..., CheckResult], Callable[[int], int]] = {
    check_roundtrip: factorial,
    check_schuetzenberger: factorial,
    check_reversal_transpose: factorial,
    check_descent_transport: factorial,
    check_f_twice: enumeration.count_involutions,
    check_shape_prefix_sums: factorial,
    check_profile_monotone: factorial,
    check_jog_lower_bound: factorial,
    check_record_breaker_column: factorial,
    check_layered_tableau_sets: lambda n: enumeration.count_involutions(n)
    + 2 * enumeration.count_layered(n),
    check_tight_vs_transposed_layer: enumeration.count_involutions,
    check_layered_vs_dually_tight: factorial,
    check_layer_jog_transport: enumeration.count_layered,
    check_ascent_flip: enumeration.count_involutions,
    check_general_equivalence: factorial,
    check_shape_jog_multisets: factorial,
    check_direct_gfk: enumeration.count_involutions,
    check_direct_123: enumeration.count_involutions,
    check_two_row_roundtrip: enumeration.count_involutions,
    check_shortcut: enumeration.count_involutions,
    check_formula_vs_scan: lambda n: factorial(n) if n <= BRUTE_COUNT_CAP else 0,
    check_pairs_distinct: enumeration.count_A,
    check_composition_total: enumeration.partition_count,
    check_exponential_bounds: lambda n: (n + 1) ** 3,
    check_partition_recurrence: enumeration.partition_count,
    check_family_counts: lambda n: 2 * (
        enumeration.count_involutions(n) + enumeration.count_layered(n)
    ),
}


def walked(check: Callable[..., CheckResult], max_n: int) -> int:
    """Instances ``check`` walks over sizes 0..max_n (an upper bound on the
    instances it counts), summed until the total passes INSTANCE_BUDGET."""
    total = 0
    for n in range(max_n + 1):
        count = WALKS[check](n)
        if not count:
            break
        total += count
        if total > INSTANCE_BUDGET:
            break
    return total


def _check_name(check: Callable[..., CheckResult]) -> str:
    """The name a check reports, read off its function name."""
    return check.__name__.removeprefix("check_").replace("_", "-")


def require_budget(names: Iterable[str], max_n: int) -> None:
    """Raise DomainError, running nothing, if at max_n some check of these
    suites walks more than INSTANCE_BUDGET instances."""
    for name in names:
        for check in SUITES[name]:
            if walked(check, max_n) > INSTANCE_BUDGET:
                raise DomainError(
                    f"{name}/{_check_name(check)} walks more than {INSTANCE_BUDGET}"
                    f" instances at max-n {max_n}; lower --max-n"
                )


def run_suite(name: str, max_n: int | None = None) -> list[CheckResult]:
    """Run one suite; max_n overrides every check's default bound."""
    results = []
    for check in SUITES[name]:
        results.append(check() if max_n is None else check(max_n))
    return results

