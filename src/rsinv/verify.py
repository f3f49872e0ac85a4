"""Exhaustive verification suites over every permutation (or involution,
or size) up to a size bound.

A ``Family`` gives the instances of each size n and their exact number:
permutations and n!, involutions and I(n), layered permutations and
2^(n-1), or the sizes themselves, each counted as the work a check does
at it.  A ``Check`` is one row: a name, the family it walks, its default
size, the predicate that must hold on every instance, and optionally
which instances it applies to and how many of them there are.  Calling a
row walks its family through ``_check``, which counts instances and
collects counterexamples.
``SUITES`` groups the rows, and the CLI runs them so the whole battery
can be reproduced without a test runner; the test suite asserts them at
the sizes fixed in tests/test_acceptance.py.  A check called at a size
where it would walk more than INSTANCE_BUDGET instances, summing its
family's counts over the sizes it walks, refuses before walking; the CLI
refuses such a size up front, before any chosen check starts.

GFK-tightness is decided here by the subset oracle of ``rsinv.greene``
and pattern avoidance by the pattern search, both independent of
insertion, so the checks test the insertion-based answers rather than
repeat them; likewise A_n is summed here over every partition, and
counted by a factorial scan with the oracle, to check the dynamic
programme of ``enumeration.count_A``.  Each reference refuses an instance
past its own cap: ORACLE_CAP in ``rsinv.greene``, BRUTE_COUNT_CAP here.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import comb, factorial
from operator import le
from typing import Any, Callable, Iterable

from . import direct, enumeration, greene, tableaux
from .errors import DomainError, InstanceTooLarge
from .insertion import f_involution, inverse_rsk, is_gfk_tight, rsk, tableau_of_involution
from .permutations import (
    _jog_runs,
    all_permutations,
    contains_pattern,
    descent_set,
    inverse,
    is_involution,
    is_layered,
    jog_lengths,
    jogs,
    layers,
    longest_decreasing,
    record_breakers,
    reverse,
)
from .tableaux import (
    _is_layered_tableau,
    _satisfies_transposed_layer,
    _tableau_descents,
    first_column,
    is_layered_tableau,
    shape,
    transpose,
)

MAX_FAILURES_KEPT = 5

#: most instances, summed over sizes, that one check may walk, and the most
#: partitions ``count_A_by_partitions`` sums; past it each refuses before
#: any work, and ``require_budget`` before any check starts.  Every check of
#: the default battery is under it (the largest walk is the 46,234
#: permutations with n <= 8), and so are the permutation checks at n <= 9
#: (409,114), but not at n <= 10 (4,037,914).
INSTANCE_BUDGET = 10**6

#: largest n for which the n!-scan count is allowed
BRUTE_COUNT_CAP = 8


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


@dataclass(frozen=True)
class Family:
    """The instances of each size n from ``first`` on, and ``count(n)``, the
    number of them (for a family of sizes, the work a check does at n).
    ``last``, when given, caps the sizes."""

    members: Callable[[int], Iterable[Any]]
    count: Callable[[int], int]
    first: int = 0
    last: int | None = None

    def sizes(self, max_n: int) -> range:
        top = max_n if self.last is None else min(max_n, self.last)
        return range(self.first, top + 1)


PERMUTATIONS = Family(all_permutations, factorial)
INVOLUTIONS = Family(enumeration.involutions, enumeration.count_involutions)
LAYERED = Family(enumeration.layered_permutations, enumeration.count_layered, first=1)


def _sizes(work: Callable[[int], int], first: int = 1, last: int | None = None) -> Family:
    """The sizes n themselves, each counted as the work a check does at n."""
    return Family(lambda n: (n,), work, first, last)


@dataclass(frozen=True)
class Check:
    """One exhaustive check: ``holds`` must be true on every instance of
    ``family`` up to a size, default ``max_n``, for which ``where`` is.
    ``where_count(n)``, when given, is how many instances of size n that
    should be, counted without ``where``; the check fails on another total,
    so a filter that empties it cannot pass it."""

    name: str
    family: Family
    max_n: int
    holds: Callable[[Any], bool]
    where: Callable[[Any], bool] = lambda _: True
    where_count: Callable[[int], int] | None = None

    def __call__(self, max_n: int | None = None) -> CheckResult:
        """Walk the family to max_n, or refuse first past INSTANCE_BUDGET instances."""
        max_n = self.max_n if max_n is None else max_n
        _refuse_past_budget(self, max_n)
        sizes = self.family.sizes(max_n)
        instances = chain.from_iterable(map(self.family.members, sizes))
        res = _check(self.name, instances, self.holds, self.where)
        if self.where_count is not None:
            expected = sum(map(self.where_count, sizes))
            if res.checked != expected:
                res.failures.append(f"{self.name} checked {res.checked} instances, not {expected}")
        return res

    @property
    def __signature__(self) -> inspect.Signature:
        """What ``inspect.signature`` reports, so that a caller reads the
        row's default size as the default of max_n."""
        kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
        size = inspect.Parameter("max_n", kind, default=self.max_n)
        return inspect.Signature([size], return_annotation=CheckResult)

    def walked(self, max_n: int) -> int:
        """Instances this check walks up to size max_n (an upper bound on
        the instances it counts), summed until the total passes
        INSTANCE_BUDGET."""
        total = 0
        for n in self.family.sizes(max_n):
            total += self.family.count(n)
            if total > INSTANCE_BUDGET:
                break
        return total


# -------------------------------------------------------- shared predicates


def _prefix_sums(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Prefix sums of parts, padded with zero parts to n terms."""
    return tuple(accumulate(parts + (0,) * (n - len(parts))))


def _central_binomial(n: int) -> int:
    """The 123-avoiding involutions of size n, and the 321-avoiding ones,
    are each C(n, floor(n/2)) many (Simion and Schmidt, "Restricted
    permutations", European J. Combin. 6 (1985) 383-406)."""
    return comb(n, n // 2)


def _distinct_family(
    members: Iterable[Any], count: int, valid: Callable[[Any], bool] = lambda _: True
) -> bool:
    """members are exactly count distinct values, each of them valid."""
    members = list(members)
    return len(members) == len(set(members)) == count and all(map(valid, members))


# ---------------------------------------- predicates longer than one expression


def _shape_prefix_sums(p) -> bool:
    rows = shape(rsk(p)[0])
    return (
        _prefix_sums(rows, len(p)) == greene.k_increasing_profile(p)[1:]
        and _prefix_sums(tableaux.conjugate(rows), len(p)) == greene.k_decreasing_profile(p)[1:]
    )


def _profile_monotone(p) -> bool:
    n = len(p)
    inc = greene.k_increasing_profile(p)
    lds = longest_decreasing(p)
    return all(inc[k - 1] <= inc[k] <= n for k in range(1, n + 1)) and all(
        inc[k] == n for k in range(lds, n + 1)
    )


def _jog_lower_bound(p) -> bool:
    inc, inv = greene._profile_and_inverse(p)
    lengths = _jog_runs(inv)
    lengths.sort(reverse=True)
    return all(map(le, accumulate(lengths), inc[1:]))


def _layered_tableau_sets(n: int) -> bool:
    from_perms = {tableau_of_involution(w) for w in enumeration.layered_permutations(n)}
    from_filter = {t for t in enumeration.standard_tableaux(n) if _is_layered_tableau(t)}
    return (
        from_perms == from_filter == set(enumeration.layered_tableaux(n))
        and len(from_perms) == 2 ** (n - 1)
    )


def _ascent_flip(p) -> bool:
    pos = inverse(p)
    fpos = inverse(f_involution(p))
    return all(fpos[a - 1] > fpos[a] for a in range(1, len(p)) if pos[a - 1] < pos[a])


def _general_equivalence(p) -> bool:
    p_tab, q_tab = rsk(p)
    layered_form = (
        _is_layered_tableau(p_tab) and _is_layered_tableau(q_tab)
    ) == greene.oracle_is_dually_gfk_tight_both_ways(p)
    transposed_form = (
        _satisfies_transposed_layer(p_tab) and _satisfies_transposed_layer(q_tab)
    ) == greene.oracle_is_gfk_tight_both_ways(p)
    return layered_form and transposed_form


#: family-counts: each generator's label -> its check at size n
_FAMILY_COUNTS: dict[str, Callable[[int], bool]] = {
    "layered permutations": lambda n: _distinct_family(
        enumeration.layered_permutations(n), 2 ** (n - 1), is_layered
    ),
    "layered tableaux": lambda n: _distinct_family(
        enumeration.layered_tableaux(n),
        2 ** (n - 1),
        is_layered_tableau,
    ),
    "involutions": lambda n: _distinct_family(
        enumeration.involutions(n), enumeration.count_involutions(n), is_involution
    ),
    "standard tableaux": lambda n: sum(1 for _ in enumeration.standard_tableaux(n))
    == enumeration.count_involutions(n),
}


# ---------------------------------------------------- counting references


def count_A_by_partitions(n: int) -> int:
    """A_n as the literal sum of comp_count(h)**2 over the p(n) partitions
    h of n: the reference that count_A's dynamic programme is checked
    against.  Past INSTANCE_BUDGET partitions, at n >= 61, it raises
    InstanceTooLarge first, reading p(m) for m <= n only until one passes."""
    if any(enumeration.partition_count(m) > INSTANCE_BUDGET for m in range(n + 1)):
        raise InstanceTooLarge(f"p({n}) partitions are past INSTANCE_BUDGET = {INSTANCE_BUDGET}")
    return sum(enumeration.comp_count(h) ** 2 for h in enumeration.partitions(n))


def brute_count_general(n: int) -> int:
    """
    Count, by full n!-scan with the subset oracle, the permutations p such
    that p and its inverse are both dually GFK-tight.  Must agree with
    count_A; capped because the scan is factorial.
    """
    if n > BRUTE_COUNT_CAP:
        raise InstanceTooLarge(f"factorial scan capped at n <= {BRUTE_COUNT_CAP}, got {n}")
    return sum(1 for p in all_permutations(n) if greene.oracle_is_dually_gfk_tight_both_ways(p))


# ------------------------------------------------------------------ suites


SUITES: dict[str, list[Check]] = {
    "rsk": [
        # inverse_rsk(rsk(p)) == p for every permutation
        Check("roundtrip", PERMUTATIONS, 7, lambda p: inverse_rsk(rsk(p)) == p),
        # rsk(inverse(p)) swaps the insertion and recording tableaux
        Check("schuetzenberger", PERMUTATIONS, 7, lambda p: rsk(inverse(p)) == rsk(p)[::-1]),
        # the insertion tableau of the reversed word is the transpose
        Check(
            "reversal-transpose",
            PERMUTATIONS,
            7,
            lambda p: rsk(reverse(p))[0] == transpose(rsk(p)[0]),
        ),
        # position descents of p are the entry descents of its recording tableau
        Check(
            "descent-transport",
            PERMUTATIONS,
            7,
            lambda p: descent_set(p) == _tableau_descents(rsk(p)[1]),
        ),
        # applying the tableau-transpose map twice is the identity
        Check("f-twice", INVOLUTIONS, 8, lambda p: f_involution(f_involution(p)) == p),
    ],
    "greene": [
        # shape row (column) prefix sums are the oracle's k-increasing (k-decreasing) lengths
        Check("shape-prefix-sums", PERMUTATIONS, 7, _shape_prefix_sums),
        # profiles grow weakly, never pass n, and reach n at k = LDS
        Check("profile-monotone", PERMUTATIONS, 7, _profile_monotone),
        # the k longest jogs, a k-increasing subsequence, bound the oracle value from below
        Check("jog-lower-bound", PERMUTATIONS, 8, _jog_lower_bound),
        # record-breakers are the first-column entries of the recording tableau
        Check(
            "record-breaker-column",
            PERMUTATIONS,
            7,
            lambda p: record_breakers(p) == set(first_column(rsk(p)[1])),
        ),
    ],
    "characterization": [
        # layered permutations' tableaux, filtered standard ones, compositions': the same 2^(n-1)
        Check(
            "layered-tableau-sets",
            _sizes(lambda n: enumeration.count_involutions(n) + 2 * enumeration.count_layered(n)),
            8,
            _layered_tableau_sets,
        ),
        # an involution's tableau is transposed-layer exactly when it is GFK-tight
        Check(
            "tight-vs-transposed-layer",
            INVOLUTIONS,
            8,
            lambda p: _satisfies_transposed_layer(tableau_of_involution(p))
            == greene.oracle_is_gfk_tight(p)
            == is_gfk_tight(p),
        ),
        # layered exactly when a dually GFK-tight involution
        Check(
            "layered-vs-dually-tight",
            PERMUTATIONS,
            8,
            lambda p: is_layered(p) == (is_involution(p) and greene.oracle_is_dually_gfk_tight(p)),
        ),
        # the layers of w reappear as the jogs of f(w)
        Check(
            "layer-jog-transport",
            LAYERED,
            8,
            lambda w: set(layers(w)) == set(jogs(f_involution(w))),
        ),
        # adjacent values in ascending order end up in descending order under f
        Check("ascent-flip", INVOLUTIONS, 8, _ascent_flip),
        # both tableaux layered (transposed-layer) <=> p, p^-1 dually GFK-tight (GFK-tight)
        Check("general-equivalence", PERMUTATIONS, 7, _general_equivalence),
        # p, p^-1 GFK-tight => equal jog-length multisets, the rows of the common shape
        Check(
            "shape-jog-multisets",
            PERMUTATIONS,
            7,
            lambda p: jog_lengths(p) == sorted(_jog_runs(p), reverse=True)
            == list(shape(rsk(p)[0])),
            where=greene.oracle_is_gfk_tight_both_ways,
        ),
        # the jog-reversal construction is f on GFK-tight involutions
        Check(
            "direct-gfk",
            INVOLUTIONS,
            8,
            lambda p: direct.f_gfk_tight_direct(p) == f_involution(p),
            where=greene.oracle_is_gfk_tight,
        ),
        # the record-breaker construction is f on 123-avoiding involutions
        Check(
            "direct-123",
            INVOLUTIONS,
            10,
            lambda p: direct.f_123_avoiding_direct(p) == f_involution(p),
            where=lambda p: not contains_pattern(p, (1, 2, 3)),
            where_count=_central_binomial,
        ),
        # 321-avoiding: the direct two-row tableau is the insertion one, and peeling recovers p
        Check(
            "two-row-roundtrip",
            INVOLUTIONS,
            10,
            lambda p: (t := direct.tableau_of_321_avoiding(p)) == tableau_of_involution(p)
            and direct.recover_321_avoiding(t) == p,
            where=lambda p: not contains_pattern(p, (3, 2, 1)),
            where_count=_central_binomial,
        ),
        # reversal is f whenever p and its reverse are both involutions
        Check(
            "shortcut",
            INVOLUTIONS,
            8,
            lambda p: direct.f_rev_shortcut(p) == f_involution(p),
            where=lambda p: is_involution(reverse(p)),
        ),
    ],
    "counting": [
        # count_A, the partition sum and the factorial scan agree, up to the scan's cap
        Check(
            "formula-vs-scan",
            _sizes(factorial, last=BRUTE_COUNT_CAP),
            7,
            lambda n: enumeration.count_A(n) == count_A_by_partitions(n) == brute_count_general(n),
        ),
        # pair generation yields count_A(n) distinct p, each dually GFK-tight with p^-1
        Check(
            "pairs-distinct",
            _sizes(enumeration.count_A),
            7,
            lambda n: _distinct_family(
                enumeration.generalized_layered(n),
                enumeration.count_A(n),
                greene.oracle_is_dually_gfk_tight_both_ways,
            ),
        ),
        # compositions counted partition by partition total 2^(n-1)
        Check(
            "composition-total",
            _sizes(enumeration.partition_count),
            12,
            lambda n: sum(enumeration.comp_count(h) for h in enumeration.partitions(n))
            == 2 ** (n - 1),
        ),
        # p(n) * A_n >= 4^(n-1) >= A_n in exact integers; count_A takes < (n+1)^3 steps
        Check("exponential-bounds", _sizes(lambda n: (n + 1) ** 3), 12, enumeration.verify_bounds),
        # the pentagonal recurrence counts the partition generator's output
        Check(
            "partition-recurrence",
            _sizes(enumeration.partition_count, first=0),
            12,
            lambda n: _distinct_family(enumeration.partitions(n), enumeration.partition_count(n)),
        ),
        # each family generator emits its advertised number of distinct, valid members
        Check(
            "family-counts",
            Family(
                lambda n: ((label, n) for label in _FAMILY_COUNTS),
                lambda n: 2 * (enumeration.count_involutions(n) + enumeration.count_layered(n)),
                first=1,
            ),
            10,
            lambda instance: _FAMILY_COUNTS[instance[0]](instance[1]),
        ),
    ],
}

#: every check by name
CHECKS: dict[str, Check] = {check.name: check for checks in SUITES.values() for check in checks}


def _refuse_past_budget(check: Check, max_n: int) -> None:
    # The refusal names suite/check, as the CLI chooses it; a check in no suite by its name.
    if check.walked(max_n) > INSTANCE_BUDGET:
        label = "/".join([s for s, checks in SUITES.items() if check in checks][:1] + [check.name])
        raise DomainError(
            f"{label} walks more than {INSTANCE_BUDGET} instances at max-n {max_n}; lower --max-n"
        )


def require_budget(names: Iterable[str], max_n: int) -> None:
    """Raise DomainError, running nothing, if at max_n some check of these
    suites walks more than INSTANCE_BUDGET instances."""
    for check in chain.from_iterable(SUITES[name] for name in names):
        _refuse_past_budget(check, max_n)
