import ast
import random
from pathlib import Path

import pytest

from rsinv import greene, permutations, verify
from rsinv.enumeration import layered_from_composition
from rsinv.errors import InstanceTooLarge, InvalidPermutation
from rsinv.greene import (
    _cached_profile,
    _orbit_key,
    _subset_profile,
    k_decreasing_profile,
    k_increasing_profile,
    longest_k_decreasing,
    longest_k_increasing,
    oracle_is_dually_gfk_tight,
    oracle_is_dually_gfk_tight_both_ways,
    oracle_is_gfk_tight,
    oracle_is_gfk_tight_both_ways,
)
from rsinv.insertion import is_dually_gfk_tight, is_gfk_tight, rsk
from rsinv.permutations import (
    all_permutations,
    contains_pattern,
    decreasing,
    identity,
    inverse,
    jog_lengths,
    longest_decreasing,
    prefix_lds_lengths,
    record_breakers,
    reverse,
)
from rsinv.tableaux import shape
from rsinv.verify import CHECKS, brute_count_general


def test_longest_k_increasing_examples():
    p = (7, 4, 1, 8, 5, 2, 9, 6, 3)
    assert longest_k_increasing(p, 2) == 6
    # the exhibited 2-increasing witness 748596 gives the matching lower bound
    witness = (7, 4, 8, 5, 9, 6)
    assert max(prefix_lds_lengths(witness)) == 2 and len(witness) == 6
    assert longest_k_increasing((6, 7, 3, 4, 8, 1, 2, 5, 9), 1) == 4
    assert longest_k_increasing(identity(6), 1) == 6


def test_longest_k_decreasing_examples():
    p = (2, 1, 5, 4, 3, 9, 8, 7, 6)
    assert longest_k_decreasing(p, 1) == 4
    assert longest_k_decreasing(p, 2) == 7
    for k in range(1, 5):
        assert longest_k_decreasing(identity(6), k) == k


def test_profiles_saturate():
    p = (3, 1, 4, 2)
    inc = k_increasing_profile(p)
    dec = k_decreasing_profile(p)
    assert inc == (0, 2, 4, 4, 4)
    assert dec == (0, 2, 4, 4, 4)
    assert longest_k_increasing(p, 9) == 4


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        longest_k_increasing((1, 2), 0)


def test_oracle_cap(monkeypatch):
    assert greene.oracle_cap() == greene.ORACLE_CAP == 16
    for call in (
        lambda p: longest_k_increasing(p, 1),
        oracle_is_gfk_tight,
        oracle_is_dually_gfk_tight,
    ):
        with pytest.raises(InstanceTooLarge):
            call(identity(17))
    with pytest.raises(InstanceTooLarge):
        brute_count_general(9)
    monkeypatch.setattr(verify, "BRUTE_COUNT_CAP", 4)
    with pytest.raises(InstanceTooLarge, match="factorial scan capped at n <= 4, got 5"):
        brute_count_general(5)
    assert brute_count_general(4) == 16


#: every entry point to the oracle, each a function of the word alone
ORACLE_CALLS = (
    k_increasing_profile,
    k_decreasing_profile,
    lambda p: longest_k_increasing(p, 1),
    lambda p: longest_k_decreasing(p, 1),
    oracle_is_gfk_tight,
    oracle_is_dually_gfk_tight,
    oracle_is_gfk_tight_both_ways,
    oracle_is_dually_gfk_tight_both_ways,
    verify._jog_lower_bound,
)


def test_oracle_cap_is_checked_on_cache_hits(monkeypatch):
    p = (2, 4, 1, 5, 3)
    assert k_increasing_profile(p) == (0, 3, 5, 5, 5, 5)
    assert k_increasing_profile(p) == (0, 3, 5, 5, 5, 5)  # now a cache hit
    for call in ORACLE_CALLS:
        call(p)  # every orbit each call looks up is now cached
    monkeypatch.setattr(greene, "ORACLE_CAP", 4)
    for call in ORACLE_CALLS:
        with pytest.raises(InstanceTooLarge):
            call(p)
    monkeypatch.undo()
    for call in ORACLE_CALLS:
        with pytest.raises(InstanceTooLarge):
            call(identity(17))


def reverse_complement(p):
    n = len(p)
    return tuple(n + 1 - v for v in reversed(p))


def reference_subset_profile(values):
    # The oracle's definition, walked literally: every one of the 2^n
    # position subsets, each with the longest decreasing chain it induces.
    n = len(values)
    best = [0] * (n + 1)
    chosen = []  # (value, longest chain ending here)

    def explore(i, longest):
        if i == n:
            if len(chosen) > best[longest]:
                best[longest] = len(chosen)
            return
        explore(i + 1, longest)
        x = values[i]
        ending = 1
        for v, c in chosen:
            if v > x and c >= ending:
                ending = c + 1
        chosen.append((x, ending))
        explore(i + 1, ending if ending > longest else longest)
        chosen.pop()

    explore(0, 0)
    for k in range(1, n + 1):
        if best[k] < best[k - 1]:
            best[k] = best[k - 1]
    return tuple(best)


def test_symmetry_keyed_profile_equals_the_raw_scan():
    # The dynamic programme on p and on each image under the symmetries,
    # and the profile served from the cache keyed by the least of p, p^-1,
    # p^rc and (p^rc)^-1, must all be the subset walk of p itself.
    _cached_profile.cache_clear()
    for n in range(8):
        for p in all_permutations(n):
            raw = reference_subset_profile(p)
            assert k_increasing_profile(p) == raw, p
            rc = reverse_complement(p)
            images = (p, inverse(p), rc, inverse(rc))
            assert all(_subset_profile(image) == raw for image in images), p
    # Reversal is not a symmetry: it swaps increasing and decreasing.
    assert _subset_profile((1, 2, 3)) != _subset_profile(reverse((1, 2, 3)))
    assert _cached_profile.cache_info().maxsize is not None


def test_equal_profiles_are_one_tuple():
    # 2134 and 1324 lie in different orbits, both of shape (3, 1)
    _cached_profile.cache_clear()
    first = k_increasing_profile((2, 1, 3, 4))
    p, q = (2, 1, 3, 4), (1, 3, 2, 4)
    assert _orbit_key(p, inverse(p)) != _orbit_key(q, inverse(q))
    assert k_increasing_profile((1, 3, 2, 4)) is first


def test_subset_profile_equals_the_subset_walk_at_large_n():
    # every n <= 7 is covered above
    rng = random.Random(9)
    words = [tuple(rng.sample(range(1, n + 1), n)) for n in range(12, 17) for _ in range(2)]
    words += [identity(16), decreasing(16), layered_from_composition((3, 1, 4, 1, 5, 2))]
    for p in words:
        assert _subset_profile(p) == reference_subset_profile(p), p


def from_scratch(values):
    # _subset_profile with its memo of the last run emptied first
    greene._last_run = (), [{(): 0}]
    return _subset_profile(values)


def test_resumed_programme_equals_a_run_from_scratch_in_any_order():
    # A run resumes from the states after the prefix its word shares with
    # the last word of its length.  On every permutation with n <= 8, in
    # lexicographic order and in a shuffled one, and on long words that
    # share prefixes, with shorter words between them, it answers as a run
    # from an emptied memo.
    words = [p for n in range(9) for p in all_permutations(n)]
    scratch = {p: from_scratch(p) for p in words}
    rng = random.Random(24)
    for shuffled in (False, True):
        if shuffled:
            rng.shuffle(words)
        for p in words:
            assert _subset_profile(p) == scratch[p], (shuffled, p)
    mixed = []
    for n in range(12, 17):
        w = rng.sample(range(1, n + 1), n)
        for _ in range(6):
            keep = rng.randrange(n - 1)
            tail = w[keep:]
            rng.shuffle(tail)
            w = w[:keep] + tail
            mixed.append(tuple(w))
            if rng.random() < 0.5:
                mixed.append(rng.choice(words))
    expected = [from_scratch(p) for p in mixed]
    for p, profile in zip(mixed, expected):
        assert _subset_profile(p) == profile, p


def test_resumed_programme_edge_cases():
    # the empty word and a word of length 1 between two long words
    from_scratch((4, 1, 3, 2))
    assert _subset_profile(()) == (0,) and _subset_profile((1,)) == (0, 1)
    assert _subset_profile((4, 1, 2, 3)) == from_scratch((4, 1, 2, 3))
    # the same word twice in a row
    p = (5, 2, 7, 1, 3, 6, 4)
    assert _subset_profile(p) == _subset_profile(p) == from_scratch(p)
    # a miss after the profile cache is cleared, which leaves the memo: the
    # same key twice in a row
    _cached_profile.cache_clear()
    first = k_increasing_profile(p)
    _cached_profile.cache_clear()
    assert greene._last_run[0] == _orbit_key(p, inverse(p))
    assert k_increasing_profile(p) == first == from_scratch(p)
    assert _cached_profile.cache_info().misses == 1


def test_a_run_keeps_the_states_of_the_prefix_it_shares():
    # v and w share their first `shared` entries: w's run keeps the very
    # dicts v's run built after those prefixes, and builds the rest anew.
    v = (3, 7, 1, 8, 5, 2, 6, 4)
    for shared in range(len(v) - 1):
        w = v[:shared] + v[shared:][::-1]
        profile = from_scratch(w)
        from_scratch(v)
        before = greene._last_run[1]
        assert _subset_profile(w) == profile, w
        after = greene._last_run[1]
        assert len(after) == len(before) == len(v) - 1
        assert all(a is b for a, b in zip(after[: shared + 1], before)), shared
        assert not any(a is b for a, b in zip(after[shared + 1 :], before[shared + 1 :])), shared


def test_references_use_no_insertion_and_no_patience_sorting():
    # The oracle and the pattern search are what the insertion-based and
    # patience-sorting answers are checked against, so they may use neither.
    patience = {"longest_decreasing", "prefix_lds_lengths", "record_breakers"}
    tree = ast.parse(Path(greene.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "insertion" not in (node.module or ""), ast.dump(node)
            assert not patience & {alias.name for alias in node.names}, ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any("insertion" in alias.name for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            assert getattr(node, "id", getattr(node, "attr", None)) not in patience
    tree = ast.parse(Path(permutations.__file__).read_text(encoding="utf-8"))
    (search,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "contains_pattern"
    ]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(search)
        if isinstance(node, ast.Call)
    }
    assert not called & (patience | {"avoids"}), called


def test_no_environment_reads_and_no_oracle_in_enumeration():
    # Each brute-force cap is a constant in the module that enforces it,
    # and the polynomial counts in enumeration leave the oracle to verify.
    src = Path(greene.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"environ", "getenv"}, path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & {"environ", "getenv"}, path.name
    imported = set()
    for node in ast.walk(ast.parse((src / "enumeration.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not any("greene" in name for name in imported), imported


def test_oracle_refuses_a_non_permutation():
    for word in ((0, 1), (-1, 1), (1, 1), (3, 1), (5, 3, 9), (None, 1), ("a", 1), (2.0, 1.0)):
        for call in ORACLE_CALLS:
            with pytest.raises(InvalidPermutation):
                call(word)


def test_one_inverse_gives_the_orbit_key_the_profile_and_the_jogs():
    # the key is exactly the least of the four images, and the inverse the
    # helper returns is p^-1, from whose runs the predicates read the jogs
    # of p; the profile is checked against the cached lookup at n <= 8 and
    # the uncached programme at n = 12-16
    for n in range(9):
        for p in all_permutations(n):
            q = inverse(p)
            rc = reverse_complement(p)
            assert _orbit_key(p, q) == min(p, q, rc, inverse(rc)), p
            profile, inv = greene._profile_and_inverse(p)
            assert inv == q and profile == k_increasing_profile(p), p
    rng = random.Random(12)
    for n in range(12, 17):
        for _ in range(3):
            p = tuple(rng.sample(range(1, n + 1), n))
            profile, inv = greene._profile_and_inverse(p)
            assert profile == _subset_profile(p) and inv == inverse(p), p


def test_both_ways_predicates_equal_their_two_call_forms():
    # p and p^-1 share a profile, as do rev p and rev(p^-1); each
    # predicate must still read the jogs of both words.  Counting the
    # words where only one of the pair is tight shows that this happens.
    mixed = mixed_dual = 0
    for n in range(9):
        for p in all_permutations(n):
            q = inverse(p)
            tight, tight_q = oracle_is_gfk_tight(p), oracle_is_gfk_tight(q)
            dual, dual_q = oracle_is_dually_gfk_tight(p), oracle_is_dually_gfk_tight(q)
            assert oracle_is_gfk_tight_both_ways(p) == (tight and tight_q), p
            assert oracle_is_dually_gfk_tight_both_ways(p) == (dual and dual_q), p
            assert is_gfk_tight(p) == (tuple(jog_lengths(p)) == shape(rsk(p)[0])), p
            mixed += tight != tight_q
            mixed_dual += dual != dual_q
    assert mixed and mixed_dual
    rng = random.Random(16)
    words = [tuple(rng.sample(range(1, n + 1), n)) for n in range(12, 17) for _ in range(3)]
    words += [decreasing(16), layered_from_composition((3, 1, 4, 1, 5, 2))]
    for p in words:
        q = inverse(p)
        pair = oracle_is_gfk_tight(p) and oracle_is_gfk_tight(q)
        dual = oracle_is_dually_gfk_tight(p) and oracle_is_dually_gfk_tight(q)
        assert oracle_is_gfk_tight_both_ways(p) == pair, p
        assert oracle_is_dually_gfk_tight_both_ways(p) == dual, p


def test_is_gfk_tight_examples():
    for tight in (is_gfk_tight, oracle_is_gfk_tight):
        assert tight((6, 7, 3, 4, 8, 1, 2, 5, 9))
        assert tight((1, 4, 2, 3))
        assert not tight((1, 3, 4, 2))
        assert tight(identity(7))
        assert tight(())


def test_is_dually_gfk_tight_examples():
    for tight in (is_dually_gfk_tight, oracle_is_dually_gfk_tight):
        assert tight((2, 1, 5, 4, 3, 9, 8, 7, 6))
        assert not tight((4, 2, 3, 1))
        assert tight(identity(7))


def test_fast_predicates_agree_with_oracle_and_pattern_scan():
    for n in range(7):
        for p in all_permutations(n):
            assert is_gfk_tight(p) == oracle_is_gfk_tight(p), p
            assert is_dually_gfk_tight(p) == oracle_is_dually_gfk_tight(p), p
            assert (longest_decreasing(p) > 2) == contains_pattern(p, (3, 2, 1)), p
            assert (longest_decreasing(reverse(p)) > 2) == contains_pattern(p, (1, 2, 3)), p


def test_record_breakers_examples():
    assert record_breakers((6, 5, 7, 4, 2, 1, 3)) == {1, 2, 4, 5, 6}
    assert record_breakers(identity(6)) == {1}
    assert record_breakers(decreasing(6)) == {1, 2, 3, 4, 5, 6}
    assert record_breakers(()) == set()


def test_prefix_lds_lengths():
    assert prefix_lds_lengths((6, 5, 7, 4, 2, 1, 3)) == [1, 2, 2, 3, 4, 5, 5]
    assert prefix_lds_lengths(()) == []


def quadratic_prefix_lds_lengths(p):
    # longest decreasing subsequence ending at each position, by scanning
    # every earlier position
    ending, out = [], []
    for j, x in enumerate(p):
        ending.append(1 + max((ending[i] for i in range(j) if p[i] > x), default=0))
        out.append(max(ending))
    return out


def test_prefix_lds_lengths_match_quadratic_reference():
    for n in range(9):
        for p in all_permutations(n):
            assert prefix_lds_lengths(p) == quadratic_prefix_lds_lengths(p), p
    rng = random.Random(3)
    word = [rng.randrange(1, 300) for _ in range(2000)]  # repeated values too
    assert prefix_lds_lengths(word) == quadratic_prefix_lds_lengths(word)


def test_profile_monotone_and_saturating():
    assert CHECKS["profile-monotone"](7).ok


def test_tight_against_compares_every_prefix_sum():
    # the k longest lengths must sum to profile[k] for every k up to the
    # number of lengths, the last one included; profile[0] is 0
    assert greene._tight_against((0, 3, 5, 6, 6, 6, 6), [3, 2, 1])
    assert not greene._tight_against((0, 3, 5, 5, 6, 6, 6), [3, 2, 1])
    assert not greene._tight_against((0, 4, 5, 6, 6, 6, 6), [3, 2, 1])
    assert greene._tight_against((0, 1, 2, 3), [1, 1, 1])
    assert not greene._tight_against((0, 1, 2, 2), [1, 1, 1])
    assert greene._tight_against((0,), [])


def test_jog_lower_bound():
    result = CHECKS["jog-lower-bound"](8)
    assert result.ok, result.failures


def test_record_breakers_are_first_column():
    result = CHECKS["record-breaker-column"](7)
    assert result.ok, result.failures
