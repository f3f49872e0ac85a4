import ast
import random
from pathlib import Path

import pytest

from rsinv import greene, permutations, verify
from rsinv.enumeration import layered_from_composition
from rsinv.errors import InstanceTooLarge, InvalidPermutation
from rsinv.greene import (
    _cached_profile,
    _canonical,
    _subset_profile,
    k_decreasing_profile,
    k_increasing_profile,
    longest_k_decreasing,
    longest_k_increasing,
    oracle_is_dually_gfk_tight,
    oracle_is_gfk_tight,
)
from rsinv.insertion import is_dually_gfk_tight, is_gfk_tight
from rsinv.permutations import (
    all_permutations,
    contains_pattern,
    decreasing,
    identity,
    inverse,
    longest_decreasing,
    prefix_lds_lengths,
    record_breakers,
    reverse,
)
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


def test_oracle_cap_is_checked_on_cache_hits(monkeypatch):
    p = (2, 4, 1, 5, 3)
    assert k_increasing_profile(p) == (0, 3, 5, 5, 5, 5)
    assert k_increasing_profile(p) == (0, 3, 5, 5, 5, 5)  # now a cache hit
    monkeypatch.setattr(greene, "ORACLE_CAP", 4)
    with pytest.raises(InstanceTooLarge):
        k_increasing_profile(p)
    with pytest.raises(InstanceTooLarge):
        oracle_is_gfk_tight(p)


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
    assert _canonical((2, 1, 3, 4)) != _canonical((1, 3, 2, 4))
    assert k_increasing_profile((1, 3, 2, 4)) is first


def test_subset_profile_equals_the_subset_walk_at_large_n():
    # every n <= 7 is covered above
    rng = random.Random(9)
    words = [tuple(rng.sample(range(1, n + 1), n)) for n in range(12, 17) for _ in range(2)]
    words += [identity(16), decreasing(16), layered_from_composition((3, 1, 4, 1, 5, 2))]
    for p in words:
        assert _subset_profile(p) == reference_subset_profile(p), p


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
        with pytest.raises(InvalidPermutation):
            k_increasing_profile(word)


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


def test_jog_lower_bound():
    result = CHECKS["jog-lower-bound"](8)
    assert result.ok, result.failures


def test_record_breakers_are_first_column():
    result = CHECKS["record-breaker-column"](7)
    assert result.ok, result.failures
