import random

import pytest
from hypothesis import given, strategies as st

from rsinv import insertion, tableaux
from rsinv.enumeration import count_A, generalized_layered, involutions, layered_from_composition
from rsinv.errors import (
    DuplicateEntry,
    InvalidTableau,
    NotInvolution,
    ShapeMismatch,
)
from rsinv.permutations import all_permutations, decreasing, identity, inverse, reverse
from rsinv.insertion import f_involution, inverse_rsk, row_insert, rsk, tableau_of_involution
from rsinv.tableaux import shape, transpose
from rsinv.verify import CHECKS


@st.composite
def perms(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


def test_row_insert():
    assert row_insert(((1, 2),), 3) == (((1, 2, 3),), 1)
    assert row_insert(((1, 4), (2,)), 3) == (((1, 3), (2, 4)), 2)
    t = ()
    for x in range(1, 6):
        t, landing = row_insert(t, x)
        assert landing == 1
    assert t == ((1, 2, 3, 4, 5),)


def test_row_insert_duplicate():
    with pytest.raises(DuplicateEntry):
        row_insert(((1, 3), (2,)), 3)


def test_rsk_worked_examples():
    layered = ((1, 3, 6), (2, 4, 7), (5, 8), (9,))
    assert rsk((2, 1, 5, 4, 3, 9, 8, 7, 6)) == (layered, layered)
    assert rsk(identity(4)) == (((1, 2, 3, 4),), ((1, 2, 3, 4),))
    flipped = ((1, 2, 5, 9), (3, 4, 8), (6, 7))
    assert rsk((6, 7, 3, 4, 8, 1, 2, 5, 9)) == (flipped, flipped)
    assert rsk(()) == ((), ())


def test_inverse_rsk_examples():
    flipped = ((1, 2, 5, 9), (3, 4, 8), (6, 7))
    assert inverse_rsk((flipped, flipped)) == (6, 7, 3, 4, 8, 1, 2, 5, 9)
    column = tuple((i,) for i in range(1, 6))
    assert inverse_rsk((column, column)) == decreasing(5)


def test_inverse_rsk_rejects():
    with pytest.raises(ShapeMismatch):
        inverse_rsk((((1, 2),), ((1,), (2,))))
    with pytest.raises(InvalidTableau):
        inverse_rsk((((2, 1),), ((1, 2),)))


def test_tableau_of_involution():
    assert tableau_of_involution((2, 1, 5, 4, 3, 9, 8, 7, 6)) == (
        (1, 3, 6),
        (2, 4, 7),
        (5, 8),
        (9,),
    )
    assert tableau_of_involution(identity(5)) == ((1, 2, 3, 4, 5),)
    assert tableau_of_involution((1, 3, 2, 5, 4, 6, 7)) == ((1, 2, 4, 6, 7), (3, 5))


def test_tableau_of_involution_rejects():
    with pytest.raises(NotInvolution):
        tableau_of_involution((1, 3, 4, 2))


def test_f_involution_examples():
    assert f_involution((2, 1, 5, 4, 3, 9, 8, 7, 6)) == (6, 7, 3, 4, 8, 1, 2, 5, 9)
    assert f_involution((6, 5, 7, 4, 2, 1, 3)) == (1, 3, 2, 4, 5, 7, 6)
    for n in range(7):
        assert f_involution(identity(n)) == decreasing(n)


def test_f_involution_rejects_non_involution():
    with pytest.raises(NotInvolution):
        f_involution((2, 3, 1))


def seeded_involution(seed, n, paired):
    # int(paired * n) // 2 two-cycles on random entries, the rest fixed
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    word = list(range(1, n + 1))
    for i in range(int(paired * n) // 2):
        a, b = order[2 * i], order[2 * i + 1]
        word[a - 1], word[b - 1] = b, a
    return tuple(word)


def assert_both_routes_are_f(q):
    # one bump per 2-cycle builds P(q), and the peel of a tableau S is the
    # involution inverse_rsk((S, S))
    t = rsk(q)[0]
    assert tableau_of_involution(q) == t, q
    assert insertion._peel(t) == q, q
    # f's definition: reverse bump the transposed tableau against itself
    flipped = transpose(t)
    image = inverse_rsk((flipped, flipped))
    assert insertion._peel(flipped) == image, q
    assert insertion._by_transpose(t) == image, q
    assert insertion._by_evacuation(q, t) == image, q
    assert f_involution(q) == image, q


def test_f_routes_agree_on_all_involutions_up_to_9():
    count = 0
    for n in range(10):
        for q in involutions(n):
            assert_both_routes_are_f(q)
            count += 1
    assert count == 3736


@pytest.mark.parametrize("paired", [0.2, 0.7, 1.0])
def test_f_routes_agree_on_large_seeded_involutions(paired):
    assert_both_routes_are_f(seeded_involution(7, 2003, paired))


def test_f_route_follows_the_shape(monkeypatch):
    taken = []

    def record(name):
        route = getattr(insertion, name)

        def recorded(*args):
            taken.append(name)
            return route(*args)

        monkeypatch.setattr(insertion, name, recorded)

    def general_rsk(p):
        raise AssertionError(f"f called the general rsk on {p}")

    record("_by_transpose")
    record("_by_evacuation")
    monkeypatch.setattr(insertion, "rsk", general_rsk)
    # many fixed points: T is wide and short, so its transpose is tall
    f_involution(seeded_involution(7, 2003, 0.2))
    # no fixed points: T is near square, and evacuation costs one more insertion
    f_involution(seeded_involution(7, 2003, 1.0))
    assert taken == ["_by_evacuation", "_by_transpose"]


def test_tableaux_the_library_built_are_not_checked_again(monkeypatch):
    # f inserts T itself and generalized_layered builds both tableaux of
    # each pair, so only a tableau from outside, as inverse_rsk gets, is
    # checked.
    def check_tableau(t):
        raise AssertionError(f"checked a tableau the library built: {t}")

    monkeypatch.setattr(tableaux, "check_tableau", check_tableau)
    for paired in (0.2, 1.0):  # the evacuation route, then the transpose route
        q = seeded_involution(7, 2003, paired)
        assert f_involution(f_involution(q)) == q
    assert len(set(generalized_layered(6))) == count_A(6)
    with pytest.raises(AssertionError, match="checked a tableau"):
        inverse_rsk((((1, 2),), ((1, 2),)))


def seeded_layered(seed, n):
    # layers of random lengths 1..40, the last one cut to fit
    rng = random.Random(seed)
    parts = []
    while sum(parts) < n:
        parts.append(min(rng.randint(1, 40), n - sum(parts)))
    return layered_from_composition(parts)


KERNEL_WORDS = {
    "random": lambda: tuple(random.Random(3).sample(range(1, 2001), 2000)),
    "decreasing": lambda: decreasing(500),
    "layered": lambda: seeded_layered(3, 2000),
    "paired-0.2": lambda: seeded_involution(3, 1500, 0.2),
    "paired-0.7": lambda: seeded_involution(3, 1000, 0.7),
    "paired-1.0": lambda: seeded_involution(3, 800, 1.0),
}


@pytest.mark.parametrize("kind", sorted(KERNEL_WORDS))
def test_bump_kernels_agree_on_large_seeded_words(kind):
    # rsk's inline bump loop against P built by successive row_insert calls
    # (Q from their landing rows), and the inline reverse bumps of
    # inverse_rsk and the peel against each other.
    p = KERNEL_WORDS[kind]()
    p_tab, q_rows = (), []
    for step, x in enumerate(p, start=1):
        p_tab, landing = row_insert(p_tab, x)
        if landing > len(q_rows):
            q_rows.append([])
        q_rows[landing - 1].append(step)
    assert rsk(p) == (p_tab, tableaux.as_tableau(q_rows))
    assert inverse_rsk(rsk(p)) == p
    if kind.startswith("paired"):
        t = tableau_of_involution(p)
        for s in (t, transpose(t)):
            assert insertion._peel(s) == inverse_rsk((s, s))


@given(perms(max_n=7))
def test_roundtrip_property(p):
    assert inverse_rsk(rsk(p)) == p


@given(perms(max_n=7))
def test_schuetzenberger_property(p):
    p_tab, q_tab = rsk(p)
    assert rsk(inverse(p)) == (q_tab, p_tab)
    assert shape(p_tab) == shape(q_tab)


@given(perms(max_n=7))
def test_reversal_property(p):
    assert rsk(reverse(p))[0] == transpose(rsk(p)[0])


def test_involutions_have_symmetric_tableaux():
    for n in range(8):
        for p in involutions(n):
            p_tab, q_tab = rsk(p)
            assert p_tab == q_tab


def test_exhaustive_rsk_suite():
    # descent transport, the inverse swap and f(f(q)) = q run in
    # tests/test_acceptance.py
    for result in (CHECKS["roundtrip"](7), CHECKS["reversal-transpose"](7)):
        assert result.ok, result.failures


def test_all_permutations_reached_by_inverse_rsk():
    # every tableau pair of a common shape comes from exactly one permutation
    seen = set()
    for p in all_permutations(5):
        seen.add(rsk(p))
    assert len(seen) == 120
