import random
import tracemalloc
from bisect import bisect_right
from functools import partial
from itertools import permutations

import pytest

from rsinv import insertion, tableaux
from rsinv.enumeration import count_A, generalized_layered, involutions, layered_from_composition
from rsinv.errors import (
    DuplicateEntry,
    InvalidTableau,
    NotInvolution,
    ShapeMismatch,
)
from rsinv.permutations import decreasing, identity, inverse, jog_lengths, reverse
from rsinv.insertion import (
    f_involution,
    inverse_rsk,
    is_dually_gfk_tight,
    is_gfk_tight,
    row_insert,
    rsk,
    tableau_of_involution,
)
from rsinv.tableaux import layered_tableau, shape, transpose
from rsinv.verify import CHECKS


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


def test_row_insert_refuses_rows_that_are_not_a_partial_tableau():
    # a decreasing row, a decreasing column, a repeated entry, an empty row
    for rows, x in ((((2, 1),), 3), (((3,), (1,)), 2), (((1, 3), (3,)), 2), (((1,), ()), 2)):
        with pytest.raises(InvalidTableau):
            row_insert(rows, x)
    # any set of distinct entries is allowed
    assert row_insert(((2, 7), (5,)), 3) == (((2, 3), (5, 7)), 2)


def test_rsk_worked_examples():
    layered = ((1, 3, 6), (2, 4, 7), (5, 8), (9,))
    assert rsk((2, 1, 5, 4, 3, 9, 8, 7, 6)) == (layered, layered)
    # the capped P-only insertion: 4 rows fit a cap of 4, not one of 3
    assert insertion._shape_within((2, 1, 5, 4, 3, 9, 8, 7, 6), 4) == (3, 3, 2, 1)
    assert insertion._shape_within((2, 1, 5, 4, 3, 9, 8, 7, 6), 3) is None
    assert insertion._shape_within((), 0) == ()
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


def seeded_composition(seed, n, most):
    # parts of random sizes 1..most, the last one cut to fit
    rng = random.Random(seed)
    parts = []
    while sum(parts) < n:
        parts.append(min(rng.randint(1, most), n - sum(parts)))
    return parts


def peel(s):
    # insertion._peel of the standard tableau s: s is s^T transposed
    return insertion._peel(transpose(s))


def both_routes(t, evacuated):
    # the two routes of insertion.f_involution, each run directly: the peel
    # of t^T, and the reverse of inverse_rsk((t, evac(t)))
    return insertion._peel(t), reverse(insertion._inverse_rsk(t, evacuated))


def reverse_complement(q):
    return tuple(len(q) + 1 - x for x in reversed(q))


def assert_both_routes_are_f(q):
    # one bump per 2-cycle builds P(q), and the peel of a tableau S is the
    # involution inverse_rsk((S, S))
    t = rsk(q)[0]
    assert tableau_of_involution(q) == t, q
    assert peel(t) == q, q
    # f's definition: reverse bump the transposed tableau against itself
    flipped = transpose(t)
    image = inverse_rsk((flipped, flipped))
    evacuated = insertion._involution_tableau(reverse_complement(q))
    assert both_routes(t, evacuated) == (image, image), q
    assert f_involution(q) == image, q
    # GFK-tightness read from q's jogs, against the shape of P(q)
    assert is_gfk_tight(q) == (tuple(jog_lengths(q)) == shape(t)), q


def test_f_routes_agree_on_all_involutions_up_to_9():
    count = 0
    for n in range(10):
        for q in involutions(n):
            assert_both_routes_are_f(q)
            count += 1
    assert count == 3736


def seeded_tight(most):
    # f of a layered permutation is GFK-tight; on its layered tableau, f's
    # route rule picks the evacuation route with parts of at most 3, and
    # the peel with at most 1 (one row, whose transpose is all tail), 40 or
    # 400; both routes give f(layered(c))
    c = seeded_composition(7, 2003, most)
    t = layered_tableau(c)
    q = f_involution(layered_from_composition(c))
    assert both_routes(t, layered_tableau(c[::-1])) == (q, q), most
    assert is_gfk_tight(q), most
    return q


LARGE_INVOLUTIONS = {
    **{str(paired): partial(seeded_involution, 7, 2003, paired) for paired in (0.2, 0.7, 1.0)},
    **{f"tight-{most}": partial(seeded_tight, most) for most in (1, 3, 40, 400)},
}


@pytest.mark.parametrize("kind", LARGE_INVOLUTIONS)
def test_f_routes_agree_on_large_seeded_involutions(kind):
    assert_both_routes_are_f(LARGE_INVOLUTIONS[kind]())


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

    record("_peel")
    record("_inverse_rsk")
    monkeypatch.setattr(insertion, "rsk", general_rsk)
    # many fixed points: T is wide and short, so its transpose is tall
    f_involution(seeded_involution(7, 2003, 0.2))
    # no fixed points: T is near square, and evacuation costs one more insertion
    f_involution(seeded_involution(7, 2003, 1.0))
    # 70% paired: T^T has only lambda_2 rows of two or more boxes to bump
    # through, fewer than the rows evacuation reverse bumps T through
    f_involution(seeded_involution(7, 2003, 0.7))
    assert taken == ["_inverse_rsk", "_peel", "_peel"]


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
    return layered_from_composition(seeded_composition(seed, n, 40))


KERNEL_WORDS = {
    "random": lambda: tuple(random.Random(3).sample(range(1, 2001), 2000)),
    "decreasing": lambda: decreasing(500),
    "layered": lambda: seeded_layered(3, 2000),
    "tight": lambda: f_involution(seeded_layered(3, 2000)),
    "paired-0.01": lambda: seeded_involution(3, 2000, 0.01),
    "paired-0.2": lambda: seeded_involution(3, 1500, 0.2),
    "paired-0.7": lambda: seeded_involution(3, 1000, 0.7),
    "paired-1.0": lambda: seeded_involution(3, 800, 1.0),
}


@pytest.mark.parametrize("kind", sorted(KERNEL_WORDS))
def test_bump_kernels_agree_on_large_seeded_words(kind):
    # rsk's inline bump loop against P built by successive row_insert calls
    # (Q from their landing rows), and the inline reverse bumps of
    # inverse_rsk and the peel against each other.  GFK-tightness of p and
    # of its reverse against the shapes of their full insertions: the words
    # take both sides of the capped insertion, and both outcomes.
    p = KERNEL_WORDS[kind]()
    p_tab, q_rows = (), []
    for step, x in enumerate(p, start=1):
        p_tab, landing = row_insert(p_tab, x)
        if landing > len(q_rows):
            q_rows.append([])
        q_rows[landing - 1].append(step)
    assert rsk(p) == (p_tab, tableaux.as_tableau(q_rows))
    assert inverse_rsk(rsk(p)) == p
    assert is_gfk_tight(p) == (tuple(jog_lengths(p)) == shape(p_tab))
    r = reverse(p)
    assert is_dually_gfk_tight(p) == (tuple(jog_lengths(r)) == shape(rsk(r)[0]))
    if kind.startswith("paired"):
        t = tableau_of_involution(p)
        for s in (t, transpose(t)):
            assert peel(s) == inverse_rsk((s, s))


def two_columns(n):
    # f of the two-row involution with every entry in a 2-cycle, (n-1, n,
    # n-3, n-2, ..., 1, 2): two columns of n/2, no one-box row for the tail
    return tuple(x for i in range(n - 1, 0, -2) for x in (i, i + 1))


def hook(n):
    # g(c) = f(layered(c)) with c = (n/2, 1, ..., 1), 1 ... n/2-1 followed
    # by n ... n/2: a hook with arm and leg near n/2, so one list row
    m = n // 2
    return (*range(1, m), *range(n, m - 1, -1))


TALL_INVOLUTIONS = {
    "decreasing": lambda: decreasing(2000),
    "f-of-paired-0.2": lambda: f_involution(seeded_involution(5, 2000, 0.2)),
    "hook": lambda: hook(2000),
    "two-columns": lambda: two_columns(2000),
    "paired-0.7": lambda: seeded_involution(5, 2000, 0.7),
}


def assert_tail_kernels_are_the_list_loops(q):
    # The list rows over a deque tail, forward and back, against rsk's
    # inline list loop and inverse_rsk's, which keep no tail; returns T.
    # As T == P(q) == Q(q), inverse_rsk((T, T)) is q itself.
    t = insertion._involution_tableau(q)
    assert t == rsk(q)[0], q
    assert peel(t) == q, q
    flipped = transpose(t)
    assert peel(flipped) == insertion._inverse_rsk(flipped, flipped), q
    return t


def test_tail_kernels_agree_with_the_list_loops_exhaustively():
    # every involution with n <= 10: those with n <= 9 are compared in
    # test_f_routes_agree_on_all_involutions_up_to_9
    for q in involutions(10):
        assert_tail_kernels_are_the_list_loops(q)
    # the capped insertion at every cap up to the row count, past which the
    # cap never binds
    for n in range(9):
        for p in permutations(range(1, n + 1)):
            lengths = shape(rsk(p)[0])
            for most in range(len(lengths) + 1):
                expected = lengths if most == len(lengths) else None
                assert insertion._shape_within(p, most) == expected, (p, most)


@pytest.mark.parametrize("kind", TALL_INVOLUTIONS)
def test_tail_kernels_agree_with_the_list_loops_on_tall_tableaux(kind):
    q = TALL_INVOLUTIONS[kind]()
    lengths = shape(assert_tail_kernels_are_the_list_loops(q))
    assert insertion._shape_within(q, len(lengths)) == lengths
    assert insertion._shape_within(q, len(lengths) - 1) is None


def schensted(p):
    # Schensted's insertion as written: each row searched whole, from
    # column 0, and Q records step s in the row where P's is appended to.
    # The reference for rsk's loop, which probes next to the column a carry
    # left, and for inverse_rsk's reverse bumps.
    p_rows, q_rows = [], []
    for step, x in enumerate(p, start=1):
        for prow, qrow in zip(p_rows, q_rows):
            j = bisect_right(prow, x)
            if j == len(prow):
                prow.append(x)
                qrow.append(step)
                break
            prow[j], x = x, prow[j]
        else:
            p_rows.append([x])
            q_rows.append([step])
    return tableaux.as_tableau(p_rows), tableaux.as_tableau(q_rows)


def test_bump_loops_agree_with_schensted_exhaustively():
    count = 0
    for n in range(9):
        for p in permutations(range(1, n + 1)):
            pair = schensted(p)
            assert rsk(p) == pair, p
            assert inverse_rsk(pair) == p, p
            count += 1
    assert count == 46234


def drift(m):
    # (2, 4, ..., 2m, 2m+1, 2m-1, ..., 3, 1): each odd entry 2k - 1 < 2m
    # bumps 2k from column k of the first row, and it lands in column 1 of
    # the second, a one-box row: from k = 4 on, rsk's probe of column k - 1
    # is past the row's end, and it searches the row whole.
    return (*range(2, 2 * m + 1, 2), 2 * m + 1, *range(2 * m - 1, 0, -2))


def blocks(m):
    # (2m+1, ..., 3m, 2, 4, ..., 2m, 2m-1, 2m-3, ..., 1): the first two
    # blocks leave a first row of the even entries above a second row of
    # 2m+1 .. 3m, each larger than all of the first.  Each odd entry 2k - 1
    # bumps 2k from column k, which lands in column 1 of the second row, as
    # long as the first: rsk searches left of the two columns it probes,
    # and inverse_rsk, carrying 2k back up, right of the two it probes.
    return (*range(2 * m + 1, 3 * m + 1), *range(2, 2 * m + 1, 2), *range(2 * m - 1, 0, -2))


SCALE_WORDS = {
    "random": lambda: tuple(random.Random(11).sample(range(1, 2001), 2000)),
    "reversed": lambda: reverse(random.Random(11).sample(range(1, 2001), 2000)),
    "hook": lambda: hook(2000),
    "two-columns": lambda: two_columns(2000),
    "paired-0.7": lambda: seeded_involution(11, 2000, 0.7),
    "drift": lambda: drift(1000),
    "blocks": lambda: blocks(667),
}


@pytest.mark.parametrize("kind", SCALE_WORDS)
def test_reverse_bumps_invert_the_forward_loop_at_scale(kind):
    # rsk probes the column a carry left, or the one left of it, before it
    # searches; each reverse bump probes right of that column.  Schensted's
    # insertion, searching every row whole, is the reference for both.  On
    # the involutions, the peel of T^T is f(q), whose tableau must be T^T.
    p = SCALE_WORDS[kind]()
    pair = schensted(p)
    assert rsk(p) == pair
    assert inverse_rsk(pair) == p
    if p == inverse(p):
        flipped = transpose(pair[0])
        image = insertion._peel(pair[0])
        assert image == f_involution(p)
        assert rsk(image) == (flipped, flipped)


def entries(x):
    # the ints nested in a tableau or a permutation
    return [x] if isinstance(x, int) else [v for item in x for v in entries(item)]


def test_outputs_hold_the_callers_int_objects():
    # An int past 256 made afresh is a new object, so a result that made
    # its own entries instead of moving the input's fails here.  f takes
    # the evacuation route at 20% paired and the peel at 100%; both routes
    # are also run directly.
    p = tuple(random.Random(5).sample(range(1, 1001), 1000))
    ids = {id(v) for v in p}
    p_tab, q_tab = rsk(p)
    assert {id(v) for v in entries(p_tab)} <= ids
    assert {id(v) for v in entries(q_tab)} <= ids
    assert {id(v) for v in entries(inverse_rsk((p_tab, q_tab)))} <= ids
    assert {id(v) for v in entries(row_insert(p_tab[1:], p_tab[0][0])[0])} <= ids
    for paired in (0.2, 1.0):
        q = seeded_involution(5, 1000, paired)
        ids = {id(v) for v in q}
        t = tableau_of_involution(q)
        evacuated = insertion._involution_tableau(reverse_complement(q))
        for result in (t, f_involution(q), *both_routes(t, evacuated)):
            assert {id(v) for v in entries(result)} <= ids


def test_recording_tableau_entries_are_plain_ints():
    # operator.index turns the entry True into the int 1
    q_tab = rsk((True, 2))[1]
    assert q_tab == ((1, 2),)
    assert all(type(v) is int for v in entries(q_tab))


def test_rsk_pair_keeps_about_two_pointers_an_entry():
    # Two tableaux of 8-byte slots hold 16 bytes an entry, plus a tuple
    # header for each row.  One new int an entry of Q adds 28 more.
    n = 20_000
    p = tuple(random.Random(1).sample(range(1, n + 1), n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair = rsk(p)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tableaux.size(pair[1]) == n
    assert kept / n < 24


def test_exhaustive_rsk_suite():
    # descent transport, the inverse swap and f(f(q)) = q run in
    # tests/test_acceptance.py
    for result in (CHECKS["roundtrip"](7), CHECKS["reversal-transpose"](7)):
        assert result.ok, result.failures
