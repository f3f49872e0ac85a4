import inspect
import random
from collections.abc import Iterator

import pytest
from hypothesis import given, strategies as st

from rsinv import direct, enumeration, greene, insertion, permutations, tableaux, verify
from rsinv.enumeration import layered_from_composition, layered_tableaux, standard_tableaux
from rsinv.errors import DomainError, InvalidTableau
from rsinv.insertion import inverse_rsk, rsk, tableau_of_involution
from rsinv.tableaux import (
    _is_layered_tableau,
    _satisfies_transposed_layer,
    _tableau_descents,
    conjugate,
    first_column,
    is_layered_tableau,
    layered_tableau,
    satisfies_transposed_layer,
    shape,
    tableau_descents,
    tableau_from_json,
    tableau_to_json,
    transpose,
    validate,
)

LAYERED = ((1, 3, 6), (2, 4, 7), (5, 8), (9,))
FLIPPED = ((1, 2, 5, 9), (3, 4, 8), (6, 7))


@st.composite
def tableaux_from_perms(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = tuple(draw(st.permutations(range(1, n + 1))))
    return rsk(p)[0]


def test_validate():
    assert validate(LAYERED)
    assert validate(())
    assert not validate(((2, 1),))
    assert not validate(((1, 2), (2,)))
    assert not validate(((1,), (2, 3)))  # row lengths must decrease
    assert not validate(((1, 2), ()))  # empty row
    assert not validate(((2, 3), (4, 5)))  # entries must be 1..n
    assert not validate(((1, 3), (2, 4), (4,)))
    # an entry that is not an integer is a violation, not an exception
    for t in (((1, None),), ((1, "a"),), ((1.0, 2.0),), ((1,), (2.0,)), (([1],),)):
        assert not validate(t), t
    assert validate(((True, 2),))
    # so is a row, or a tableau, that is not iterable
    for t in ((None,), ((1,), 2), 5, None):
        assert not validate(t), t


def test_inverse_rsk_refuses_float_entries():
    with pytest.raises(InvalidTableau):
        inverse_rsk((((1.0,),), ((1.0,),)))


def reference_validate(t):
    # the definition, one entry at a time
    rows = [list(row) for row in t]
    if any(len(row) == 0 for row in rows):
        return False
    if any(len(rows[r]) < len(rows[r + 1]) for r in range(len(rows) - 1)):
        return False
    entries = [v for row in rows for v in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if c + 1 < len(row) and v >= row[c + 1]:
                return False
            if r + 1 < len(rows) and c < len(rows[r + 1]) and v >= rows[r + 1][c]:
                return False
    return True


@st.composite
def perturbed_tableaux(draw):
    rows = [list(row) for row in draw(tableaux_from_perms(max_n=10))]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    kind = draw(st.sampled_from(["none", "swap", "shorten", "empty row", "zero"]))
    if kind == "swap" and len(cells) > 1:
        (r1, c1), (r2, c2) = draw(st.permutations(cells))[:2]
        rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
    elif kind == "shorten" and rows:
        # drop a row's last entry and renumber the rest 1..n-1 in order, so
        # that only the shape can be wrong
        rows[draw(st.integers(0, len(rows) - 1))].pop()
        rank = {v: i for i, v in enumerate(sorted(v for row in rows for v in row), 1)}
        rows = [[rank[v] for v in row] for row in rows]
    elif kind == "empty row":
        rows.insert(draw(st.integers(0, len(rows))), [])
    elif kind == "zero" and cells:
        r, c = draw(st.sampled_from(cells))
        rows[r][c] = 0
    return tuple(tuple(row) for row in rows)


@given(perturbed_tableaux())
def test_validate_agrees_with_the_definition(t):
    assert validate(t) == reference_validate(t)


def test_transpose():
    assert transpose(LAYERED) == FLIPPED
    assert transpose(((1, 2, 3),)) == ((1,), (2,), (3,))
    assert transpose(()) == ()


def _transpose_by_columns(t):
    # the definition, one column at a time: a scan of every row per column
    if not t:
        return ()
    return tuple(tuple(row[c] for row in t if len(row) > c) for c in range(len(t[0])))


def _conjugate_by_counting(s):
    # the definition: column c is as tall as the number of parts longer than c
    if not s:
        return ()
    return tuple(sum(1 for length in s if length > c) for c in range(max(s)))


def test_transpose_and_conjugate_agree_with_the_column_scans():
    tabs = [t for n in range(9) for t in standard_tableaux(n)]
    # wide and tall at n = 2000: an involution's tableau with 20% of its
    # entries in 2-cycles, a random permutation's P, a hook, and transposes
    n = 2000
    rng = random.Random(5)
    order = rng.sample(range(1, n + 1), n)
    pairs = dict(zip(order[:400:2], order[1:400:2]))
    pairs.update({b: a for a, b in pairs.items()})
    hook = (tuple(range(1, 1001)),) + tuple((v,) for v in range(1001, n + 1))
    for big in (
        tableau_of_involution(tuple(pairs.get(i, i) for i in range(1, n + 1))),
        rsk(tuple(rng.sample(range(1, n + 1), n)))[0],
        hook,
    ):
        tabs += [big, _transpose_by_columns(big)]
    for t in tabs:
        assert transpose(t) == _transpose_by_columns(t)
        assert conjugate(shape(t)) == _conjugate_by_counting(shape(t))
    assert conjugate((2, 1, 0)) == (2, 1)


@given(tableaux_from_perms())
def test_transpose_involution(t):
    assert transpose(transpose(t)) == t
    assert validate(transpose(t))
    assert shape(transpose(t)) == conjugate(shape(t))


def test_tableau_descents():
    assert tableau_descents(FLIPPED) == {2, 5}
    assert tableau_descents(((1, 2, 3, 4),)) == set()
    assert tableau_descents(((1,), (2,), (3,))) == {1, 2}


def test_descents_complement_under_transpose():
    for n in range(9):
        for t in standard_tableaux(n):
            full = set(range(1, n))
            assert tableau_descents(transpose(t)) == full - tableau_descents(t)


def test_is_layered_tableau():
    assert is_layered_tableau(LAYERED)
    assert not is_layered_tableau(FLIPPED)
    assert is_layered_tableau(((1, 2, 3),))
    assert is_layered_tableau(((1,), (2,), (3,)))
    assert is_layered_tableau(())


def test_satisfies_transposed_layer():
    assert satisfies_transposed_layer(FLIPPED)
    assert not satisfies_transposed_layer(LAYERED)
    assert satisfies_transposed_layer(((1,), (2,), (3,)))
    assert satisfies_transposed_layer(())


#: rows that validate rejects: entries not 1..n, a column or row that does
#: not increase, rows that grow in length, entries that are not integers
NOT_TABLEAUX = (
    ((1, 2), (2,)),
    ((1, 3), (2, 5)),
    ((2, 3), (4, 5)),
    ((2, 1),),
    ((1, 2), (3, 1)),
    ((1,), (2, 3)),
    ((1, 2), (3,), (4, 5)),
    ((1, None),),
    ((None, 1),),
    ((1.0, 2.0),),
    ((1, 2), (3.0,)),
    ((1, 2), ()),
    (None,),
)


def test_tableau_predicates_refuse_what_validate_rejects():
    for t in NOT_TABLEAUX:
        assert not validate(t), t
        assert not is_layered_tableau(t), t
        assert not satisfies_transposed_layer(t), t
        with pytest.raises(InvalidTableau):
            tableau_descents(t)
    # a list of lists that is a tableau is read like the tuple form
    assert is_layered_tableau([[1, 3], [2]]) and satisfies_transposed_layer([[1, 2], [3]])
    assert tableau_descents([[1, 3], [2]]) == {1}
    # rows read once: each core runs on the tuple the check built, not on
    # an iterator the check has used up
    assert not satisfies_transposed_layer(iter(((1, 2, 4), (3,))))
    assert is_layered_tableau(map(tuple, [[1, 2], [3]]))


def test_no_public_function_trusts_its_input():
    # What the private cores trust: rows with a gap, a repeated entry, a
    # pair of one-box tableaux on different entries, a row longer than the
    # row above it, and an empty row.  Every public function
    # of these modules refuses them (a DomainError, or a TypeError or
    # AttributeError for an argument of the wrong kind), or answers without
    # a lookup that fails, and none answers True.
    for module in (tableaux, insertion, permutations, greene, enumeration, direct, verify):
        for name, function in vars(module).items():
            if name.startswith("_") or getattr(function, "__module__", "") != module.__name__:
                continue
            for rows in (((1, 5),), ((1, 2), (2,)), (((1,),), ((2,),)), ((1,), (2, 3)), ((),)):
                try:
                    answer = function(rows)
                    if isinstance(answer, Iterator):  # a generator, or a map
                        answer = list(answer)
                except (DomainError, TypeError, AttributeError):
                    continue
                assert answer is not True, (name, rows)


#: (function, argument, what it answers or the refusal it raises): the
#: shapes, compositions, pairs and k that these names once answered on, or
#: refused with a bare IndexError or ValueError, and valid inputs beside them
ANSWER_OR_REFUSAL = (
    (transpose, ((1,), (2, 3)), InvalidTableau),
    (transpose, ((1, 2), ()), InvalidTableau),
    (transpose, ((1, 2), (3,)), ((1, 3), (2,))),
    (transpose, (), ()),
    (conjugate, (1, 3), DomainError),
    (conjugate, (2, -1), DomainError),
    (conjugate, (2, 1, 0, 0), (2, 1)),
    (conjugate, (0,), ()),
    (first_column, ((),), InvalidTableau),
    (first_column, ((1,), (2, 3)), InvalidTableau),
    (first_column, ((1, 3), (2,)), (1, 2)),
    (first_column, (), ()),
    (lambda rows: first_column(iter(rows)), ((1, 3), (2,)), (1, 2)),
    (layered_tableau, (2, -1), DomainError),
    (layered_tableau, (2, 0), DomainError),
    (layered_tableau, (2, 1), ((1, 3), (2,))),
    (layered_tableau, (), ()),
    (layered_from_composition, (0, 2), DomainError),
    (layered_from_composition, (2, 1), (2, 1, 3)),
    (layered_from_composition, (), ()),
    (lambda parts: layered_from_composition(iter(parts)), (2, 1), (2, 1, 3)),
    (lambda k: greene.longest_k_increasing((3, 1, 2), k), 0, DomainError),
    (lambda k: greene.longest_k_decreasing((3, 1, 2), k), -1, DomainError),
    (lambda k: greene.longest_k_increasing((3, 1, 2), k), 1, 2),
    (lambda k: greene.longest_k_decreasing((3, 1, 2), k), 1, 2),
    (inverse_rsk, ((),), DomainError),
    (inverse_rsk, ((), (), ()), DomainError),
    (inverse_rsk, (((1,),), ((1,),)), (1,)),
    (direct.recover_321_avoiding, ((1, 2, 4), (3,)), (1, 3, 2, 4)),
    (lambda rows: direct.recover_321_avoiding(iter(rows)), ((1, 2, 4), (3,)), (1, 3, 2, 4)),
)


@pytest.mark.parametrize("function, argument, expected", ANSWER_OR_REFUSAL)
def test_each_input_is_refused_or_answered_as_before(function, argument, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            function(argument)
    else:
        assert function(argument) == expected


def test_no_two_argument_public_function_trusts_its_input():
    # The same modules' functions of two arguments, given rows that are not
    # even a partial standard tableau (a repeated entry, nested rows, a row
    # or a column that decreases) in either place, and an entry in the
    # other: each refuses, as an answer built on such rows means nothing.
    called = set()
    for module in (tableaux, insertion, permutations):
        for name, function in vars(module).items():
            if name.startswith("_") or getattr(function, "__module__", "") != module.__name__:
                continue
            if not inspect.isfunction(function) or len(inspect.signature(function).parameters) != 2:
                continue
            called.add(name)
            for rows in (((1, 2), (2,)), (((1,),), ((2,),)), ((2, 1),), ((3,), (1,))):
                for args in ((rows, 4), (4, rows)):
                    with pytest.raises((DomainError, TypeError, AttributeError)):
                        function(*args)
    assert {"row_insert", "contains_pattern", "avoids"} <= called


def _row_by_entry(t):
    return {v: r for r, row in enumerate(t, start=1) for v in row}


def _descents_by_dict(t):
    row = _row_by_entry(t)
    return {i for i in range(1, sum(map(len, t))) if row[i + 1] > row[i]}


def _layered_by_dict(t):
    row = _row_by_entry(t)
    return all(
        row[i + 1] == row[i] + 1 or row[i + 1] == 1 for i in range(1, sum(map(len, t)))
    )


def test_unchecked_cores_agree_with_the_dict_definitions():
    # the row dict and the transposed dict the predicates were first
    # written with, on every standard tableau with n <= 8
    tabs = [t for n in range(9) for t in standard_tableaux(n)]
    assert sum(map(_layered_by_dict, tabs)) == sum(2 ** (n - 1) for n in range(1, 9)) + 1
    for t in tabs:
        layered = _layered_by_dict(t)
        transposed = _layered_by_dict(transpose(t))
        assert _is_layered_tableau(t) == is_layered_tableau(t) == layered, t
        assert _satisfies_transposed_layer(t) == transposed, t
        assert satisfies_transposed_layer(t) == transposed, t
        assert _tableau_descents(t) == tableau_descents(t) == _descents_by_dict(t), t


def test_transposed_layer_is_layered_of_transpose():
    for n in range(9):
        for t in standard_tableaux(n):
            assert satisfies_transposed_layer(t) == is_layered_tableau(transpose(t))


def test_layered_tableau_filter_count():
    for n in range(1, 11):
        layered = [t for t in standard_tableaux(n) if is_layered_tableau(t)]
        assert len(layered) == 2 ** (n - 1)
        assert list(layered_tableaux(n)) == layered


def test_shape_and_conjugate():
    assert shape(LAYERED) == (3, 3, 2, 1)
    assert conjugate((3, 3, 2, 1)) == (4, 3, 2)
    assert conjugate(conjugate((5, 2, 2, 1))) == (5, 2, 2, 1)
    assert conjugate(()) == ()


def test_first_column():
    assert first_column(LAYERED) == (1, 2, 5, 9)
    assert first_column(()) == ()


def test_json_roundtrip():
    text = tableau_to_json(LAYERED)
    assert text == '{"rows":[[1,3,6],[2,4,7],[5,8],[9]]}'
    assert tableau_from_json(text) == LAYERED
    assert tableau_from_json('{"rows":[]}') == ()


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"rows": [[2, 1]]}',
        '{"rows": "x"}',
        '{"rows": [[1]], "extra": 1}',
        '{"rows": [[1.5]]}',
        '{"rows": [[true, 2]]}',
        # past the int-to-str digit limit, and nested past the recursion limit
        pytest.param('{"rows": [[' + "7" * 5000 + "]]}", id="5000-digit-entry"),
        pytest.param("[" * 10**5, id="deep-arrays"),
    ],
)
def test_json_rejects(text):
    with pytest.raises(InvalidTableau):
        tableau_from_json(text)


@given(tableaux_from_perms())
def test_json_roundtrip_property(t):
    assert tableau_from_json(tableau_to_json(t)) == t
