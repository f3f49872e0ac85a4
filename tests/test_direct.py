import pytest

from rsinv.direct import (
    f_123_avoiding_direct,
    f_gfk_tight_direct,
    f_rev_shortcut,
    recover_321_avoiding,
    tableau_of_321_avoiding,
)
from rsinv.errors import (
    Not123Avoiding,
    Not321Avoiding,
    NotGfkTight,
    NotInvolution,
    ShortcutInapplicable,
    TooManyRows,
)
from rsinv.permutations import decreasing, identity
from rsinv.insertion import f_involution, rsk


def test_f_rev_shortcut():
    assert f_rev_shortcut((3, 2, 1)) == (1, 2, 3)
    assert f_rev_shortcut((2, 1, 4, 3)) == (3, 4, 1, 2)
    assert f_rev_shortcut((2, 1, 4, 3)) == f_involution((2, 1, 4, 3))
    assert f_rev_shortcut((1,)) == (1,)


def test_f_rev_shortcut_rejects():
    with pytest.raises(ShortcutInapplicable):
        f_rev_shortcut((1, 3, 4, 2))  # not an involution
    with pytest.raises(ShortcutInapplicable):
        f_rev_shortcut((2, 1, 3))  # reverse 312 is not an involution


def test_f_gfk_tight_direct():
    assert f_gfk_tight_direct((6, 7, 3, 4, 8, 1, 2, 5, 9)) == (
        2, 1, 5, 4, 3, 9, 8, 7, 6,
    )
    assert f_gfk_tight_direct((1, 2)) == (2, 1)
    assert f_gfk_tight_direct((2, 1)) == (1, 2)
    assert f_gfk_tight_direct((1, 2)) == f_involution((1, 2))
    assert f_gfk_tight_direct(identity(6)) == decreasing(6)


def test_f_gfk_tight_direct_rejects():
    with pytest.raises(NotInvolution):
        f_gfk_tight_direct((2, 3, 1))
    with pytest.raises(NotGfkTight):
        # 2143 is layered, hence an involution, but only dually tight
        f_gfk_tight_direct((2, 1, 4, 3))


def test_tableau_of_321_avoiding():
    assert tableau_of_321_avoiding((1, 3, 2, 5, 4, 6, 7)) == ((1, 2, 4, 6, 7), (3, 5))
    assert tableau_of_321_avoiding(identity(5)) == ((1, 2, 3, 4, 5),)
    assert tableau_of_321_avoiding((2, 1)) == ((1,), (2,))
    assert tableau_of_321_avoiding(()) == ()


def test_tableau_of_321_avoiding_rejects():
    with pytest.raises(NotInvolution):
        tableau_of_321_avoiding((2, 3, 1))
    with pytest.raises(Not321Avoiding):
        tableau_of_321_avoiding((3, 2, 1))


def test_recover_321_avoiding():
    assert recover_321_avoiding(((1, 2, 4, 6, 7), (3, 5))) == (1, 3, 2, 5, 4, 6, 7)
    assert recover_321_avoiding(((1,), (2,))) == (2, 1)
    assert recover_321_avoiding(((1, 3), (2, 4))) == (2, 1, 4, 3)
    assert rsk((2, 1, 4, 3))[0] == ((1, 3), (2, 4))
    assert recover_321_avoiding(()) == ()


def test_recover_321_avoiding_rejects():
    with pytest.raises(TooManyRows):
        recover_321_avoiding(((1, 4), (2, 5), (3,)))
    from rsinv.errors import InvalidTableau

    with pytest.raises(InvalidTableau):
        recover_321_avoiding(((2, 1),))


def test_f_123_avoiding_direct():
    assert f_123_avoiding_direct((6, 5, 7, 4, 2, 1, 3)) == (1, 3, 2, 4, 5, 7, 6)
    for n in range(1, 9):
        assert f_123_avoiding_direct(decreasing(n)) == identity(n)
    assert f_123_avoiding_direct((2, 1, 3)) == (1, 3, 2)
    assert f_123_avoiding_direct((2, 1, 3)) == f_involution((2, 1, 3))


def test_f_123_avoiding_direct_rejects():
    with pytest.raises(NotInvolution):
        f_123_avoiding_direct((2, 3, 1))
    with pytest.raises(Not123Avoiding):
        f_123_avoiding_direct((1, 2, 3))
