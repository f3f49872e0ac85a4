"""Acceptance battery: every criterion is an exact combinatorial identity
checked exhaustively at its stated size, with zero tolerance.

Each test prints one PASS/FAIL line (run pytest -s to see them inline;
the same checks are reproducible from the command line via
``rsinv verify --suite all``).
"""
import dataclasses
from math import factorial

from rsinv import enumeration, verify
from rsinv.direct import recover_321_avoiding
from rsinv.errors import InstanceTooLarge
from rsinv.insertion import f_involution, rsk
from rsinv.permutations import record_breakers


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _all_ok(num: int, name: str, results) -> None:
    ok = all(res.ok for res in results)
    detail = ", ".join(f"{res.name}={res.checked}" for res in results)
    failures = [msg for res in results for msg in res.failures]
    _report(num, name, ok, detail + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_01_layered_worked_example():
    p = (2, 1, 5, 4, 3, 9, 8, 7, 6)
    expected_tableau = ((1, 3, 6), (2, 4, 7), (5, 8), (9,))
    ok = (
        f_involution(p) == (6, 7, 3, 4, 8, 1, 2, 5, 9)
        and rsk(p) == (expected_tableau, expected_tableau)
    )
    _report(1, "layered worked example", ok)


def test_criterion_02_123_avoiding_worked_example():
    p = (6, 5, 7, 4, 2, 1, 3)
    ok = f_involution(p) == (1, 3, 2, 4, 5, 7, 6) and record_breakers(p) == {
        1, 2, 4, 5, 6,
    }
    _report(2, "123-avoiding worked example", ok)


def test_criterion_03_recovery_worked_example():
    ok = recover_321_avoiding(((1, 2, 4, 6, 7), (3, 5))) == (1, 3, 2, 5, 4, 6, 7)
    _report(3, "two-row recovery worked example", ok)


def test_criterion_04_f_is_an_involution():
    result = verify.CHECKS["f-twice"](8)
    ok = (
        result.ok
        and enumeration.count_involutions(8) == 764
        and result.checked == sum(enumeration.count_involutions(n) for n in range(9))
    )
    _report(4, "f twice is identity (n <= 8)", ok, f"{result.checked} involutions")


def test_criterion_05_layered_tableau_families():
    result = verify.CHECKS["layered-tableau-sets"](8)
    _report(5, "layered tableaux = tableaux of layered permutations", result.ok,
            f"n <= 8, {result.checked} sizes")


def test_criterion_06_transposed_layer_iff_tight():
    result = verify.CHECKS["tight-vs-transposed-layer"](8)
    _report(6, "transposed-layer <=> GFK-tight on involutions", result.ok,
            f"{result.checked} involutions")


def test_criterion_07_layered_iff_dually_tight_involution():
    result = verify.CHECKS["layered-vs-dually-tight"](8)
    ok = result.ok and result.checked == sum(factorial(n) for n in range(9))
    _report(7, "layered <=> dually GFK-tight involution", ok,
            f"{result.checked} permutations")


def test_criterion_08_shape_prefix_sums():
    result = verify.CHECKS["shape-prefix-sums"](7)
    _report(8, "shape prefix sums match subset oracle", result.ok,
            f"{result.checked} permutations, all k")


def test_criterion_09_descents_and_inverse_swap():
    _all_ok(
        9,
        "descent transport and inverse swap",
        [verify.CHECKS["descent-transport"](7), verify.CHECKS["schuetzenberger"](7)],
    )


def test_criterion_10_layer_transport_and_ascent_flip():
    _all_ok(
        10,
        "layer-to-jog transport and ascent flip",
        [verify.CHECKS["layer-jog-transport"](8), verify.CHECKS["ascent-flip"](8)],
    )


def test_criterion_11_two_sided_characterization_and_count():
    results = [
        verify.CHECKS["general-equivalence"](7),
        verify.CHECKS["pairs-distinct"](7),
        verify.CHECKS["formula-vs-scan"](7),
    ]
    spot_ok = enumeration.count_A(3) == 6 and enumeration.count_A(4) == 16
    ok = all(res.ok for res in results) and spot_ok
    _report(11, "two-sided characterization and counting formula", ok,
            f"{results[0].checked} permutations, formula vs scan n <= 7")


def test_criterion_12_direct_maps_agree():
    _all_ok(
        12,
        "direct constructions agree with insertion-based map",
        [
            verify.CHECKS["direct-gfk"](8),
            verify.CHECKS["direct-123"](10),
            verify.CHECKS["two-row-roundtrip"](10),
            verify.CHECKS["shortcut"](8),
        ],
    )


def test_criterion_13_exact_bounds():
    results = [verify.CHECKS["exponential-bounds"](12), verify.CHECKS["composition-total"](12)]
    _all_ok(13, "exponential-order bounds and composition totals", results)


def test_instance_over_a_cap_stops_the_check_uncounted():
    def holds(n):
        if n == 5:
            raise InstanceTooLarge("capped at n <= 4, got 5")
        return n != 2

    result = verify._check("demo", range(1, 8), holds)
    assert result.checked == 4
    assert result.failures == ["demo fails at n=2", "demo stops at n=5: capped at n <= 4, got 5"]


def test_failing_check_keeps_four_messages_and_a_suppression_note():
    result = verify._check("demo", range(1, 8), lambda n: False)
    assert result.checked == 7 and not result.ok
    assert result.failures == [f"demo fails at n={n}" for n in range(1, 5)] + [
        "... more failures suppressed"
    ]


def test_a_filter_that_empties_a_check_fails_it():
    # direct-123 and two-row-roundtrip keep the involutions that avoid a
    # pattern; a filter that keeps only the smallest ones must not pass.
    for name in ("direct-123", "two-row-roundtrip"):
        check = verify.CHECKS[name]
        assert check(10).checked == 526
        emptied = dataclasses.replace(check, where=lambda p: len(p) <= 2)
        result = emptied(10)
        assert result.checked == 4
        assert result.failures == [f"{name} checked 4 instances, not 526"]
