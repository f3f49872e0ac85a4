"""Command-line front end.

Exit codes: 0 on success, 1 when a check or verification reports false or
fails, 2 on usage or domain errors, 3 on an internal error (a bug: one
``internal error: <Type>: <message>`` line on stderr, no traceback), and
141 (128 + SIGPIPE, as a shell tool killed by a closed pipe), with nothing
on stderr, when the reader of stdout goes away early, as in
``rsinv enumerate ... | head -1``.
Permutations always print in the whitespace format so outputs stay
unambiguous for n >= 10; tableaux print in the single-line JSON format.
``run`` parses with one parser, built on its first call and kept for the
life of the process; ``build_parser`` returns a fresh one.
``verify --json`` prints one record per check, ``{"suite", "check",
"max_n", "checked", "failures", "seconds"}``, the record the benchmark's
verify-battery reports; the text report has no times, so its bytes do not
change from run to run.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Callable, Sequence

from . import enumeration, verify
from .direct import (
    f_123_avoiding_direct,
    f_gfk_tight_direct,
    f_rev_shortcut,
    tableau_of_321_avoiding,
)
from .errors import DomainError, InvalidTableau
from .insertion import (
    f_involution,
    inverse_rsk,
    is_dually_gfk_tight,
    is_gfk_tight,
    rsk,
    tableau_of_involution,
)
from .permutations import (
    Perm,
    avoids,
    format_permutation,
    is_involution,
    is_layered,
    parse_permutation,
)
from .tableaux import Tableau, satisfies_transposed_layer, tableau_from_json, tableau_to_json

# One table per command-line choice: argparse's choices, the dispatch and
# the error messages all read the names from here.

#: check --prop name -> predicate (besides avoids:PATTERN)
PROPS: dict[str, Callable[[Perm], bool]] = {
    "layered": is_layered,
    "involution": is_involution,
    "gfk-tight": is_gfk_tight,
    "dually-gfk-tight": is_dually_gfk_tight,
    "transposed-layer": lambda p: satisfies_transposed_layer(tableau_of_involution(p)),
}

#: enumerate --family name -> (generator of size n, one-line format)
FAMILIES = {
    "layered": (enumeration.layered_permutations, format_permutation),
    "involutions": (enumeration.involutions, format_permutation),
    "layered-tableaux": (enumeration.layered_tableaux, tableau_to_json),
    "generalized": (enumeration.generalized_layered, format_permutation),
}

#: count --what name -> exact count of size n.  Each is at least 2^(n-1)
#: for n >= 1: A_n = sum comp_count(h)^2 >= sum comp_count(h) = 2^(n-1),
#: and I(n) = I(n-1) + (n-1) I(n-2) >= 2^(n-2) + 2^(n-2) by induction.
COUNTS = {
    "A": enumeration.count_A,
    "layered": enumeration.count_layered,
    "involutions": enumeration.count_involutions,
}

#: f --method name -> its constructions by label; "all" runs every one
F_METHODS = {
    "rsk": {"rsk": f_involution},
    "direct": {"direct-gfk": f_gfk_tight_direct, "direct-123": f_123_avoiding_direct},
    "shortcut": {"shortcut": f_rev_shortcut},
}

#: tableau --method name -> its constructions by label; "all" runs every one
TABLEAU_METHODS = {
    "rsk": {"rsk": tableau_of_involution},
    "direct": {"direct": tableau_of_321_avoiding},
}

NO_DIRECT_F = (
    "no direct construction applies: permutation is neither a"
    " GFK-tight involution nor a 123-avoiding involution"
)

#: exit code when stdout's reader has gone away
EXIT_BROKEN_PIPE = 128 + 13

#: exit code of an exception that is neither bad input nor bad I/O
EXIT_INTERNAL = 3


def _print_rows(t) -> None:
    for row in t:
        print(" ".join(str(v) for v in row))


def _cmd_rsk(args) -> int:
    p = parse_permutation(args.perm)
    p_tab, q_tab = rsk(p)
    if args.json:
        print(f'{{"P":{tableau_to_json(p_tab)},"Q":{tableau_to_json(q_tab)}}}')
    else:
        print("P:")
        _print_rows(p_tab)
        print("Q:")
        _print_rows(q_tab)
    return 0


def _read_tableau(path: str) -> Tableau:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidTableau(f"{path} is not UTF-8 text: {exc}") from None
    return tableau_from_json(text)


def _cmd_unrsk(args) -> int:
    pair = (_read_tableau(args.p), _read_tableau(args.q))
    print(format_permutation(inverse_rsk(pair)))
    return 0


def _print_agreed(args, methods, show, show_each, none_applies="") -> int:
    """Run the constructions of args.method (every one under "all") on
    args.perm and print the answer they agree on with ``show``.  A
    construction that raises a DomainError, its precondition failing, does
    not apply.  When none applies, the first refusal is raised, except that
    a method of several constructions (f's "direct") says ``none_applies``.
    When answers differ, each is printed with ``show_each`` and the exit
    code is 1."""
    p = parse_permutation(args.perm)
    chosen = methods if args.method == "all" else {args.method: methods[args.method]}
    results = {}
    refusals = []
    for constructions in chosen.values():
        for label, construct in constructions.items():
            try:
                results[label] = construct(p)
            except DomainError as exc:
                refusals.append(exc)
    if not results:
        if args.method != "all" and len(refusals) > 1:
            raise DomainError(none_applies)
        raise refusals[0]
    values = set(results.values())
    if len(values) > 1:
        for label, value in sorted(results.items()):
            print(f"{label}: {show_each(value)}")
        print("error: methods disagree", file=sys.stderr)
        return 1
    show(values.pop())
    return 0


def _cmd_f(args) -> int:
    def show(q):
        print(format_permutation(q))

    return _print_agreed(args, F_METHODS, show, format_permutation, NO_DIRECT_F)


def _cmd_tableau(args) -> int:
    def show_json(t):
        print(tableau_to_json(t))

    show = show_json if args.json else _print_rows
    return _print_agreed(args, TABLEAU_METHODS, show, tableau_to_json)


def _cmd_check(args) -> int:
    p = parse_permutation(args.perm)
    prop = args.prop
    if prop in PROPS:
        value = PROPS[prop](p)
    elif prop.startswith("avoids:"):
        value = avoids(p, parse_permutation(prop.split(":", 1)[1]))
    else:
        raise DomainError(
            f"unknown property {prop!r}; expected one of {', '.join(PROPS)} or avoids:PATTERN"
        )
    print("true" if value else "false")
    return 0 if value else 1


def _require_size(n: int) -> int:
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return n


def _cmd_enumerate(args) -> int:
    generate, show = FAMILIES[args.family]
    n = _require_size(args.n)
    # Past sys.maxsize no sequence of n entries can be built, and a walk of
    # range(n) would never end.
    if n > sys.maxsize:
        raise DomainError(f"n must be at most {sys.maxsize}, got {n}")
    for member in generate(n):
        print(show(member))
    return 0


def _cmd_count(args) -> int:
    n = _require_size(args.n)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = DomainError(
        f"count --what {args.what} at n={n} has more than {digits}"
        " digits, the interpreter's limit for printing an integer"
    )
    # Every count is at least 2^(n-1) (see COUNTS), which is 10^digits or
    # more, too long to print, once n - 1 reaches the bit length of
    # 10^digits: refuse before counting.
    if digits and n - 1 >= (10**digits).bit_length():
        raise too_long
    value = COUNTS[args.what](n)
    try:
        text = str(value)
    except ValueError:  # the backstop: only raised where the limit exists
        raise too_long from None
    print(text)
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.max_n is not None:
        verify.require_budget(names, _require_size(args.max_n))
    all_ok = True
    for name in names:
        results = []
        for check in verify.SUITES[name]:
            start = time.perf_counter()
            result = check(args.max_n)
            seconds = time.perf_counter() - start
            results.append(result)
            if args.json:
                record = {
                    "suite": name,
                    "check": result.name,
                    "max_n": check.max_n if args.max_n is None else args.max_n,
                    "checked": result.checked,
                    "failures": result.failures,
                    "seconds": seconds,
                }
                print(json.dumps(record))
        suite_ok = all(result.ok for result in results)
        all_ok = all_ok and suite_ok
        if args.json:
            continue
        for result in results:
            status = "PASS" if result.ok else "FAIL"
            print(f"{name}/{result.name}: {status} ({result.checked} instances)")
            for failure in result.failures:
                print(f"  {failure}")
        total = sum(result.checked for result in results)
        print(f"{name}: {'PASS' if suite_ok else 'FAIL'} ({total} instances)")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsinv",
        description="Robinson-Schensted on involutions: tableau-transpose map,"
        " direct constructions, and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rsk = sub.add_parser("rsk", help="print the insertion and recording tableaux")
    p_rsk.add_argument("perm")
    p_rsk.add_argument("--json", action="store_true")
    p_rsk.set_defaults(func=_cmd_rsk)

    p_un = sub.add_parser("unrsk", help="recover the permutation from a tableau pair")
    p_un.add_argument("--p", required=True, metavar="TABLEAU_JSON_FILE")
    p_un.add_argument("--q", required=True, metavar="TABLEAU_JSON_FILE")
    p_un.set_defaults(func=_cmd_unrsk)

    p_f = sub.add_parser("f", help="apply the tableau-transpose involution")
    p_f.add_argument("perm")
    p_f.add_argument("--method", choices=(*F_METHODS, "all"), default="rsk")
    p_f.set_defaults(func=_cmd_f)

    p_tab = sub.add_parser("tableau", help="print the tableau of an involution")
    p_tab.add_argument("perm")
    p_tab.add_argument("--method", choices=(*TABLEAU_METHODS, "all"), default="rsk")
    p_tab.add_argument("--json", action="store_true")
    p_tab.set_defaults(func=_cmd_tableau)

    p_check = sub.add_parser("check", help="evaluate a property of a permutation")
    p_check.add_argument("perm")
    p_check.add_argument("--prop", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="list a family, one member per line")
    p_enum.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p_enum.add_argument("--n", required=True, type=int)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_count = sub.add_parser("count", help="count a family exactly")
    p_count.add_argument("--what", required=True, choices=tuple(COUNTS))
    p_count.add_argument("--n", required=True, type=int)
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="run exhaustive verification suites")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("all",) + tuple(verify.SUITES),
    )
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument(
        "--json",
        action="store_true",
        help="print one JSON record per check, with its time, instead of the text report",
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


# Building the eight subcommands costs about a millisecond, more than most
# queries.  Only argparse's choices are fixed when the parser is built; the
# commands read the tables above at call time.
_parser = functools.cache(build_parser)


def run(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # Nothing reads stdout any more: point it at devnull so that the
        # flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
