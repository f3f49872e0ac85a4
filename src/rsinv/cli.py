"""Command-line front end.

Exit codes: 0 on success, 1 when a check or verification reports false or
fails, 2 on usage or domain errors, and 141 (128 + SIGPIPE, as a shell
tool killed by a closed pipe), with nothing on stderr, when the reader of
stdout goes away early, as in ``rsinv enumerate ... | head -1``.
Permutations always print in the whitespace format so outputs stay
unambiguous for n >= 10; tableaux print in the single-line JSON format.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import enumeration, verify
from .direct import (
    f_123_avoiding_direct,
    f_gfk_tight_direct,
    f_rev_shortcut,
    tableau_of_321_avoiding,
)
from .errors import (
    DomainError,
    Not123Avoiding,
    Not321Avoiding,
    NotGfkTight,
    NotInvolution,
    ShortcutInapplicable,
)
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
from .tableaux import satisfies_transposed_layer, tableau_from_json, tableau_to_json

PROPS = ("layered", "involution", "gfk-tight", "dually-gfk-tight", "transposed-layer")

#: exit code when stdout's reader has gone away
EXIT_BROKEN_PIPE = 128 + 13


def _print_tableau(label: str, t) -> None:
    print(f"{label}:")
    for row in t:
        print(" ".join(str(v) for v in row))


def _cmd_rsk(args) -> int:
    p = parse_permutation(args.perm)
    p_tab, q_tab = rsk(p)
    if args.json:
        print(
            json.dumps(
                {"P": {"rows": [list(r) for r in p_tab]}, "Q": {"rows": [list(r) for r in q_tab]}},
                separators=(",", ":"),
            )
        )
    else:
        _print_tableau("P", p_tab)
        _print_tableau("Q", q_tab)
    return 0


def _cmd_unrsk(args) -> int:
    with open(args.p, encoding="utf-8") as fh:
        p_tab = tableau_from_json(fh.read())
    with open(args.q, encoding="utf-8") as fh:
        q_tab = tableau_from_json(fh.read())
    print(format_permutation(inverse_rsk((p_tab, q_tab))))
    return 0


def _f_methods(p: Perm, method: str) -> dict[str, Perm]:
    # A construction whose precondition fails raises its own DomainError;
    # under "all" (and among the direct ones) that means "not applicable".
    results: dict[str, Perm] = {}
    if method in ("rsk", "all"):
        results["rsk"] = f_involution(p)
    if method in ("shortcut", "all"):
        try:
            results["shortcut"] = f_rev_shortcut(p)
        except ShortcutInapplicable:
            if method == "shortcut":
                raise
    if method in ("direct", "all"):
        applicable: dict[str, Perm] = {}
        for name, construct, inapplicable in (
            ("direct-gfk", f_gfk_tight_direct, NotGfkTight),
            ("direct-123", f_123_avoiding_direct, Not123Avoiding),
        ):
            try:
                applicable[name] = construct(p)
            except (NotInvolution, inapplicable):
                pass
        if method == "direct" and not applicable:
            raise DomainError(
                "no direct construction applies: permutation is neither a"
                " GFK-tight involution nor a 123-avoiding involution"
            )
        results.update(applicable)
    return results


def _cmd_f(args) -> int:
    p = parse_permutation(args.perm)
    results = _f_methods(p, args.method)
    values = set(results.values())
    if len(values) > 1:
        for name, value in sorted(results.items()):
            print(f"{name}: {format_permutation(value)}")
        print("error: methods disagree", file=sys.stderr)
        return 1
    print(format_permutation(values.pop()))
    return 0


def _cmd_tableau(args) -> int:
    p = parse_permutation(args.perm)
    results = {}
    if args.method in ("rsk", "all"):
        results["rsk"] = tableau_of_involution(p)
    if args.method in ("direct", "all"):
        try:
            results["direct"] = tableau_of_321_avoiding(p)
        except Not321Avoiding:
            if args.method == "direct":
                raise
    values = set(results.values())
    if len(values) > 1:
        for name, t in sorted(results.items()):
            print(f"{name}: {tableau_to_json(t)}")
        print("error: methods disagree", file=sys.stderr)
        return 1
    t = values.pop()
    if args.json:
        print(tableau_to_json(t))
    else:
        for row in t:
            print(" ".join(str(v) for v in row))
    return 0


def _cmd_check(args) -> int:
    p = parse_permutation(args.perm)
    prop = args.prop
    if prop == "layered":
        value = is_layered(p)
    elif prop == "involution":
        value = is_involution(p)
    elif prop == "gfk-tight":
        value = is_gfk_tight(p)
    elif prop == "dually-gfk-tight":
        value = is_dually_gfk_tight(p)
    elif prop == "transposed-layer":
        value = satisfies_transposed_layer(tableau_of_involution(p))
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
    n = _require_size(args.n)
    if args.family == "layered":
        for p in enumeration.layered_permutations(n):
            print(format_permutation(p))
    elif args.family == "involutions":
        for p in enumeration.involutions(n):
            print(format_permutation(p))
    elif args.family == "layered-tableaux":
        for t in enumeration.layered_tableaux(n):
            print(tableau_to_json(t))
    else:
        for p in enumeration.generalized_layered(n):
            print(format_permutation(p))
    return 0


def _cmd_count(args) -> int:
    n = _require_size(args.n)
    if args.what == "A":
        value = enumeration.count_A(n)
    elif args.what == "layered":
        value = enumeration.count_layered(n)
    else:
        value = enumeration.count_involutions(n)
    try:
        text = str(value)
    except ValueError:  # only raised where sys.get_int_max_str_digits exists
        raise DomainError(
            f"count --what {args.what} at n={n} has more than {sys.get_int_max_str_digits()}"
            " digits, the interpreter's limit for printing an integer"
        ) from None
    print(text)
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        results = verify.run_suite(name, args.max_n)
        for result in results:
            status = "PASS" if result.ok else "FAIL"
            print(f"{name}/{result.name}: {status} ({result.checked} instances)")
            for failure in result.failures:
                print(f"  {failure}")
        suite_ok = all(result.ok for result in results)
        total = sum(result.checked for result in results)
        print(f"{name}: {'PASS' if suite_ok else 'FAIL'} ({total} instances)")
        all_ok = all_ok and suite_ok
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
    p_f.add_argument("--method", choices=("rsk", "direct", "shortcut", "all"), default="rsk")
    p_f.set_defaults(func=_cmd_f)

    p_tab = sub.add_parser("tableau", help="print the tableau of an involution")
    p_tab.add_argument("perm")
    p_tab.add_argument("--method", choices=("rsk", "direct", "all"), default="rsk")
    p_tab.add_argument("--json", action="store_true")
    p_tab.set_defaults(func=_cmd_tableau)

    p_check = sub.add_parser("check", help="evaluate a property of a permutation")
    p_check.add_argument("perm")
    p_check.add_argument("--prop", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="list a family, one member per line")
    p_enum.add_argument(
        "--family",
        required=True,
        choices=("layered", "involutions", "layered-tableaux", "generalized"),
    )
    p_enum.add_argument("--n", required=True, type=int)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_count = sub.add_parser("count", help="count a family exactly")
    p_count.add_argument("--what", required=True, choices=("A", "layered", "involutions"))
    p_count.add_argument("--n", required=True, type=int)
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="run exhaustive verification suites")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("all",) + tuple(verify.SUITES),
    )
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
