"""The benchmark's workloads and the checks on their outputs.

A workload holds the fixed work of one pass as ``ops``: each op is one
call into rsinv, ``fn(arg)``, or ``fn(output of the previous op)`` when
``arg`` is PREV.  The worker repeats passes; ``reset`` runs before each
one and empties rsinv's caches, so every pass starts from the state of a
fresh process.  After the timed passes, ``replay`` calls the layers'
public functions directly, under spans, to split composite calls into
layers, to compute the work counters and to produce reference outputs;
``problems`` then checks the first pass's outputs.

Layer functions come from the top-level ``rsinv`` re-exports and the
``rsinv.greene``, ``rsinv.verify`` and ``rsinv.cli`` modules only.
"""
from __future__ import annotations

import inspect
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from typing import Any, Callable, NamedTuple

import rsinv
from rsinv import cli, greene, verify
from rsinv.errors import DomainError

import inputs
from spans import Tracer

PREV = object()


class Op(NamedTuple):
    name: str
    fn: Callable[[Any], Any]
    arg: Any


class Failure(NamedTuple):
    """Stands in for the output of a call that raised."""

    error: str


def clear_caches() -> None:
    for module in (rsinv, greene):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def oracle_cache() -> tuple[int, int, int]:
    """(hits, misses, entries) summed over the caches in rsinv.greene."""
    infos = [obj.cache_info() for obj in vars(greene).values() if hasattr(obj, "cache_info")]
    return (
        sum(i.hits for i in infos),
        sum(i.misses for i in infos),
        sum(i.currsize for i in infos),
    )


def shape(t) -> tuple[int, ...]:
    return tuple(len(row) for row in t)


def weight(s) -> int:
    """n(lambda) = sum of (row index) * (row length), rows counted from 0."""
    return sum(i * length for i, length in enumerate(s))


def is_involution(p) -> bool:
    return all(p[v - 1] == i for i, v in enumerate(p, start=1))


def verify_checks() -> list[tuple[str, str, Callable, int]]:
    """(suite, check name, function, default max_n) for every check in
    verify.SUITES, in suite order.  A check run with max_n=0 costs next to
    nothing and reports its name."""
    return [
        (suite, check(0).name, check, inspect.signature(check).parameters["max_n"].default)
        for suite, checks in verify.SUITES.items()
        for check in checks
    ]


class Workload:
    """What the three workloads share: see the module docstring."""

    name: str
    ops: list[Op]
    reset = staticmethod(clear_caches)

    def work(self, outputs: list) -> int:
        """Units of work in one pass, for ops_per_s: the calls."""
        return len(outputs)

    def digest_items(self, outputs: list) -> list:
        return outputs


class FLarge(Workload):
    """f_involution on seeded involutions with 20%, 70% and 100% of their
    entries in 2-cycles, and an rsk / inverse_rsk round trip on a random
    permutation, at each size of a fixed grid from 1000 to 4000."""

    name = "f-large"
    sizes = tuple(range(1000, 4001, 375))
    paired = (0.2, 0.7, 1.0)
    round_trips = 5  # per size; they make up most of the calls, f most of the time

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.ops: list[Op] = []
        for n in self.sizes:
            for share in self.paired:
                self.ops.append(Op("rsk.f", rsinv.f_involution, inputs.involution(rng, n, share)))
            for _ in range(self.round_trips):
                self.ops.append(Op("rsk.forward", rsinv.rsk, inputs.permutation(rng, n)))
                self.ops.append(Op("rsk.reverse", rsinv.inverse_rsk, PREV))

    @staticmethod
    def warm_up() -> None:
        rng = random.Random(0)
        rsinv.f_involution(inputs.involution(rng, 60, 0.5))
        rsinv.inverse_rsk(rsinv.rsk(inputs.permutation(rng, 60)))

    def replay(self, tracer: Tracer, outputs: list) -> tuple[list, dict[str, int]]:
        """Split each f call into the steps f is defined by: the tableau of
        q, its transpose, the two validations inside inverse_rsk, and the
        reverse bumping.  The rsk and inverse_rsk ops are single layer
        calls, so only their row visits are added here."""
        forward = reverse = 0
        reference: list = [None] * len(self.ops)
        for i, op in enumerate(self.ops):
            if op.name == "rsk.f":
                q = op.arg
                n = len(q)
                with tracer.span("replay.f", n):
                    with tracer.span("rsk.forward", n):
                        p_tab = rsinv.tableau_of_involution(q)
                    with tracer.span("tableaux.transpose", n):
                        flipped = rsinv.transpose(p_tab)
                    with tracer.span("tableaux.validate", n):
                        rsinv.validate(flipped)
                        rsinv.validate(flipped)
                    with tracer.span("rsk.reverse", n):
                        image = rsinv.inverse_rsk((flipped, flipped))
                forward += weight(shape(p_tab)) + n
                reverse += weight(shape(flipped))
                reference[i] = (image, shape(p_tab))
            elif op.name == "rsk.forward" and not isinstance(outputs[i], Failure):
                forward += weight(shape(outputs[i][0])) + len(op.arg)
            elif op.name == "rsk.reverse" and not isinstance(outputs[i - 1], Failure):
                reverse += weight(shape(outputs[i - 1][0]))
        counters = {"rsk.forward.row_visits": forward, "rsk.reverse.row_visits": reverse}
        return reference, counters

    def problems(self, outputs: list, reference: list) -> dict[Any, str]:
        bad: dict[Any, str] = {}
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            if isinstance(out, Failure):
                bad[i] = out.error
            elif op.name == "rsk.f":
                q = op.arg
                image, shape_q = reference[i]
                if out != image:
                    bad[i] = "f_involution differs from inverse_rsk of the transposed tableau"
                    continue
                if len(out) != len(q) or not is_involution(out):
                    bad[i] = "f(q) is not an involution of the same length"
                    continue
                # f(f(q)) by f's definition; the transposed tableau of f(q)
                # has the shape of q exactly when f(q)'s shape is conjugate
                flipped = rsinv.transpose(rsinv.rsk(out)[0])
                if shape(flipped) != shape_q:
                    bad[i] = "shape of f(q) is not the conjugate of the shape of q"
                elif rsinv.inverse_rsk((flipped, flipped)) != q:
                    bad[i] = "f(f(q)) != q"
            elif op.name == "rsk.forward":
                if shape(out[0]) != shape(out[1]):
                    bad[i] = "P and Q differ in shape"
            elif out != self.ops[i - 1].arg:
                bad[i] = "inverse_rsk(rsk(p)) != p"
        return bad


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """cli.run with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class Query(NamedTuple):
    kind: str  # the CLI command, or "bad" for malformed input
    text: str  # the permutation argument, "" when there is none
    option: Any  # check: the --prop value; count: n; bad: the other arguments
    known: tuple[int, str] | None  # (exit code, stdout) known from construction


def _fmt_rows(t) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in t)


def _spaced(p) -> str:
    return " ".join(map(str, p))


class CliQueries(Workload):
    """A stream of distinct cli.run calls, stdout captured: f --method all
    and check at n = 10..16, tableau --method all on 321-avoiding
    involutions at n = 40..80, count --what A at n = 30..42, rsk --json at
    n = 500, and malformed inputs that must exit with code 2."""

    name = "cli-queries"
    small = range(10, 17)
    tableau_sizes = range(40, 81, 5)
    count_sizes = range(30, 43, 3)
    rsk_size, rsk_queries = 500, 40

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        true = (0, "true\n")
        queries: list[Query] = []
        for n in self.small:
            for p in (
                inputs.involution(rng, n, 0.5),
                inputs.layered(rng, n),
                inputs.involution_123_avoiding(rng, n),
            ):
                queries.append(Query("f", _spaced(p), None, None))
            queries += [
                Query("check", _spaced(inputs.involution(rng, n, 0.5)), "gfk-tight", None),
                Query("check", _spaced(inputs.layered(rng, n)), "dually-gfk-tight", true),
                Query("check", _spaced(inputs.involution(rng, n, 0.5)), "transposed-layer", None),
                Query("check", _spaced(inputs.involution_123_avoiding(rng, n)), "avoids:123", true),
                Query("check", _spaced(inputs.layered(rng, n)), "avoids:231", true),
                Query(
                    "check",
                    _spaced(inputs.permutation(rng, n)),
                    "avoids:" + "".join(map(str, inputs.permutation(rng, rng.choice((3, 4))))),
                    None,
                ),
            ]
        for n in self.tableau_sizes:
            rows = inputs.ballot_tableau(rng, n)
            p = inputs.involution_of_two_rows(rows)
            queries.append(Query("tableau", _spaced(p), None, (0, _fmt_rows(rows))))
        for n in self.count_sizes:
            queries.append(Query("count", "", n, None))
        for _ in range(self.rsk_queries):
            p = inputs.permutation(rng, self.rsk_size)
            queries.append(Query("rsk", _spaced(p), None, None))
        queries += self._malformed(rng) + self._malformed(rng)
        self.queries = queries
        self.ops = [Op("cli.run", run_cli, self.argv(q)) for q in queries]

    @staticmethod
    def _malformed(rng: random.Random) -> list[Query]:
        refused = (2, "")
        p = list(inputs.permutation(rng, rng.randrange(5, 30)))
        duplicate = p[:-1] + [p[0]]
        token = p[:]
        token[rng.randrange(len(p))] = "x"
        too_big = p[:-1] + [len(p) + 1]
        not_inv = inputs.permutation(rng, rng.randrange(5, 30))
        while is_involution(not_inv):
            not_inv = inputs.permutation(rng, len(not_inv))
        return [
            Query("bad", _spaced(duplicate), ("f",), refused),
            Query("bad", _spaced(token), ("rsk",), refused),
            Query("bad", _spaced(too_big), ("check", "--prop", "involution"), refused),
            Query("bad", _spaced(not_inv), ("tableau",), refused),
            Query("bad", _spaced(p), ("check", "--prop", "bogus"), refused),
            Query("bad", "".join(str(rng.randrange(1, 10)) for _ in range(12)), ("f",), refused),
            Query("bad", _spaced(p), ("f", "--method", "nope"), refused),
            Query("bad", "", ("count", "--what", "A", "--n", str(-rng.randrange(1, 9))), refused),
        ]

    @staticmethod
    def argv(q: Query) -> tuple[str, ...]:
        if q.kind == "bad":
            command, *rest = q.option
            return (command, q.text, *rest) if q.text else (command, *rest)
        if q.kind in ("f", "tableau"):
            return (q.kind, q.text, "--method", "all")
        if q.kind == "check":
            return ("check", q.text, "--prop", q.option)
        if q.kind == "count":
            return ("count", "--what", "A", "--n", str(q.option))
        return ("rsk", q.text, "--json")

    @staticmethod
    def warm_up() -> None:
        for argv in (
            ("f", "2 1 5 4 3", "--method", "all"),
            ("check", "2 1 3", "--prop", "gfk-tight"),
            ("check", "2 1 3", "--prop", "dually-gfk-tight"),
            ("check", "2 1 3", "--prop", "transposed-layer"),
            ("check", "2 1 3", "--prop", "avoids:12"),
            ("tableau", "1 3 2 5 4", "--method", "all"),
            ("count", "--what", "A", "--n", "6"),
            ("rsk", "3 1 2", "--json"),
            ("f", "1 1"),
        ):
            run_cli(argv)

    def replay(self, tracer: Tracer, outputs: list) -> tuple[list, dict[str, int]]:
        """Make the library calls each query makes inside cli.run, directly
        and in the same order, and rebuild the text it prints.  The
        "replay.cli" span of a query covers exactly those calls."""
        counters = {
            "rsk.forward.row_visits": 0,
            "greene.oracle.subsets": 0,
            "permutations.pattern_scan.subsets_max": 0,
            "enumeration.count_A.partitions": 0,
        }
        partitions = inputs.partition_counts(max(self.count_sizes))
        reference = []
        for q in self.queries:
            with tracer.span("replay.cli"):
                reference.append(self._call(q, tracer, counters, partitions))
        return reference, counters

    def _call(self, q: Query, t: Tracer, counters: dict[str, int], partitions: list[int]):
        def oracle(predicate, p):
            misses = oracle_cache()[1]
            with t.span("greene.oracle", len(p)):
                value = predicate(p)
            counters["greene.oracle.subsets"] += 2 ** len(p) * (oracle_cache()[1] - misses)
            return value

        def avoids(p, pattern):
            scans = comb(len(p), len(pattern))
            key = "permutations.pattern_scan.subsets_max"
            counters[key] = max(counters[key], scans)
            with t.span("permutations.pattern_scan", len(p)):
                return not rsinv.contains_pattern(p, pattern)

        def tableau(p):
            with t.span("rsk.forward", len(p)):
                tab = rsinv.tableau_of_involution(p)
            counters["rsk.forward.row_visits"] += weight(shape(tab)) + len(p)
            return tab

        def parse(text):
            with t.span("permutations.parse_format"):
                return rsinv.parse_permutation(text)

        if q.kind == "bad":
            if q.text:
                try:
                    parse(q.text)
                except DomainError:
                    pass
            return None
        if q.kind == "count":
            with t.span("enumeration.count_A", q.option):
                value = rsinv.count_A(q.option)
            counters["enumeration.count_A.partitions"] += partitions[q.option]
            return (0, f"{value}\n")
        p = parse(q.text)
        n = len(p)
        if q.kind == "rsk":
            with t.span("rsk.forward", n):
                p_tab, q_tab = rsinv.rsk(p)
            counters["rsk.forward.row_visits"] += weight(shape(p_tab)) + n
            pair = {"P": {"rows": list(map(list, p_tab))}, "Q": {"rows": list(map(list, q_tab))}}
            return (0, json.dumps(pair, separators=(",", ":")) + "\n")
        if q.kind == "check":
            if q.option == "gfk-tight":
                value = oracle(rsinv.is_gfk_tight, p)
            elif q.option == "dually-gfk-tight":
                value = oracle(rsinv.is_dually_gfk_tight, p)
            elif q.option == "transposed-layer":
                value = rsinv.satisfies_transposed_layer(tableau(p))
            else:
                value = avoids(p, parse(q.option.split(":", 1)[1]))
            return (0, "true\n") if value else (1, "false\n")
        if q.kind == "tableau":
            results = {tableau(p)}
            if rsinv.is_involution(p) and avoids(p, (3, 2, 1)):
                with t.span("direct.two_row", n):
                    results.add(rsinv.tableau_of_321_avoiding(p))
            return (0, _fmt_rows(results.pop())) if len(results) == 1 else ("disagree", results)
        # f --method all
        with t.span("rsk.f", n):
            results = {rsinv.f_involution(p)}
        if rsinv.is_involution(p) and rsinv.is_involution(rsinv.reverse(p)):
            with t.span("direct.shortcut", n):
                results.add(rsinv.f_rev_shortcut(p))
        if n <= greene.oracle_cap() and rsinv.is_involution(p) and oracle(rsinv.is_gfk_tight, p):
            with t.span("direct.gfk", n):
                results.add(rsinv.f_gfk_tight_direct(p))
        if rsinv.is_involution(p) and avoids(p, (1, 2, 3)):
            with t.span("direct.123", n):
                results.add(rsinv.f_123_avoiding_direct(p))
        if len(results) != 1:
            return ("disagree", results)
        with t.span("permutations.parse_format"):
            text = rsinv.format_permutation(results.pop())
        return (0, text + "\n")

    def problems(self, outputs: list, reference: list) -> dict[Any, str]:
        bad: dict[Any, str] = {}
        for i, (q, out, direct) in enumerate(zip(self.queries, outputs, reference)):
            argv = " ".join(self.ops[i].arg)[:60]
            if isinstance(out, Failure):
                bad[i] = f"{argv}: {out.error}"
                continue
            code, stdout, stderr = out
            expected = q.known or direct
            if (code, stdout) != expected:
                bad[i] = f"{argv}: exit {code}, stdout {stdout[:40]!r}; expected {expected!r:.60}"
            elif q.known and direct is not None and direct != q.known:
                bad[i] = f"{argv}: library result {direct!r:.60} contradicts the construction"
            elif code == 2 and not stderr:
                bad[i] = f"{argv}: exit 2 without an error message"
        return bad

    def digest_items(self, outputs: list) -> list:
        return [out if isinstance(out, Failure) else out[:2] for out in outputs]


class VerifyBattery(Workload):
    """Every check in verify.SUITES at its default size, in suite order.
    The battery has no random inputs, so the seed does not change it."""

    name = "verify-battery"
    generator_sizes = 10
    partition_sizes = 12
    roundtrip_sizes = 7

    def __init__(self, seed: int) -> None:
        self.checks = verify_checks()
        self.ops = [
            Op(f"verify.{suite}.{name}", check, max_n) for suite, name, check, max_n in self.checks
        ]

    @staticmethod
    def warm_up() -> None:
        for checks in verify.SUITES.values():
            for check in checks:
                check(3)

    def work(self, outputs: list) -> int:
        return sum(out.checked for out in outputs if not isinstance(out, Failure))

    def replay(self, tracer: Tracer, outputs: list) -> tuple[list, dict[str, int]]:
        """The enumeration generators at the sizes the checks use, and the
        rsk round trip over every permutation of n <= 7, as the rsk suite
        runs it: many tiny calls, where the cost is per call."""
        gen_n, part_n = self.generator_sizes, self.partition_sizes
        with tracer.span("enumeration.generators"):
            counts = {
                family: [sum(1 for _ in gen(n)) for n in range(top + 1)]
                for family, gen, top in (
                    ("involutions", rsinv.involutions, gen_n),
                    ("standard_tableaux", rsinv.standard_tableaux, gen_n),
                    ("layered_tableaux", rsinv.layered_tableaux, gen_n),
                    ("layered_permutations", rsinv.layered_permutations, gen_n),
                    ("partitions", rsinv.partitions, part_n),
                )
            }
        perms = [
            p
            for n in range(self.roundtrip_sizes + 1)
            for p in itertools.permutations(range(1, n + 1))
        ]
        with tracer.span("rsk.forward"):
            pairs = [rsinv.rsk(p) for p in perms]
        with tracer.span("rsk.reverse"):
            back = [rsinv.inverse_rsk(pair) for pair in pairs]
        shapes = [shape(p_tab) for p_tab, _ in pairs]
        counters = {
            "rsk.forward.row_visits": sum(weight(s) + sum(s) for s in shapes),
            "rsk.reverse.row_visits": sum(weight(s) for s in shapes),
        }
        return [counts, back == perms], counters

    def problems(self, outputs: list, reference: list) -> dict[Any, str]:
        bad: dict[Any, str] = {}
        for i, out in enumerate(outputs):
            if isinstance(out, Failure):
                bad[i] = out.error
            elif not out.ok:
                bad[i] = f"{self.ops[i].name}: {'; '.join(out.failures)}"
        counts, roundtrip = reference
        layered = [1] + [2 ** (n - 1) for n in range(1, self.generator_sizes + 1)]
        expected = {
            "involutions": inputs.involution_counts(self.generator_sizes),
            "standard_tableaux": inputs.involution_counts(self.generator_sizes),
            "layered_tableaux": layered,
            "layered_permutations": layered,
            "partitions": inputs.partition_counts(self.partition_sizes),
        }
        for family, want in expected.items():
            if counts[family] != want:
                bad[f"generator {family}"] = f"counts {counts[family]}, expected {want}"
        if not roundtrip:
            bad["rsk round trip"] = "inverse_rsk(rsk(p)) != p for some p with n <= 7"
        return bad

    def digest_items(self, outputs: list) -> list:
        return [
            out if isinstance(out, Failure) else (out.name, out.checked, out.failures)
            for out in outputs
        ]


WORKLOADS = {cls.name: cls for cls in (FLarge, CliQueries, VerifyBattery)}
