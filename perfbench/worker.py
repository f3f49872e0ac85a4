"""One workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

The worker imports rsinv from the checkout's ``src``, warms up, and with
``--setup-only`` exits there.  Otherwise it builds the seeded inputs,
repeats passes over the workload's fixed work until ``--seconds`` is
used, calling one op at a time (a closed loop with one caller), checks
the outputs, and prints one JSON line: the counts of calls attempted and
failed, the metrics measured, and a report for people.  With
``--trace 1`` the passes alternate between untraced and traced, and the
metrics are the per-layer ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rsinv  # noqa: E402
import workloads  # noqa: E402
from calibration import at_reference, calibrate  # noqa: E402
from spans import Tracer  # noqa: E402

#: sha256 of the first pass's outputs at DEFAULT_SEED, per workload
DEFAULT_SEED = 1
PINNED_DIGESTS = {
    "f-large": "d14a396c7a1d1edacd5e5797230465653010863d89369c1f75817b2f5a8cbb42",
    "cli-queries": "b4e77a26a2cd88813cc3b21f2d6369c9bd4a69ab94a83ebb3a6ce0af44d7ccc8",
    "verify-battery": "c275240eb48217f23d6e7c11d70ba19cc6c64cf3b02b93b01316a39d8e25bec1",
}

#: at least one untraced and one traced pass in a traced run
MIN_PASSES = 2
#: calibration marks around a call whose median gives the call's speed
SPEED_WINDOW = 10

BUSY_LAYERS = (
    "rsk.forward",
    "rsk.reverse",
    "rsk.f",
    "tableaux.transpose",
    "tableaux.validate",
    "greene.oracle",
    "permutations.pattern_scan",
    "permutations.parse_format",
    "direct.gfk",
    "direct.123",
    "direct.two_row",
    "enumeration.count_A",
    "enumeration.generators",
    "cli.run",
)
COUNTERS = (
    "rsk.forward.row_visits",
    "rsk.reverse.row_visits",
    "greene.oracle.subsets",
    "permutations.pattern_scan.subsets_max",
    "enumeration.count_A.partitions",
)
ORACLE_SIZES = (12, 14, 16)


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list[float]
    speeds: list[float]
    outputs: list
    tracer: Tracer | None
    cache: tuple[int, int, int]


def one_pass(wl, tracer) -> Pass:
    wl.reset()
    outputs: list = []
    latencies: list[float] = []
    marks = [calibrate()]
    out = None
    start = perf_counter()
    for op in wl.ops:
        arg = out if op.arg is workloads.PREV else op.arg
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.fn(arg)
            else:
                with tracer.span(op.name):
                    out = op.fn(arg)
        except Exception as exc:  # a failing call is counted, not fatal
            out = workloads.Failure(f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t0)
        outputs.append(out)
        marks.append(calibrate())
    wall = perf_counter() - start
    # the host's speed holds for seconds, so the median of the marks
    # around a call is a steadier reading of it than the two next to it
    half = SPEED_WINDOW // 2
    speeds = [
        statistics.median(marks[max(0, i + 1 - half) : i + 1 + half])
        for i in range(len(latencies))
    ]
    cache = workloads.oracle_cache()
    return Pass(tracer is not None, wall, latencies, speeds, outputs, tracer, cache)


def run_passes(wl, seconds: float, trace: bool) -> tuple[list[Pass], list, list[set[int]]]:
    """Passes until the next one would end after ``seconds``, but at least
    MIN_PASSES.  Only the first pass keeps its outputs; each later pass is
    compared with it and reduced to the set of ops whose output differed."""
    passes: list[Pass] = []
    first: list = []
    differ: list[set[int]] = []
    start = perf_counter()
    while True:
        traced = trace and 2 * sum(p.traced for p in passes) < len(passes)
        p = one_pass(wl, Tracer() if traced else None)
        if passes:
            differ.append({i for i, (a, b) in enumerate(zip(first, p.outputs)) if a != b})
        else:
            first = p.outputs
            differ.append(set())
        p.outputs = []
        passes.append(p)
        next_end = perf_counter() - start + statistics.median(q.wall for q in passes)
        if len(passes) >= MIN_PASSES and next_end > seconds:
            break
    return passes, first, differ


def digest(items: list) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def per_call(wl, passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each call's time, the median over the passes, at the reference
    speed unless ``scaled`` is false."""
    return [
        statistics.median(
            at_reference(p.latencies[i], p.speeds[i]) if scaled else p.latencies[i]
            for p in passes
        )
        for i in range(len(wl.ops))
    ]


def end_to_end(wl, passes: list[Pass], first: list, peak_rss_mb: float) -> dict:
    """The pass time is the sum of the calls' times, and the percentiles
    are over the calls of a pass."""
    times = per_call(wl, passes)
    wall = sum(times)
    cuts = statistics.quantiles([t * 1000 for t in times], n=10)
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (wl.work(first) / wall, "1/s"),
        "op_p50_ms": (cuts[4], "ms"),
        "op_p90_ms": (cuts[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(wl, passes: list[Pass], first: list, replays: list) -> dict:
    """Busy time of a layer: its spans in a traced pass (median over the
    traced passes) plus its spans in a replay (mean of the replays)."""
    traced = [p for p in passes if p.traced]
    tracers = [r[0] for r in replays]

    def busy(name: str) -> float:
        in_pass = statistics.median(p.tracer.busy(name) for p in traced)
        return in_pass + statistics.fmean(t.busy(name) for t in tracers)

    out = {f"{name}.busy_s": (busy(name), "s") for name in BUSY_LAYERS}
    out.update({name: (replays[0][2].get(name, 0), "count") for name in COUNTERS})
    out["greene.oracle.calls"] = (len(tracers[0].durations("greene.oracle")), "count")
    for n in ORACLE_SIZES:
        times = [d for t in tracers for d in t.durations("greene.oracle", n)]
        out[f"greene.oracle.n{n}_ms"] = (statistics.median(times) * 1000 if times else 0.0, "ms")
    hits, misses, entries = traced[-1].cache
    out["greene.cache.hits"] = (hits, "count")
    out["greene.cache.misses"] = (misses, "count")
    out["greene.cache.entries"] = (entries, "count")
    out["greene.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # cli.run time minus the same library calls made directly, per query;
    # the median over queries keeps the machine's noise on the long
    # queries out of a difference of a fraction of a millisecond each
    direct = [statistics.fmean(d) for d in zip(*(t.durations("replay.cli") for t in tracers))]
    via_cli = [
        statistics.median(p.latencies[i] for p in passes)
        for i, op in enumerate(wl.ops)
        if op.name == "cli.run"
    ]
    gaps = [c - d for c, d in zip(via_cli, direct)]
    out["cli.overhead_s"] = (len(gaps) * statistics.median(gaps) if gaps else 0.0, "s")
    checked = {op.name: res.checked for op, res in zip(wl.ops, first) if hasattr(res, "checked")}
    for suite, name, _, _ in workloads.verify_checks():
        key = f"verify.{suite}.{name}"
        out[f"{key}.s"] = (statistics.median(p.tracer.busy(key) for p in traced), "s")
        out[f"{key}.instances"] = (checked.get(key, 0), "count")
    # passes alternate untraced, traced: compare each traced pass with the
    # untraced pass just before it, both at the reference speed
    scaled = [sum(map(at_reference, p.latencies, p.speeds)) for p in passes]
    pairs = zip(scaled[0::2], scaled[1::2])
    out["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs), "s")
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.abspath(rsinv.__file__).startswith(SRC + os.sep):
        print(f"error: rsinv imported from {rsinv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    cls.warm_up()
    if args.setup_only:
        return 0

    wl = cls(args.seed)
    passes, first, differ = run_passes(wl, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    replays = []
    for _ in range(2 if args.trace else 1):
        tracer = Tracer()
        wl.reset()
        reference, counters = wl.replay(tracer, first)
        replays.append((tracer, reference, counters))
    bad = wl.problems(first, replays[0][1])
    if len({tuple(sorted(r[2].items())) for r in replays}) > 1:
        bad["counters"] = f"computed counters differ between replays: {[r[2] for r in replays]}"
    if len({p.cache for p in passes}) > 1:
        bad["caches"] = f"oracle cache counts differ between passes: {[p.cache for p in passes]}"
    out_digest = digest(wl.digest_items(first))
    pinned = PINNED_DIGESTS[wl.name]
    if args.seed == DEFAULT_SEED and pinned and out_digest != pinned:
        bad["digest"] = f"outputs digest {out_digest} != pinned {pinned}"

    failed = sum(1 for d in differ for i in range(len(wl.ops)) if i in d or i in bad)
    attempted = len(passes) * len(wl.ops)
    plain = [p for p in passes if not p.traced]
    if args.trace:
        metrics = per_layer(wl, passes, first, replays)
    else:
        metrics = end_to_end(wl, plain, first, peak_rss_mb)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "calls_per_pass": len(wl.ops),
        "calls_above_p90": len(wl.ops) - int(0.9 * (len(wl.ops) + 1)),
        "error_rate": failed / attempted,
        "unscaled_wall_s": sum(per_call(wl, plain, scaled=False)),
        "pass_seconds": [p.wall for p in passes],
        "digest": out_digest,
        "problems": [f"{key}: {msg}" for key, msg in list(bad.items())[:10]],
    }
    if wl.name == "verify-battery":
        report["records"] = [
            {
                "suite": suite,
                "check": name,
                "max_n": max_n,
                "checked": out.checked,
                "failures": out.failures,
                "seconds": statistics.median(p.latencies[i] for p in plain),
            }
            for i, ((suite, name, _, max_n), out) in enumerate(zip(wl.checks, first))
            if not isinstance(out, workloads.Failure)
        ]
    if args.trace:
        traced = next(p for p in passes if p.traced)
        report["spans"] = {
            f"{phase} {name}": {"count": count, "total_s": total, "self_s": own}
            for phase, tracer in (("pass", traced.tracer), ("replay", replays[0][0]))
            for name, (count, total, own) in sorted(tracer.summary().items())
        }
    print(
        json.dumps(
            {
                "correct": not bad,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "report": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
