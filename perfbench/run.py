"""The rsinv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: it uses the checkout's ``src`` and
needs only the standard library.  The workloads, metrics and bounds are in
BENCHMARK.json at the root of the checkout; perfbench/README.md explains
them.

With ``--trace 0`` it times SETUP_STARTS fresh interpreters that import
rsinv and warm up (``setup_s`` is their median), then runs the workload in
one more fresh interpreter (worker.py) and reports the end-to-end metrics.
With ``--trace 1`` it reports the per-layer metrics of a traced run.  A
report for people goes to stderr; the last line on stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 means the run finished, whatever ``correct``
says; 2 means it could not run, and then no result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from calibration import REFERENCE_START_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60
#: the whole run, set-up included, must end within this
RUN_TIMEOUT_S = 170


class BenchmarkError(Exception):
    pass


def child_env() -> dict[str, str]:
    """The caller's environment without RSINV_MAX_N, which would lower the
    library's size caps and change the work."""
    env = dict(os.environ)
    env.pop("RSINV_MAX_N", None)
    return env


def elapsed_s(cmd: list[str], env: dict[str, str]) -> float:
    """Seconds from starting ``cmd`` until it has exited with code 0."""
    start = perf_counter()
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S
    )
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise BenchmarkError(f"{' '.join(cmd[1:])} exited with code {done.returncode}")
    return elapsed


def time_setup(workload: str, env: dict[str, str]) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it has imported
    rsinv, warmed up and exited: (at the reference start speed, as
    measured).  An empty interpreter started right after gives the speed."""
    setup = elapsed_s([sys.executable, WORKER, "--workload", workload, "--setup-only"], env)
    empty = elapsed_s([sys.executable, "-c", "pass"], env)
    return setup * REFERENCE_START_S / empty, setup


def run_worker(args, env: dict[str, str], timeout: float) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"workload exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("workload printed no result")
    return json.loads(lines[-1])


def select(declared: list[dict], measured: dict) -> dict:
    """The declared metrics, in declared order, with their declared units."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in measured:
            raise BenchmarkError(f"metric {name} was not measured")
        value, unit = measured[name]
        if unit != metric["unit"]:
            raise BenchmarkError(f"metric {name} measured in {unit}, declared in {metric['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def report(result: dict, notes: dict, measured: dict, shown: dict) -> None:
    err = sys.stderr
    info = result["report"]
    for key in ("workload", "seed", "python", "passes", "traced_passes", "calls_per_pass",
                "calls_above_p90", "error_rate", "digest",
                "unscaled_wall_s", "pass_seconds"):  # fmt: skip
        print(f"{key}: {info[key]}", file=err)
    for key, value in notes.items():
        print(f"{key}: {value}", file=err)
    print(f"correct: {result['correct']}  attempted: {result['attempted']}"
          f"  failed: {result['failed']}", file=err)  # fmt: skip
    for problem in info["problems"]:
        print(f"problem: {problem}", file=err)
    for record in info.get("records", []):
        print("record: " + json.dumps(record), file=err)
    for name, span in info.get("spans", {}).items():
        print(f"span {name}: {span['count']} spans, total {span['total_s']:.6f} s,"
              f" self {span['self_s']:.6f} s", file=err)  # fmt: skip
    for name, (value, unit) in measured.items():
        extra = "" if name in shown else "  (not in BENCHMARK.json)"
        print(f"metric {name}: {value} {unit}{extra}", file=err)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="The rsinv benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join(ROOT, "src", "rsinv", "__init__.py")):
            raise BenchmarkError(f"no rsinv sources under {os.path.join(ROOT, 'src')}")
        env = child_env()
        measured: dict = {}
        notes: dict = {}
        if not args.trace:
            starts = [time_setup(args.workload, env) for _ in range(SETUP_STARTS)]
            measured["setup_s"] = (statistics.median(s for s, _ in starts), "s")
            notes["unscaled_setup_s"] = statistics.median(u for _, u in starts)
        result = run_worker(args, env, RUN_TIMEOUT_S - (perf_counter() - started))
        measured.update((name, tuple(pair)) for name, pair in result["metrics"].items())
        metrics = select(spec["per_layer" if args.trace else "end_to_end"], measured)
    except (BenchmarkError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result, notes, measured, metrics)
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = metrics
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
