"""Mutation smoke: each row breaks the library on purpose and names a
command that must notice.

Run from the repository root, with the standard library only:

    python3 tests/mutants.py

It copies ``src/`` and ``tests/`` to a temporary directory and runs every
row's command there on the unchanged copy first, where each must pass.
Then, one row at a time, it checks that the row's text occurs exactly once
in its file (a refactor that moves it fails loudly, and the row is updated
with it), applies the replacement, runs the command and restores the file.
A command passes when it exits 0 and, where the row pins one, its stdout
has that sha256.  A mutant is killed when its command does not pass.

Every row is a mutant that must be killed, except the equivalent ones
marked ``survives``: they change how an answer is found, never the answer,
so every check must still pass on them.  One line is printed a row, and
the exit status is 1 if any row went the other way.  Pytest does not
collect this file; CI runs it as its own step.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent

#: sha256 of ``rsinv verify --suite all``, as pinned in CI
VERIFY_ALL = "f23d8cac770706ee6b2c87c392b46a16470abffdefbe7c1c2ce8cde3e652d9ca"


def verify(suite: str) -> tuple[str, ...]:
    return (sys.executable, "-m", "rsinv.cli", "verify", "--suite", suite)


def pytest(*args: str) -> tuple[str, ...]:
    return (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args)


class Mutant(NamedTuple):
    name: str
    file: str  # under src/rsinv
    text: str  # must occur exactly once
    replacement: str
    command: tuple[str, ...]
    digest: str | None = None  # sha256 the command's stdout must have to pass
    survives: bool = False


MUTANTS = (
    Mutant(
        "_inverse_rsk skips row 0",
        "insertion.py",
        "reversed(rows[:r])",
        "reversed(rows[1:r])",
        verify("rsk"),
    ),
    Mutant(
        "rsk keeps the column the carry left",
        "insertion.py",
        "                if prow[j - 1] > x:\n                    j -= 1\n",
        "                if False:\n                    j -= 1\n",
        verify("rsk"),
    ),
    Mutant(
        "_inverse_rsk's one-column probe skips a column",
        "insertion.py",
        "                j += 1\n                if row[j + 1] < x:\n",
        "                j += 1\n                if True:\n",
        verify("rsk"),
    ),
    Mutant(
        "_bump keeps the column the carry left",
        "insertion.py",
        "                if j and row[j - 1] > x:\n                    j -= 1\n",
        "                if False:\n                    j -= 1\n",
        verify("rsk"),
    ),
    Mutant(
        "_peel's one-column probe skips a column",
        "insertion.py",
        "                c += 1\n                if row[c + 1] < i:\n",
        "                c += 1\n                if True:\n",
        verify("rsk"),
    ),
    Mutant(
        "_peel skips row 0",
        "insertion.py",
        "reversed(above)",
        "reversed(above[1:])",
        verify("rsk"),
    ),
    Mutant(
        "transpose sized by the last row",
        "tableaux.py",
        "len(t[0])",
        "len(t[-1])",
        verify("rsk"),
    ),
    Mutant(
        "_shape_within capped at most - 1",
        "insertion.py",
        "if _bump(rows, tail, x) == most:",
        "if _bump(rows, tail, x) == most - 1:",
        verify("characterization"),
    ),
    Mutant(
        "is_gfk_tight without conjugate",
        "insertion.py",
        "reverse(q), tableaux.conjugate(lengths)",
        "reverse(q), lengths",
        verify("characterization"),
    ),
    Mutant(
        "_layer_tops without its block check",
        "permutations.py",
        "if list(p[base:top]) != list(range(top, base, -1)):",
        "if False:",
        verify("characterization"),
    ),
    Mutant(
        "rsk folds rows past 40 into the last row",
        "insertion.py",
        "rows.append(([0, x, big], [step]))",
        "rows.append(([0, x, big], [step])) if len(rows) < 39"
        " else (rows[-1][0].insert(-1, x), rows[-1][1].append(step))",
        pytest("tests/test_rsk.py", "-k", "bump_kernels_agree or at_scale"),
    ),
    Mutant(
        "jog_lengths unsorted",
        "permutations.py",
        "lengths.sort(reverse=True)",
        "pass",
        pytest("tests/test_permutations.py", "-k", "jog"),
    ),
    # On a permutation the jog lower bound already forces the last prefix
    # sum to be n, so no verify suite kills this one; only the synthetic
    # profiles of this test do.
    Mutant(
        "_tight_against drops the last length",
        "greene.py",
        "accumulate(lengths)",
        "accumulate(lengths[:-1])",
        pytest("tests/test_greene.py", "-k", "test_tight_against_compares_every_prefix_sum"),
    ),
    # Each orbit of the diagram's symmetries has one profile, so a key that
    # is some other image of the orbit changes no answer; only the key's
    # own test, the least of the four images, sees it.
    Mutant(
        "the orbit key skips a turned image",
        "greene.py",
        "if p and m - p[-1] <= key[0]:",
        "if False:",
        pytest("tests/test_greene.py", "-k", "test_one_inverse_gives_the_orbit_key"),
    ),
    Mutant(
        "the oracle resumes from the states after c + 1 shared values",
        "greene.py",
        "            shared += 1\n",
        "            shared += 1\n        shared += shared < n - 2\n",
        verify("greene"),
    ),
    Mutant(
        "the oracle merges unequal keys: tops raised to n + 1",
        "greene.py",
        "u = rest[j]",
        "u = n + 1",
        verify("greene"),
    ),
    # verify picks the pattern-avoiding instances of two checks with
    # contains_pattern, so a search that always matches empties them; the
    # pattern tests see it, and so do those checks' instance counts.
    Mutant(
        "contains_pattern without its pattern check",
        "permutations.py",
        "if lo < x < hi:",
        "if True:",
        pytest("tests/test_permutations.py", "-k", "pattern"),
    ),
    Mutant(
        "contains_pattern without its pattern check, under verify",
        "permutations.py",
        "if lo < x < hi:",
        "if True:",
        verify("characterization"),
    ),
    Mutant(
        "layers reads a word that is not layered as one layer",
        "permutations.py",
        'raise NotLayered(f"not layered: {tuple(p)}")',
        "tops = [len(p)]",
        pytest("tests/test_permutations.py", "-k", "layers"),
    ),
    # The permutation check puts each entry in the slot of its value, and
    # the tableau check counts distinct entries and reads the largest from
    # the row ends: the tests against the definitions see each of these.
    Mutant(
        "_in_value_order without its final compare",
        "permutations.py",
        "return ordered if ordered == list(range(1, n + 1)) else None",
        "return ordered",
        pytest("tests/test_permutations.py", "-k", "is_permutation_agrees"),
    ),
    Mutant(
        "_checked without its distinct count",
        "tableaux.py",
        "distinct == n\n",
        "True\n",
        pytest("tests/test_tableaux.py", "-k", "every_perturbation"),
    ),
    Mutant(
        "_checked without its largest-row-end test",
        "tableaux.py",
        " and max(map(itemgetter(-1), tab)) == n",
        "",
        pytest("tests/test_tableaux.py", "-k", "every_perturbation"),
    ),
    Mutant(
        "count_A without parts of size n",
        "enumeration.py",
        "for j in range(n, 1, -1):",
        "for j in range(n - 1, 1, -1):",
        verify("counting"),
    ),
    Mutant(
        "f_gfk_tight_direct swaps its first two layers",
        "direct.py",
        "layered_from_composition(_jog_runs(p))",
        "layered_from_composition(_jog_runs(p)[1::-1] + _jog_runs(p)[2:])",
        verify("characterization"),
    ),
    Mutant(
        "standard_tableaux grows a row as long as the one above it",
        "enumeration.py",
        "len(rows[r]) == len(rows[r - 1])",
        "len(rows[r]) > len(rows[r - 1])",
        verify("counting"),
    ),
    Mutant(
        "f's route rule inverted",
        "insertion.py",
        "if 5 * n_lam + 10 * n < n_lam_transposed - comb(overhang, 2):",
        "if not 5 * n_lam + 10 * n < n_lam_transposed - comb(overhang, 2):",
        verify("all"),
        digest=VERIFY_ALL,
        survives=True,
    ),
    # Each probe only saves a search of the columns it looks at.
    Mutant(
        "rsk drops its one-column probe",
        "insertion.py",
        "                    j -= 1\n                    if prow[j - 1] > x:\n"
        "                        j = bisect_right(prow, x, 1, j - 1)\n",
        "                    j = bisect_right(prow, x, 1, j - 1)\n",
        verify("all"),
        digest=VERIFY_ALL,
        survives=True,
    ),
    Mutant(
        "_inverse_rsk drops its one-column probe",
        "insertion.py",
        "                j += 1\n                if row[j + 1] < x:\n"
        "                    j = bisect_left(row, x, j + 2) - 1\n",
        "                j = bisect_left(row, x, j + 2) - 1\n",
        verify("all"),
        digest=VERIFY_ALL,
        survives=True,
    ),
    Mutant(
        "_bump drops its one-column probe",
        "insertion.py",
        "                    j -= 1\n                    if j and row[j - 1] > x:\n"
        "                        j = bisect_right(row, x, 0, j - 1)\n",
        "                    j = bisect_right(row, x, 0, j - 1)\n",
        verify("all"),
        digest=VERIFY_ALL,
        survives=True,
    ),
    Mutant(
        "_peel drops its one-column probe",
        "insertion.py",
        "                c += 1\n                if row[c + 1] < i:\n"
        "                    c = bisect_left(row, i, c + 2) - 1\n",
        "                c = bisect_left(row, i, c + 2) - 1\n",
        verify("all"),
        digest=VERIFY_ALL,
        survives=True,
    ),
    Mutant(
        "the oracle always restarts",
        "greene.py",
        "if len(word) == n:",
        "if False:",
        verify("all"),
        digest=VERIFY_ALL,
        survives=True,
    ),
)


def passes(command: tuple[str, ...], digest: str | None, root: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(command, cwd=root, env=env, capture_output=True)
    return run.returncode == 0 and (
        digest is None or hashlib.sha256(run.stdout).hexdigest() == digest
    )


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, root / part, ignore=skip)
        for command, digest in dict.fromkeys((m.command, m.digest) for m in MUTANTS):
            if not passes(command, digest, root):
                print(f"FAIL  unmutated copy: {' '.join(command[1:])}")
                failed += 1
        if failed:
            return 1
        for mutant in MUTANTS:
            path = root / "src" / "rsinv" / mutant.file
            source = path.read_text()
            found = source.count(mutant.text)
            if found != 1:
                print(f"FAIL  {mutant.name}: text occurs {found} times in {mutant.file}")
                failed += 1
                continue
            start = time.perf_counter()
            path.write_text(source.replace(mutant.text, mutant.replacement))
            try:
                survived = passes(mutant.command, mutant.digest, root)
            finally:
                path.write_text(source)
            seconds = time.perf_counter() - start
            outcome = "survived" if survived else "killed"
            ok = survived == mutant.survives
            failed += not ok
            print(f"{'ok' if ok else 'FAIL':5} {outcome:8} {mutant.name} ({seconds:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
