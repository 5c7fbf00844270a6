#!/usr/bin/env python3
"""Run single-line mutants of the package through the tier-1 suite.

    python3 tools/mutants.py           # every mutant
    python3 tools/mutants.py NAME ...  # the named ones
    python3 tools/mutants.py --list    # their names and edits

Run from anywhere in a repository checkout.  Each mutant edits one line of
one file under `src/`, in a fresh temporary copy of the tree, and the tier-1
suite runs there with `-x`.  A mutant is killed when a test fails that passes
on the unmutated copy: the tests that already fail there are deselected from
every mutant's run.  Each copy is removed after its run.  The last line
printed is the score; the exit code is 1 when a mutant survives or no longer
applies (its line has changed), else 0.  Standard library only, and outside
the suite's `testpaths`.
"""

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/consensusgame"
IGNORE = shutil.ignore_patterns(
    ".git", ".perfbench", ".benchmarks", ".hypothesis", ".pytest_cache", "__pycache__"
)
RUN_TIMEOUT_S = 1800

# (name, file, the line's text, what it becomes); each text occurs once in its file
MUTANTS = [
    ("pivot-cap", f"{PKG}/core.py",
     "return 10 * n * num_restricted(n)", "return 2 * n * num_restricted(n)"),
    ("residual-var-count", f"{PKG}/agents.py",
     "/ self.observations\n", "/ (self.observations + 1)\n"),
    ("slope-prior", f"{PKG}/agents.py",
     "SLOPE_PRIOR = 1e-2, 1e-3", "SLOPE_PRIOR = 1e-2, 2e-3"),
    ("stochastic-tol", f"{PKG}/consensus.py",
     "STOCHASTIC_TOL = 1e-12", "STOCHASTIC_TOL = 1e-9"),
    ("emptiness-inversion", f"{PKG}/harness.py",
     "if b < a - 0.02)", "if b < a - 0.05)"),
    ("sweep-slack", f"{PKG}/harness.py",
     "b <= a * (1 + 1e-9) + 1e-300", "b <= a * (1 + 1e-6) + 1e-300"),
    ("efficiency-degenerate", f"{PKG}/harness.py",
     "float(np.ptp(t)) < 1e-12", "float(np.ptp(t)) < 1e-6"),
    ("efficiency-control-floor", f"{PKG}/harness.py",
     "control_drift > 1e-6)", "control_drift > 1e-9)"),
    ("covers-grand-slack", f"{PKG}/core.py",
     "(sums[:, -1] <= values[:, -1] + tol)", "(sums[:, -1] <= values[:, -1] + 10 * tol)"),
    ("dual-tie-slack", f"{PKG}/core.py",
     "ratios <= ratios.min() + _PIVOT_EPS]", "ratios <= ratios.min() + 1e-3]"),
    ("dual-clip-deleted", f"{PKG}/core.py",
     "        np.clip(weights, 0.0, None, out=weights)\n", ""),
    ("stream-window-doubled", f"{PKG}/setfn.py",
     "window = min(max(1, cap // count), streams)", "window = min(2 * max(1, cap // count), streams)"),
    ("stream-admits-only-when-idle", f"{PKG}/setfn.py",
     "for _ in range(min(len(free), streams - admitted)):",
     "for _ in range(0 if flight else min(len(free), streams - admitted)):"),
]


def copy_tree(into: Path) -> Path:
    tree = into / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def tier1(tree: Path, extra: list[str]) -> tuple[int, list[str]]:
    """Exit code of the suite in ``tree`` and the tests it reports failed."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *extra],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", result.stdout, re.MULTILINE)
    return result.returncode, failed


def run_mutant(mutant, deselect: list[str]) -> str:
    """'killed by <test>', 'SURVIVED', or 'STALE' when its line has changed."""
    _, path, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = copy_tree(Path(tmp))
        source = (tree / path).read_text()
        if source.count(old) != 1:
            return "STALE"
        (tree / path).write_text(source.replace(old, new))
        code, failed = tier1(tree, ["-x", *(f"--deselect={test}" for test in deselect)])
    if code == 0:
        return "SURVIVED"
    return f"killed by {failed[0] if failed else f'exit code {code}'}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run; all when none is given")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args()
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    if args.list:
        for name, path, old, new in chosen:
            print(f"{name}: {path}: {old.strip()!r} -> {new.strip()!r}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _, baseline = tier1(copy_tree(Path(tmp)), [])
    print(f"unmutated: {len(baseline)} failing, deselected: {' '.join(baseline) or '-'}", flush=True)
    killed = 0
    for mutant in chosen:
        verdict = run_mutant(mutant, baseline)
        killed += verdict.startswith("killed")
        print(f"{mutant[0]}: {verdict}", flush=True)
    print(f"score: {killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
