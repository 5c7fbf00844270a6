"""The four benchmark workloads: seeded inputs, one job each, output checks.

Every workload is closed-loop: one job at a time from one process.  A job
drives the package through its public API (`learn`) or through the CLI
entry point `cli.main`, called in-process (`trace`, `rational`,
`core-mc`).  Inputs are scenario files written from the benchmark seed
alone; the package only ever sees those files (or, for `learn`, the
parsed document).

`warmup()` runs one job untimed with the expensive checks (in-memory
reference runs, witness verification) and keeps its outputs as the
reference.  `run()` is the timed part of a job and `check()` compares its
outputs with the reference afterwards, so checks never sit inside a
timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from consensusgame import cli, core, harness, setfn

# Expected exit code per CLI subcommand.  exp-core-emptiness exits 1 because
# acceptance criterion 6 fails by design in the shipped regime; 2 (bad
# input), a traceback or any other code is a failure.
EXPECTED_EXIT = {
    "simulate": 0,
    "exp-efficiency": 0,
    "exp-po-sweep": 0,
    "exp-core-emptiness": 1,
}

TRACE_FIELDS = ("opinions", "revealed", "deviations", "average", "shapley", "rewards", "disutility")


@dataclass
class Outcome:
    """What one job did: operations attempted and failed, work done, bytes
    of trace written, and the raw outputs `check()` needs."""

    ops: int
    work: int
    failed: int = 0
    trace_bytes: int = 0
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed = min(self.ops, self.failed + ops)
        self.problems.append(why)


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def _rlearning_players(n: int) -> list[dict]:
    return [
        {
            "kind": "rlearning",
            "risk_aversion": 1000.0,
            "exploit_prob": 0.5,
            "explore_std": 1e-4,
            "explore_decay": 0.99,
        }
        for _ in range(n)
    ]


def _call_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run `cli.main` in-process; (exit code or None on a traceback, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not a crash of the run
        return None, traceback.format_exc()
    return code, out.getvalue()


def _summary(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    return json.loads(lines[-1]) if lines else {}


def _check_exit(outcome: Outcome, command: str, code, stdout: str, ops: int) -> None:
    if code != EXPECTED_EXIT[command]:
        tail = stdout.strip().splitlines()[-1:] if code is None else []
        outcome.fail(ops, f"{command} exited {code}, expected {EXPECTED_EXIT[command]} {tail}")


def _take(path: Path) -> bytes:
    """Read an output file and delete it, so no later job can pass its
    checks on a file it failed to write."""
    data = path.read_bytes()
    path.unlink()
    return data


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in TRACE_FIELDS:
        h.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def _intercept(module, name: str, record: list):
    """Temporarily wrap `module.name`, appending (args, result) per call to
    `record`, which the context yields."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        record.append((args, result))
        return result

    setattr(module, name, wrapper)
    try:
        yield record
    finally:
        setattr(module, name, original)


def _check_witnesses(outcome: Outcome, calls: list, ops: int) -> None:
    """Every nonempty Bayesian-core verdict must carry a member allocation."""
    for (opinions, *_), (empty, witness) in calls:
        if not empty and (witness is None or not core.bayesian_core_contains(list(opinions), witness)):
            outcome.fail(ops, "nonempty-core witness outside the Bayesian core")


class Workload:
    name = ""
    work_unit = ""
    why = ""

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.toy = toy
        self.reference: Outcome | None = None
        self.ops = 1  # operations per job
        self.inputs: list[Path] = self.make_inputs()

    def make_inputs(self) -> list[Path]:
        """Write this seed's scenario files; return their paths."""
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def warmup(self) -> Outcome:
        outcome = self.run()
        self.reference = outcome
        self.check(outcome)
        return outcome


class Learn(Workload):
    name = "learn"
    work_unit = "steps"
    why = "all-RLearning dynamics at n=8 through the library API; the RLS opponent model dominates"

    def make_inputs(self):
        n, horizon = (3, 5) if self.toy else (8, 100)
        doc = {
            "kind": "simulate",
            "n": n,
            "theta": 0.1,
            "horizon": horizon,
            "seed": self.seed,
            "influence": "random_primitive",
            "initial_opinions": "random_supermodular",
            "players": _rlearning_players(n),
        }
        path = _write_json(self.workdir / "learn.json", doc)
        self.doc = json.loads(path.read_text(encoding="utf-8"))
        return [path]

    def run(self):
        trace = harness.run_simulation(harness.scenario_from_dict(self.doc, source="learn.json"))
        return Outcome(ops=self.ops, work=trace.steps, outputs={"trace": trace})

    def check(self, outcome):
        trace = outcome.outputs.pop("trace")
        outcome.outputs["digest"] = _trace_digest(trace)
        if trace.steps != self.doc["horizon"]:
            outcome.fail(1, f"ran {trace.steps} of {self.doc['horizon']} steps")
        if not np.all(np.abs(trace.shapley.sum(axis=1) - 1.0) <= 1e-9):
            outcome.fail(1, "a Shapley row does not sum to 1 within 1e-9")
        if outcome.outputs["digest"] != self.reference.outputs["digest"]:
            outcome.fail(1, "simulation arrays differ from the first repeat")


class Trace(Workload):
    name = "trace"
    work_unit = "steps"
    why = "CLI simulate --out then read_trace at n=6; trace CSV writing and parsing dominate"

    def make_inputs(self):
        n, horizon = (3, 5) if self.toy else (6, 100)
        doc = {
            "kind": "simulate",
            "n": n,
            "theta": 0.1,
            "horizon": horizon,
            "seed": self.seed,
            "influence": "random_primitive",
            "initial_opinions": "random_supermodular",
            "players": _rlearning_players(n),
        }
        self.horizon = horizon
        self.out = self.workdir / "trace.csv"
        return [_write_json(self.workdir / "trace.json", doc)]

    def run(self):
        code, stdout = _call_cli(
            ["simulate", str(self.inputs[0]), "--out", str(self.out), "--json-summary"]
        )
        outcome = Outcome(ops=self.ops, work=0)
        _check_exit(outcome, "simulate", code, stdout, 1)
        if outcome.failed:
            return outcome
        outcome.outputs["parsed"] = harness.read_trace(self.out)
        outcome.work = _summary(stdout).get("steps", 0)
        outcome.trace_bytes = os.path.getsize(self.out)
        return outcome

    def warmup(self):
        self.memory = harness.run_simulation(harness.load_scenario(self.inputs[0]))
        return super().warmup()

    def check(self, outcome):
        if outcome.failed:
            self.out.unlink(missing_ok=True)
            return
        parsed = outcome.outputs.pop("parsed")
        outcome.outputs["sha256"] = hashlib.sha256(_take(self.out)).hexdigest()
        if outcome.work != self.horizon:
            outcome.fail(1, f"ran {outcome.work} of {self.horizon} steps")
        if outcome.outputs["sha256"] != self.reference.outputs.get("sha256"):
            outcome.fail(1, "trace file sha256 differs from the first repeat")
        same = parsed.n == self.memory.n and parsed.steps == self.memory.steps
        if not same or not all(
            np.array_equal(getattr(parsed, f), getattr(self.memory, f)) for f in TRACE_FIELDS
        ):
            outcome.fail(1, "read_trace does not round-trip the in-memory run")


class Rational(Workload):
    name = "rational"
    work_unit = "steps"
    why = "CLI exp-efficiency and exp-po-sweep at n=9, all Nash; object churn, Shapley linear form, a 511-row LP"

    def make_inputs(self):
        n = 3 if self.toy else 9
        game = {
            "n": n,
            "theta": 0.5,
            "horizon": 20 if self.toy else 200,
            "seed": self.seed,
            "influence": "random_primitive",
            "initial_opinions": "random_supermodular",
        }
        self.outs = [self.workdir / "efficiency.csv", self.workdir / "po_sweep.csv"]
        self.steps = 0
        self.ops = 2
        return [
            _write_json(self.workdir / "efficiency.json", {"kind": "efficiency", "p_o": 1.0, **game}),
            _write_json(
                self.workdir / "po_sweep.json",
                {"kind": "po-sweep", "po_values": [0.1, 1.0, 10.0, 100.0], **game},
            ),
        ]

    def run(self):
        outcome = Outcome(ops=self.ops, work=self.steps)
        for command, scenario, out in zip(("exp-efficiency", "exp-po-sweep"), self.inputs, self.outs):
            code, stdout = _call_cli([command, str(scenario), "--out", str(out), "--json-summary"])
            _check_exit(outcome, command, code, stdout, 1)
            outcome.outputs[command] = _summary(stdout)
        return outcome

    def warmup(self):
        # steps per job come from the reference job: every later job reruns
        # the same inputs, and check() holds its outputs to the reference
        with _intercept(harness, "run_simulation", []) as sims, _intercept(
            harness, "bayesian_core_is_empty", []
        ) as core_checks:
            outcome = self.run()
        self.steps = outcome.work = sum(trace.steps for _, trace in sims)
        self.reference = outcome
        self.check(outcome)
        if len(core_checks) != 4:
            outcome.fail(1, f"po-sweep made {len(core_checks)} core checks, expected 4")
        _check_witnesses(outcome, core_checks, 1)
        return outcome

    def check(self, outcome):
        outcome.outputs["csv"] = [_take(out) if out.exists() else b"" for out in self.outs]
        efficiency = outcome.outputs["exp-efficiency"]
        sweep = outcome.outputs["exp-po-sweep"]
        if efficiency.get("pass") is not True:
            outcome.fail(1, "exp-efficiency verdict failed")
        if sweep.get("monotone") is not True or sweep.get("nonempty_at_largest") is not True:
            outcome.fail(1, "exp-po-sweep monotone / nonempty-at-top verdict failed")
        if outcome.outputs["csv"] != self.reference.outputs.get("csv"):
            outcome.fail(self.ops, "experiment outputs differ from the first repeat")


class CoreMC(Workload):
    name = "core-mc"
    work_unit = "trials"
    why = "CLI exp-core-emptiness in the shipped regime; rejection sampler and Shapley fast path, no dynamics"

    def make_inputs(self):
        self.n_min, self.n_max = 2, (4 if self.toy else 8)
        self.trials = 5 if self.toy else 200
        self.ops = self.trials * (self.n_max - self.n_min + 1)  # one operation per trial
        doc = {
            "kind": "core-emptiness",
            "n": 2,
            "theta": 0.1,
            "horizon": 1,
            "seed": self.seed,
            "influence": [[0.3, 0.7], [0.4, 0.6]],
            "trials": self.trials,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "sigma": 0.004,
            "truth_family": "quadratic",
            "perturb_grand": True,
        }
        self.out = self.workdir / "core_mc.csv"
        return [_write_json(self.workdir / "core_mc.json", doc)]

    def run(self):
        outcome = Outcome(ops=self.ops, work=self.ops)
        code, stdout = _call_cli(
            ["exp-core-emptiness", str(self.inputs[0]), "--out", str(self.out), "--json-summary"]
        )
        _check_exit(outcome, "exp-core-emptiness", code, stdout, self.ops)
        return outcome

    def warmup(self):
        with _intercept(harness, "bayesian_core_is_empty", []) as core_checks:
            outcome = self.run()
        self.reference = outcome
        self.check(outcome)
        _check_witnesses(outcome, core_checks, 1)
        for (opinions, *_), _ in core_checks:
            if not all(setfn.is_supermodular(f) for f in opinions):
                outcome.fail(1, "the sampler returned an opinion that is not supermodular")
        return outcome

    def check(self, outcome):
        if outcome.failed:
            self.out.unlink(missing_ok=True)
            return
        data = _take(self.out)
        outcome.outputs["csv"] = data
        rows = [line.split(",") for line in data.decode().splitlines()[1:]]
        if len(rows) != self.n_max - self.n_min + 1:
            outcome.fail(outcome.ops, f"expected {self.n_max - self.n_min + 1} rows, got {len(rows)}")
            return
        failures = sum(int(row[2]) for row in rows)
        if failures:
            outcome.fail(failures, f"{failures} sampler failures")
        if data != self.reference.outputs.get("csv"):
            outcome.fail(outcome.ops, "core-mc rows differ from the first repeat")


WORKLOADS = {w.name: w for w in (Learn, Trace, Rational, CoreMC)}
