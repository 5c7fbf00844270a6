"""Scenario configs, the simulation driver, trace I/O, and experiments.

A scenario is a JSON document naming the game (player count, trust matrix,
trust parameter, horizon, per-player strategies, master seed) and the
experiment kind.  Everything downstream is deterministic given the seed:
Monte-Carlo trials draw from streams derived from (seed, trial key), so
results do not depend on execution order.

Trace CSV layout (one file, fixed header, full-precision floats):

    kind,k,player,entry,v,x,u,vhat_<e>...,shapley_<i>...,reward_<i>...,disutility,cum_disutility

- one "opinion" row per step, player, and restricted entry carrying that
  entry of the true opinion v, the revealed opinion x, and the lie u
  (x and u are blank on the final step, where no action is taken);
- one "aggregate" row per step carrying the weighted average opinion, its
  Shapley allocation, per-player rewards, and the fraud disutility.

`trace_chunks` yields the CSV one step at a time; `emit_trace` and the CLI
write the chunks as they come, so the CSV text of a run is never held in
memory whole.  `parse_trace` accepts only what the writer writes: every
opinion row (step, player, entry) and every step's aggregate row exactly
once, in range, with finite values, and the action cells (x, u, rewards,
disutility) blank on the final step and only there.  Anything else is a
ScenarioError naming the line, or the row that is missing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .agents import FLOAT_PARAMS, PlayerParams, RLearningAgent, nash_deviation
from .consensus import InfluenceMatrix, deviation_disutility, strategic_update
from .core import bayesian_core_is_empty
from .setfn import (
    MAX_PLAYERS,
    GroundTruthSpec,
    SamplerError,
    SetFunction,
    SetFunctionError,
    num_restricted,
    random_supermodular,
    sample_supermodular_opinion,
)
from .shapley import LINEAR_FORM_MAX_PLAYERS, shapley_linear_form

CONVERGENCE_TOL = 1e-10

EXPERIMENT_KINDS = ("simulate", "efficiency", "core-emptiness", "po-sweep")
SIMULATING_KINDS = ("simulate", "efficiency", "po-sweep")


class ScenarioError(ValueError):
    """Scenario file rejected; message names the offending key."""


_EXPECTED = {int: "integer", float: "finite number", str: "string", bool: "true or false"}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved, runnable experiment description."""

    kind: str
    n: int
    theta: float
    horizon: int
    seed: int
    influence: np.ndarray
    initial_opinions: tuple[SetFunction, ...] | None = None
    players: tuple[PlayerParams, ...] | None = None
    p_o: float = 1.0
    po_values: tuple[float, ...] = ()
    trials: int = 0
    n_min: int = 2
    n_max: int = 8
    sigma: float = 0.0
    truth_family: str = "quadratic"
    perturb_grand: bool = True


@dataclass
class SimulationTrace:
    """Time-indexed record of one strategic-dynamics run.

    Opinions cover steps 0..K; actions (reveals, lies, rewards,
    disutility) cover steps 0..K-1.  All payoff vectors are restricted
    m-vectors; opinions are normalized so the grand value is implicit.
    """

    n: int
    steps: int
    opinions: np.ndarray  # (steps+1, n, m)
    revealed: np.ndarray  # (steps, n, m)
    deviations: np.ndarray  # (steps, n, m)
    average: np.ndarray  # (steps+1, m)
    shapley: np.ndarray  # (steps+1, n)
    rewards: np.ndarray  # (steps, n)
    disutility: np.ndarray  # (steps,)
    converged_at: int | None = None

    @property
    def m(self) -> int:
        return num_restricted(self.n)

    @staticmethod
    def empty(n: int, steps: int = -1) -> "SimulationTrace":
        """Zero-filled trace of ``steps`` steps; the default -1 has no
        recorded snapshots at all and emits a header-only CSV."""
        m = num_restricted(n)
        acted = max(steps, 0)
        return SimulationTrace(
            n=n,
            steps=steps,
            opinions=np.zeros((steps + 1, n, m)),
            revealed=np.zeros((acted, n, m)),
            deviations=np.zeros((acted, n, m)),
            average=np.zeros((steps + 1, m)),
            shapley=np.zeros((steps + 1, n)),
            rewards=np.zeros((acted, n)),
            disutility=np.zeros(acted),
        )

    def cumulative_disutility(self) -> np.ndarray:
        out = np.zeros(max(self.steps + 1, 0))
        np.cumsum(self.disutility, out=out[1:])
        return out

    def final_opinions(self) -> tuple[SetFunction, ...]:
        return tuple(
            SetFunction.from_restricted(self.n, row, grand=1.0)
            for row in self.opinions[-1]
        )


def run_simulation(scenario: Scenario) -> SimulationTrace:
    """Drive the strategic dynamics: agents act, the update law advances.

    Stops at the horizon or as soon as the largest per-player opinion
    change falls below the convergence tolerance.  Deterministic given the
    scenario seed.  A run whose trace arrays would not fit in physical
    memory is rejected before anything is allocated.
    """
    if scenario.players is None or len(scenario.players) != scenario.n:
        raise ScenarioError("players: one strategy config per player is required")
    if scenario.initial_opinions is None:
        raise ScenarioError("initial_opinions: required for simulation")
    for i, f in enumerate(scenario.initial_opinions):
        if not f.is_normalized(tol=1e-9):
            raise ScenarioError(
                f"initial_opinions[{i}]: must be normalized (grand value 1)"
            )
    n, m = scenario.n, num_restricted(scenario.n)
    horizon = scenario.horizon
    # float64 trace arrays: opinions, reveals and lies; average and Shapley
    # rows; rewards and disutility
    nbytes = 8 * ((3 * horizon + 1) * n * m + (horizon + 1) * (m + n) + horizon * (n + 1))
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > physical:
        raise ScenarioError(
            f"horizon: {horizon} steps at n={n} need {nbytes} bytes of trace "
            f"arrays, more than the {physical} bytes of physical memory"
        )
    influence = InfluenceMatrix.from_matrix(scenario.influence)
    theta = scenario.theta
    form = shapley_linear_form(n)
    t = influence.t
    p = [params.risk_aversion for params in scenario.players]
    # the lineup: one row of lies per player, constant for the fixed
    # strategies (zeros when truthful, the closed-form lie when Nash); each
    # step the learners fill in their own rows
    base = np.zeros((n, m))
    learners: dict[int, RLearningAgent] = {}
    for i, params in enumerate(scenario.players):
        if params.kind == "nash":
            base[i] = nash_deviation(form.rows[i], theta, params.risk_aversion)
        elif params.kind == "rlearning":
            learners[i] = RLearningAgent(form.rows[i], theta, float(t[i]), params)
    # one RLS gain per lineup: every learner's model has the same dimension
    # and prior and sees the same states, so the gains agree bit for bit
    # (see EnvironmentModel); the learners share the first one's matrix and
    # it is downdated once per step
    if learners:
        shared = next(iter(learners.values())).model
        for agent in learners.values():
            agent.model.gain = shared.gain
    predictions: dict[int, np.ndarray] = {}
    rng = np.random.default_rng(scenario.seed)

    opinions = np.empty((horizon + 1, n, m))
    revealed = np.empty((horizon, n, m))
    deviations = np.empty((horizon, n, m))
    average = np.empty((horizon + 1, m))
    shapley = np.empty((horizon + 1, n))
    rewards = np.empty((horizon, n))
    disutility = np.empty(horizon)

    # the value stack: full coalition-value rows, one per player; the trace
    # keeps the restricted columns
    v = np.stack([f.values for f in scenario.initial_opinions])
    state = np.zeros(m)  # broadcast mean revealed opinion; nothing revealed yet
    converged_at = None
    steps = horizon

    def snapshot(k: int, v: np.ndarray) -> None:
        opinions[k] = v[:, 1:-1]
        average[k] = t @ opinions[k]
        shapley[k] = form.apply_restricted(average[k])

    snapshot(0, v)
    for k in range(horizon):
        us = base.copy()
        if learners:
            phi = shared.features(state)
            for i, agent in learners.items():
                # one prediction per learner, used for its action and its error
                predictions[i] = agent.model.coeffs.T @ phi
                us[i] = agent.respond(predictions[i], rng)
        x = v.copy()
        x[:, 1:-1] += us
        v = strategic_update(v, x, influence.w, theta)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise SetFunctionError("payoff values must be finite")
        revealed[k] = x[:, 1:-1]
        deviations[k] = us
        mean_dev = t @ us
        var_total = deviation_disutility(us, t)
        disutility[k] = var_total
        # agents.step_reward, on the disutility computed once for the step
        for i in range(n):
            rewards[k, i] = -p[i] * var_total + theta * (form.rows[i] @ mean_dev)
        if learners:
            gain_vec = shared.gain_step(phi)
            for i, agent in learners.items():
                opp_mean = (mean_dev - t[i] * us[i]) / (1.0 - t[i])
                agent.model.coeff_step(gain_vec, opp_mean - predictions[i])
                agent.record_reward(rewards[k, i])
        state = t @ revealed[k]
        snapshot(k + 1, v)
        if np.max(np.abs(opinions[k + 1] - opinions[k])) < CONVERGENCE_TOL:
            converged_at = k + 1
            steps = k + 1
            break

    return SimulationTrace(
        n=n,
        steps=steps,
        opinions=opinions[: steps + 1],
        revealed=revealed[:steps],
        deviations=deviations[:steps],
        average=average[: steps + 1],
        shapley=shapley[: steps + 1],
        rewards=rewards[:steps],
        disutility=disutility[:steps],
        converged_at=converged_at,
    )


# --- experiments -------------------------------------------------------------


def nash_players(n: int, t: np.ndarray, p_o: float) -> tuple[PlayerParams, ...]:
    """All-rational lineup with risk aversion p_o * t_i (proportional to
    influence for the stationary weights t)."""
    return tuple(PlayerParams(risk_aversion=p_o * float(t[i]), kind="nash") for i in range(n))


def experiment_efficiency(scenario: Scenario, tol: float = 1e-9) -> dict:
    """Check that the average opinion stays put when p_i tracks t_i.

    Runs the all-rational game with risk aversion proportional to influence
    and reports the worst average-opinion drift, then reruns a control with
    equal risk aversion (which breaks the proportionality whenever the
    influence weights are non-uniform) and reports its drift.

    A single player has nobody to lie to: the report flags the case as
    degenerate with zero drift everywhere.
    """
    if scenario.n == 1:
        drift = control_drift = 0.0
        degenerate = True
    else:
        t = InfluenceMatrix.from_matrix(scenario.influence).t
        drifts = []
        for weights in (t, np.ones(scenario.n)):  # p_i = p_o * t_i; control: p_i = p_o
            lineup = nash_players(scenario.n, weights, scenario.p_o)
            trace = run_simulation(replace(scenario, kind="simulate", players=lineup))
            drifts.append(float(np.max(np.abs(trace.average - trace.average[0]))))
        drift, control_drift = drifts
        degenerate = float(np.ptp(t)) < 1e-12

    passed = drift < tol and (degenerate or control_drift > 1e-6)
    return {
        "experiment": "efficiency",
        "drift": drift,
        "control_drift": control_drift,
        "tol": tol,
        "degenerate": degenerate,
        "pass": passed,
    }


def quadratic_truth(n: int) -> SetFunction:
    """Normalized size-squared payoff: f(C) = |C|^2 / n^2."""
    sizes = np.bitwise_count(np.arange(1 << n)).astype(float)
    return SetFunction(n, (sizes / n) ** 2)


MIXED_STRICT_WEIGHT = 0.3  # weight of the size-squared family in the mixed truth


def mixed_truth(n: int) -> SetFunction:
    """Near-modular truth: convex mix of |C|/n and the size-squared family."""
    sizes = np.bitwise_count(np.arange(1 << n)).astype(float)
    vals = (1.0 - MIXED_STRICT_WEIGHT) * sizes / n + MIXED_STRICT_WEIGHT * (sizes / n) ** 2
    return SetFunction(n, vals)


TRUTH_FAMILIES = {"quadratic": quadratic_truth, "mixed": mixed_truth}


def experiment_core_emptiness(scenario: Scenario) -> list[dict]:
    """Per-n frequency of an empty Bayesian core over sampled opinions.

    For each player count, every trial draws one truncated-normal opinion
    per player around the per-n ground truth (grand value included) and
    asks the LP whether any allocation satisfies all private constraints.
    Trials whose rejection sampler exhausts its budget are counted as
    failures, not as data; a player count where every trial fails has no
    data at all and is rejected.
    """
    if scenario.trials < 1:
        raise ScenarioError("trials: must be >= 1 for core-emptiness")
    if scenario.sigma <= 0:
        raise ScenarioError("sigma: must be > 0 for core-emptiness")
    family = TRUTH_FAMILIES.get(scenario.truth_family)
    if family is None:
        raise ScenarioError(
            f"truth_family: unknown {scenario.truth_family!r}; "
            f"options: {sorted(TRUTH_FAMILIES)}"
        )
    rows = []
    for n in range(scenario.n_min, scenario.n_max + 1):
        truth = family(n)
        gts = GroundTruthSpec(truth, np.full(n, scenario.sigma))
        empty = 0
        failures = 0
        for trial in range(scenario.trials):
            rng = np.random.default_rng([scenario.seed, n, trial])
            try:
                opinions = [
                    sample_supermodular_opinion(
                        gts, i, rng, perturb_grand=scenario.perturb_grand
                    )
                    for i in range(n)
                ]
            except SamplerError:
                failures += 1
                continue
            is_empty, _ = bayesian_core_is_empty(opinions)
            if is_empty:
                empty += 1
        if failures == scenario.trials:
            raise ScenarioError(
                f"sigma: {scenario.sigma!r} exhausts the opinion sampler in every "
                f"trial at n={n}; no data for the verdict"
            )
        rows.append(
            {
                "n": n,
                "trials": scenario.trials,
                "sampler_failures": failures,
                "empty": empty,
                "frequency": empty / (scenario.trials - failures),
            }
        )
    return rows


def core_emptiness_verdict(rows: list[dict]) -> dict:
    """Summary of the core-emptiness rows: the per-n frequencies, and a pass
    when the last exceeds the first with no drop of more than 0.02 between
    neighbouring player counts."""
    freqs = [r["frequency"] for r in rows]
    inversions = sum(1 for a, b in zip(freqs, freqs[1:]) if b < a - 0.02)
    return {"frequencies": freqs, "pass": freqs[-1] > freqs[0] and inversions == 0}


def experiment_po_sweep(scenario: Scenario) -> list[dict]:
    """Opinion spread and Bayesian-core verdict across risk-aversion scales.

    Every sweep point runs the all-rational game to convergence with
    p_i = p_o * t_i, measures how far the per-player limits sit from the
    average opinion, and checks the Bayesian core of the limit profile.
    """
    if not scenario.po_values:
        raise ScenarioError("po_values: at least one sweep point is required")
    influence = InfluenceMatrix.from_matrix(scenario.influence)
    t = influence.t
    rows = []
    for p_o in scenario.po_values:
        if p_o <= 0:
            raise ScenarioError(f"po_values: entries must be > 0, got {p_o}")
        sim = replace(
            scenario,
            kind="simulate",
            p_o=p_o,
            players=nash_players(scenario.n, t, p_o),
        )
        trace = run_simulation(sim)
        spread = float(np.max(np.abs(trace.opinions[-1] - trace.average[-1])))
        empty, _ = bayesian_core_is_empty(list(trace.final_opinions()))
        rows.append(
            {
                "p_o": p_o,
                "spread": spread,
                "bayesian_core_empty": empty,
                "steps": trace.steps,
                "converged": trace.converged_at is not None,
            }
        )
    return rows


def po_sweep_verdict(rows: list[dict]) -> dict:
    """Summary of the p_o sweep rows: spreads nonincreasing along the sweep
    (to a relative 1e-9) and a nonempty Bayesian core at the largest p_o."""
    spreads = [r["spread"] for r in rows]
    monotone = all(b <= a * (1 + 1e-9) + 1e-300 for a, b in zip(spreads, spreads[1:]))
    nonempty_at_top = not rows[-1]["bayesian_core_empty"]
    return {
        "spreads": spreads,
        "monotone": monotone,
        "nonempty_at_largest": nonempty_at_top,
        "pass": monotone and nonempty_at_top,
    }


# --- trace CSV ---------------------------------------------------------------


def trace_header(n: int, m: int) -> str:
    cols = ["kind", "k", "player", "entry", "v", "x", "u"]
    cols += [f"vhat_{e}" for e in range(m)]
    cols += [f"shapley_{i}" for i in range(n)]
    cols += [f"reward_{i}" for i in range(n)]
    cols += ["disutility", "cum_disutility"]
    return ",".join(cols)


def trace_chunks(trace: SimulationTrace):
    """The trace CSV as text chunks: the header line, then one chunk per step
    (its opinion rows and its aggregate row).  Floats are written with repr."""
    n, m, steps = trace.n, trace.m, trace.steps
    yield trace_header(n, m) + "\n"
    cells = [f"{i},{e}," for i in range(n) for e in range(m)]
    tail = "," * (m + 2 * n + 2) + "\n"  # the blank aggregate columns
    opinions = trace.opinions.reshape(-1, n * m).tolist()
    revealed = trace.revealed.reshape(-1, n * m).tolist()
    deviations = trace.deviations.reshape(-1, n * m).tolist()
    average, shapley = trace.average.tolist(), trace.shapley.tolist()
    rewards, disutility = trace.rewards.tolist(), trace.disutility.tolist()
    cum = trace.cumulative_disutility().tolist()
    for k in range(steps + 1):
        head = f"opinion,{k},"
        agg = f"aggregate,{k},,,,,," + ",".join(map(repr, average[k] + shapley[k]))
        if k < steps:
            rows = [
                f"{head}{cell}{v!r},{x!r},{u!r}{tail}"
                for cell, v, x, u in zip(cells, opinions[k], revealed[k], deviations[k])
            ]
            agg += f",{','.join(map(repr, rewards[k]))},{disutility[k]!r},{cum[k]!r}\n"
        else:
            rows = [f"{head}{cell}{v!r},,{tail}" for cell, v in zip(cells, opinions[k])]
            agg += f"{',' * (n + 2)}{cum[k]!r}\n"
        rows.append(agg)
        yield "".join(rows)


def dump_trace(trace: SimulationTrace) -> str:
    return "".join(trace_chunks(trace))


def emit_trace(trace: SimulationTrace, path) -> None:
    """Write the trace CSV to ``path`` one step at a time."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(trace_chunks(trace))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _numbers(cells: list, kind: type, lines: np.ndarray, names: list) -> np.ndarray:
    """CSV cells as a flat array of ``kind`` (int or float).

    The cells run row by row, ``lines`` holding each row's line number and
    ``names`` each column's name; the first cell that is not a finite number
    of that kind is rejected, naming its line and column.
    """
    try:
        values = np.fromiter(map(kind, cells), kind, len(cells))
    except (ValueError, OverflowError):
        values = np.array([_number_or_nan(cell, kind) for cell in cells])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        row, col = divmod(int(bad[0]), len(names))
        raise ScenarioError(
            f"trace line {lines[row]}: {names[col]}: {_EXPECTED[kind]} required, "
            f"got {cells[bad[0]]!r}"
        )
    return values


def _number_or_nan(cell: str, kind: type) -> float:
    try:
        return float(np.array(cell, dtype=kind))
    except (ValueError, OverflowError):
        return math.nan


def _in_range(values: np.ndarray, stop: int, lines: np.ndarray, name: str) -> None:
    bad = np.flatnonzero((values < 0) | (values >= stop))
    if bad.size:
        raise ScenarioError(
            f"trace line {lines[bad[0]]}: {name}: {values[bad[0]]} outside 0..{stop - 1}"
        )


def _once_each(index: np.ndarray, size: int, lines: np.ndarray, describe) -> None:
    """Every value in 0..size-1 occurs in ``index`` exactly once; a repeat is
    reported at its second line, a gap by ``describe(value)``."""
    counts = np.bincount(index, minlength=size)
    repeated = np.flatnonzero(counts > 1)
    if repeated.size:
        line = lines[np.flatnonzero(index == repeated[0])[1]]
        raise ScenarioError(f"trace line {line}: repeats the {describe(repeated[0])}")
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise ScenarioError(f"trace: no {describe(missing[0])}")


def _blank_on_final_step(cells: list, acted: np.ndarray, lines, names, steps: int) -> None:
    """Action cells hold a value on every step but the final one, where they
    are blank; ``cells`` run row by row as in ``_numbers``."""
    filled = np.fromiter(map(bool, cells), bool, len(cells)).reshape(len(lines), -1)
    wrong = np.argwhere(filled != acted[:, None])
    if wrong.size:
        row, col = wrong[0]
        want = _EXPECTED[float] if acted[row] else f"blank on the final step {steps}"
        raise ScenarioError(
            f"trace line {lines[row]}: {names[col]}: {want} required, "
            f"got {cells[row * filled.shape[1] + col]!r}"
        )


def parse_trace(text: str) -> SimulationTrace:
    """Rebuild a trace from its CSV; inverse of dump_trace.

    Anything dump_trace would not have written is rejected with a
    ScenarioError naming the line, or the row that is missing.
    """
    lines = text.splitlines()
    if not lines:
        raise ScenarioError("empty trace file")
    header = lines[0].split(",")
    m = sum(1 for c in header if c.startswith("vhat_"))
    n = sum(1 for c in header if c.startswith("shapley_"))
    if m == 0 or n == 0 or header != trace_header(n, m).split(","):
        raise ScenarioError("unrecognized trace header")
    body = lines[1:]
    if not body:
        return SimulationTrace.empty(n)
    count = len(body)
    line_no = np.arange(2, count + 2)
    width = len(header) - 7  # the aggregate columns, blank in opinion rows
    is_opinion = np.fromiter(map(str.startswith, body, ["opinion,"] * count), bool, count)
    is_aggregate = np.fromiter(map(str.startswith, body, ["aggregate,"] * count), bool, count)
    opinion = [line for line, keep in zip(body, is_opinion.tolist()) if keep]
    aggregate = [line.split(",") for line, keep in zip(body, is_aggregate.tolist()) if keep]
    op_lines, agg_lines = line_no[is_opinion], line_no[is_aggregate]
    # an opinion row is its seven fields and then the blank aggregate columns;
    # the fields of all of them are split in one go, seven to a row, since a
    # list per row costs the garbage collector more the longer the file
    heads = [line[:-width] for line in opinion]
    well_formed = is_opinion | is_aggregate
    well_formed[is_opinion] = np.fromiter(
        map(str.endswith, opinion, ["," * width] * len(opinion)), bool, len(opinion)
    ) & (np.fromiter(map(str.count, heads, [","] * len(heads)), np.intp, len(heads)) == 6)
    well_formed[is_aggregate] = [len(f) == len(header) and not any(f[2:7]) for f in aggregate]
    bad = np.flatnonzero(~well_formed)
    if bad.size:
        kind = body[bad[0]].split(",")[0]
        if kind not in ("opinion", "aggregate"):
            raise ScenarioError(f"trace line {line_no[bad[0]]}: unknown row kind {kind!r}")
        blank = f"the last {width}" if kind == "opinion" else "player, entry, v, x and u"
        raise ScenarioError(
            f"trace line {line_no[bad[0]]}: {kind} rows have {len(header)} fields, "
            f"{blank} blank"
        )
    columns = ",".join(heads).split(",")
    k, i, e, v, x, u = (columns[col::7] for col in range(1, 7))

    op_k = _numbers(k, int, op_lines, ["k"])
    op_i = _numbers(i, int, op_lines, ["player"])
    op_e = _numbers(e, int, op_lines, ["entry"])
    agg_k = _numbers([f[1] for f in aggregate], int, agg_lines, ["k"])
    # k below the row count bounds the row counts below by the file's size
    _in_range(op_k, count, op_lines, "k")
    _in_range(agg_k, count, agg_lines, "k")
    _in_range(op_i, n, op_lines, "player")
    _in_range(op_e, m, op_lines, "entry")
    steps = int(max(op_k.max(initial=0), agg_k.max(initial=0)))
    _once_each(agg_k, steps + 1, agg_lines, lambda j: f"aggregate row for k={j}")
    shape = (steps + 1, n, m)
    _once_each(
        np.ravel_multi_index((op_k, op_i, op_e), shape),
        math.prod(shape),
        op_lines,
        lambda j: "opinion row for k={}, player={}, entry={}".format(*np.unravel_index(j, shape)),
    )

    trace = SimulationTrace.empty(n, steps)
    trace.opinions[op_k, op_i, op_e] = _numbers(v, float, op_lines, ["v"])
    acted = op_k < steps
    at = (op_k[acted], op_i[acted], op_e[acted])
    for name, column, out in (("x", x, trace.revealed), ("u", u, trace.deviations)):
        _blank_on_final_step(column, acted, op_lines, [name], steps)
        out[at] = _numbers(list(filter(None, column)), float, op_lines[acted], [name])

    # aggregate columns: the average and Shapley rows and the cumulative
    # disutility on every step; rewards and disutility on acted steps only
    state, action = slice(7, 7 + m + n), slice(7 + m + n, -1)
    values = _numbers(
        [c for f in aggregate for c in (*f[state], f[-1])],
        float,
        agg_lines,
        [*header[state], header[-1]],
    ).reshape(-1, m + n + 1)
    trace.average[agg_k] = values[:, :m]
    trace.shapley[agg_k] = values[:, m : m + n]
    acted = agg_k < steps
    cells = [c for f in aggregate for c in f[action]]
    _blank_on_final_step(cells, acted, agg_lines, header[action], steps)
    values = _numbers(list(filter(None, cells)), float, agg_lines[acted], header[action])
    values = values.reshape(-1, n + 1)
    trace.rewards[agg_k[acted]] = values[:, :n]
    trace.disutility[agg_k[acted]] = values[:, n]
    return trace


def read_trace(path) -> SimulationTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


# --- scenario files ----------------------------------------------------------


def random_primitive_influence(n: int, rng: np.random.Generator) -> np.ndarray:
    """Dense positive row-stochastic matrix; positivity makes it primitive."""
    w = rng.uniform(0.1, 1.0, size=(n, n))
    return w / w.sum(axis=1, keepdims=True)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(raw, source=str(path))


def scenario_from_dict(raw: dict, source: str = "<scenario>") -> Scenario:
    """Validate and resolve a scenario document.

    Generator shorthands ("random_primitive" influence, "random_supermodular"
    opinions) are expanded deterministically from the master seed.
    """

    def fail(key: str, msg: str):
        raise ScenarioError(f"{source}: {key}: {msg}")

    def check(key: str, kind: type, value):
        """Typed scalar of kind int, float (finite), str or bool.

        A JSON bool is an int to Python; it is accepted only as a bool.
        """
        if kind is float:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        else:
            ok = isinstance(value, kind)
        if not ok or isinstance(value, bool) != (kind is bool):
            fail(key, f"{_EXPECTED[kind]} required, got {value!r}")
        return kind(value)

    def read(key: str, kind: type, default):
        return check(key, kind, raw.get(key, default))

    def known_keys(obj: dict, where: str, keys) -> None:
        unknown = set(obj) - set(keys)
        if unknown:
            fail(where, f"unknown keys {sorted(unknown, key=str)}")

    def finite_array(key: str, value, shape: tuple) -> np.ndarray:
        """Nested lists of JSON numbers; true/false and strings are not numbers."""

        def numeric(v) -> bool:
            if isinstance(v, list):
                return all(map(numeric, v))
            return isinstance(v, (int, float)) and not isinstance(v, bool)

        if not numeric(value):
            fail(key, "numeric array required (JSON numbers only)")
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            fail(key, "numeric array required")
        if arr.shape != shape:
            fail(key, f"expected shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            fail(key, "values must be finite")
        return arr

    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    known_keys(raw, "scenario", (f.name for f in fields(Scenario)))
    kind = raw.get("kind", "simulate")
    if kind not in EXPERIMENT_KINDS:
        fail("kind", f"must be one of {EXPERIMENT_KINDS}, got {kind!r}")

    n = read("n", int, None)
    if n < 1:
        fail("n", f"positive integer player count required, got {n!r}")
    if kind in ("simulate", "po-sweep") and n < 2:
        # efficiency reports the one-player game as degenerate instead
        fail("n", f"kind {kind!r} needs at least 2 players, got {n}")
    if kind in SIMULATING_KINDS and n > LINEAR_FORM_MAX_PLAYERS:
        fail("n", f"kind {kind!r} supports at most {LINEAR_FORM_MAX_PLAYERS} players, got {n}")
    theta = read("theta", float, None)
    if not 0.0 < theta < 1.0:
        fail("theta", f"trust parameter in (0, 1) required, got {theta!r}")
    horizon = read("horizon", int, None)
    if horizon < 0:
        fail("horizon", f"nonnegative integer required, got {horizon!r}")
    seed = read("seed", int, None)
    if seed < 0:
        fail("seed", f"nonnegative integer required, got {seed}")
    n_min = read("n_min", int, 2)
    if not 1 <= n_min <= MAX_PLAYERS:
        fail("n_min", f"player count in [1, {MAX_PLAYERS}] required, got {n_min}")
    n_max = read("n_max", int, 8)
    if not n_min <= n_max <= MAX_PLAYERS:
        fail("n_max", f"player count in [n_min={n_min}, {MAX_PLAYERS}] required, got {n_max}")

    influence_raw = raw.get("influence")
    if influence_raw == "random_primitive":
        influence = random_primitive_influence(n, np.random.default_rng([seed, 1]))
    elif isinstance(influence_raw, list):
        influence = finite_array("influence", influence_raw, (n, n))
        if np.any(influence < 0) or np.max(np.abs(influence.sum(axis=1) - 1.0)) > 1e-9:
            fail("influence", "rows must be nonnegative and sum to 1")
    else:
        fail("influence", 'matrix rows or the string "random_primitive" required')

    opinions_raw = raw.get("initial_opinions")
    initial_opinions: tuple[SetFunction, ...] | None
    if opinions_raw is None:
        initial_opinions = None
        if kind in SIMULATING_KINDS:
            fail("initial_opinions", f"required for kind {kind!r}")
    elif opinions_raw == "random_supermodular":
        initial_opinions = tuple(
            random_supermodular(n, np.random.default_rng([seed, 2, i]))
            for i in range(n)
        )
    elif isinstance(opinions_raw, dict) and "ground_truth" in opinions_raw:
        spec = opinions_raw["ground_truth"]
        if not isinstance(spec, dict):
            fail("initial_opinions.ground_truth", "object required")
        known_keys(spec, "initial_opinions.ground_truth", ("family", "sigma"))
        family_name = spec.get("family", "quadratic")
        family = TRUTH_FAMILIES.get(family_name) if isinstance(family_name, str) else None
        if family is None:
            fail(
                "initial_opinions.ground_truth.family",
                f"unknown {spec.get('family')!r}; options: {sorted(TRUTH_FAMILIES)}",
            )
        sigma = check("initial_opinions.ground_truth.sigma", float, spec.get("sigma"))
        if sigma < 0:
            fail("initial_opinions.ground_truth.sigma", "nonnegative number required")
        truth_spec = GroundTruthSpec(family(n), np.full(n, sigma))
        # the dynamics keep the grand value fixed, so sampling leaves it at
        # the truth's (normalized) value
        try:
            initial_opinions = tuple(
                sample_supermodular_opinion(
                    truth_spec, i, np.random.default_rng([seed, 3, i]), perturb_grand=False
                )
                for i in range(n)
            )
        except SamplerError as exc:
            fail("initial_opinions.ground_truth.sigma", str(exc))
    elif isinstance(opinions_raw, list):
        if len(opinions_raw) != n:
            fail("initial_opinions", f"expected {n} entries, got {len(opinions_raw)}")
        parsed = []
        for i, item in enumerate(opinions_raw):
            if not isinstance(item, dict) or "restricted" not in item:
                fail(f"initial_opinions[{i}]", 'object with "restricted" list required')
            known_keys(item, f"initial_opinions[{i}]", ("restricted", "grand"))
            restricted = finite_array(
                f"initial_opinions[{i}].restricted", item["restricted"], (num_restricted(n),)
            )
            grand = check(f"initial_opinions[{i}].grand", float, item.get("grand", 1.0))
            parsed.append(SetFunction.from_restricted(n, restricted, grand))
        initial_opinions = tuple(parsed)
    else:
        fail("initial_opinions", "list of opinions or 'random_supermodular' required")

    players_raw = raw.get("players")
    players: tuple[PlayerParams, ...] | None = None
    if players_raw is not None:
        if not isinstance(players_raw, list) or len(players_raw) != n:
            fail("players", f"expected a list of {n} player configs")
        parsed_players = []
        param_kinds = {"kind": str, **dict.fromkeys(FLOAT_PARAMS, float)}
        for i, item in enumerate(players_raw):
            if not isinstance(item, dict):
                fail(f"players[{i}]", "object required")
            known_keys(item, f"players[{i}]", param_kinds)
            params = {
                name: check(f"players[{i}]: {name}", param_kinds[name], value)
                for name, value in item.items()
            }
            try:
                parsed_players.append(PlayerParams(**params))
            except (TypeError, ValueError) as exc:
                fail(f"players[{i}]", str(exc))
        players = tuple(parsed_players)
    elif kind == "simulate":
        fail("players", "required for kind 'simulate'")

    po_values = raw.get("po_values", [])
    if not isinstance(po_values, list):
        fail("po_values", f"list of numbers required, got {po_values!r}")
    for p in po_values:  # kept as written: the sweep CSV echoes them with repr
        check("po_values", float, p)
    return Scenario(
        kind=kind,
        n=n,
        theta=theta,
        horizon=horizon,
        seed=seed,
        influence=influence,
        initial_opinions=initial_opinions,
        players=players,
        p_o=read("p_o", float, 1.0),
        po_values=tuple(po_values),
        trials=read("trials", int, 0),
        n_min=n_min,
        n_max=n_max,
        sigma=read("sigma", float, 0.0),
        truth_family=read("truth_family", str, "quadratic"),
        perturb_grand=read("perturb_grand", bool, True),
    )
