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

`trace_chunks` yields the CSV one step at a time; the CLI writes the chunks
as they come, so the CSV text of a run is never held in memory whole.
`parse_trace` accepts only what the writer writes: the rows in the writer's
order, so the row count fixes the step count and each line must begin with
the kind, k, player and entry of its place; finite values; and the action
cells (x, u, rewards, disutility) blank on the final step and only there.
Anything else is a ScenarioError naming the line, or the row that is
missing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .agents import (
    FLOAT_PARAMS,
    EnvironmentModel,
    PlayerParams,
    nash_deviation,
    respond,
    step_reward,
)
from .consensus import InfluenceMatrix, deviation_disutility, strategic_update
from .core import bayesian_core_is_empty
from .setfn import (
    MAX_PLAYERS,
    GroundTruthSpec,
    SamplerError,
    SetFunction,
    SetFunctionError,
    check_fits_in_memory,
    num_restricted,
    random_supermodular,
    read_text,
    sample_supermodular_opinions,
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
    check_fits_in_memory(
        nbytes, f"horizon: the trace arrays of {horizon} steps at n={n}", ScenarioError
    )
    influence = InfluenceMatrix.from_matrix(scenario.influence)
    theta = scenario.theta
    form = shapley_linear_form(n)
    t = influence.t
    p = np.array([params.risk_aversion for params in scenario.players])
    # the lineup: one row of lies per player, constant for the fixed
    # strategies (zeros when truthful, the closed-form lie when Nash); each
    # step the learners fill in their own rows from one shared opponent model
    base = np.zeros((n, m))
    learners = []
    for i, params in enumerate(scenario.players):
        if params.kind == "nash":
            base[i] = nash_deviation(form.rows[i], theta, params.risk_aversion)
        elif params.kind == "rlearning":
            learners.append(i)
    model = EnvironmentModel(m, len(learners)) if learners else None
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
            # one prediction per learner, used for its lie and its error
            predictions = model.predict(state)
            for i, prediction in zip(learners, predictions):
                params = scenario.players[i]
                us[i] = respond(form.rows[i], theta, float(t[i]), params, prediction, k, rng)
        x = v.copy()
        x[:, 1:-1] += us
        v = strategic_update(v, x, influence.w, theta)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise SetFunctionError("payoff values must be finite")
        revealed[k] = x[:, 1:-1]
        deviations[k] = us
        disutility[k] = deviation_disutility(us, t)
        rewards[k] = step_reward(us, t, p, theta, form.rows, disutility[k])
        if learners:
            # each learner's target: its opponents' weighted mean lie
            mean_dev = t @ us
            targets = [(mean_dev - t[i] * us[i]) / (1.0 - t[i]) for i in learners]
            model.update(state, [y - y_hat for y, y_hat in zip(targets, predictions)])
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
            trace = run_simulation(replace(scenario, players=lineup))
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
    per player around the per-n ground truth (grand value included), all
    from the trial's own generator in one block-sampler call, and makes one
    Bayesian-core check of the profile: the Shapley allocation of the
    coalition bounds settles nonemptiness when it covers them, and the
    balancedness dual decides the rest.
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
        gts = GroundTruthSpec(truth, scenario.sigma)
        empty = 0
        failures = 0
        for trial in range(scenario.trials):
            rng = np.random.default_rng([scenario.seed, n, trial])
            try:
                opinions = sample_supermodular_opinions(
                    gts, rng, n, perturb_grand=scenario.perturb_grand
                )
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
        trace = run_simulation(
            replace(scenario, p_o=p_o, players=nash_players(scenario.n, t, p_o))
        )
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


def _row_keys(n: int, m: int, steps: int):
    """Each step's row keys, the leading cells that fix a row's place in the
    trace: one opinion row per (player, entry) in that order, then the
    aggregate row, whose player, entry, v, x and u are blank."""
    cells = [f"{i},{e}," for i in range(n) for e in range(m)]
    for k in range(steps + 1):
        head = f"opinion,{k},"
        yield [head + cell for cell in cells] + [f"aggregate,{k},,,,,,"]


def _row_name(key: str) -> str:
    kind, k, player, entry = key.split(",")[:4]
    where = f", player={player}, entry={entry}" if kind == "opinion" else ""
    return f"{kind} row for k={k}{where}"


def trace_chunks(trace: SimulationTrace):
    """The trace CSV as text chunks: the header line, then one chunk per step
    (its opinion rows and its aggregate row).  Floats are written with repr."""
    n, m, steps = trace.n, trace.m, trace.steps
    yield trace_header(n, m) + "\n"
    tail = "," * (m + 2 * n + 2) + "\n"  # the blank aggregate columns
    opinions = trace.opinions.reshape(-1, n * m).tolist()
    revealed = trace.revealed.reshape(-1, n * m).tolist()
    deviations = trace.deviations.reshape(-1, n * m).tolist()
    average, shapley = trace.average.tolist(), trace.shapley.tolist()
    rewards, disutility = trace.rewards.tolist(), trace.disutility.tolist()
    cum = trace.cumulative_disutility().tolist()
    for k, keys in enumerate(_row_keys(n, m, steps)):
        agg = keys.pop() + ",".join(map(repr, average[k] + shapley[k]))
        if k < steps:
            rows = [
                f"{key}{v!r},{x!r},{u!r}{tail}"
                for key, v, x, u in zip(keys, opinions[k], revealed[k], deviations[k])
            ]
            agg += f",{','.join(map(repr, rewards[k]))},{disutility[k]!r},{cum[k]!r}\n"
        else:
            rows = [f"{key}{v!r},,{tail}" for key, v in zip(keys, opinions[k])]
            agg += f"{',' * (n + 2)}{cum[k]!r}\n"
        rows.append(agg)
        yield "".join(rows)


def dump_trace(trace: SimulationTrace) -> str:
    return "".join(trace_chunks(trace))


def _cell_error(cells: list, j: int, lines, names, want: str) -> ScenarioError:
    """The error for cell ``j``, the cells running row by row, ``lines``
    holding each row's line number and ``names`` each column's name."""
    row, col = divmod(j, len(names))
    return ScenarioError(
        f"trace line {lines[row]}: {names[col]}: {want} required, got {cells[j]!r}"
    )


def _numbers(cells: list, lines, names) -> np.ndarray:
    """CSV cells as a flat float array; the first cell that is not a finite
    number is rejected."""
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        values = np.array([_number_or_nan(cell) for cell in cells])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise _cell_error(cells, int(bad[0]), lines, names, "finite number")
    return values


def _number_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _blank_on_final_step(cells: list, lines, names, steps: int) -> None:
    """The final step takes no action: its action cells are blank."""
    filled = next((j for j, cell in enumerate(cells) if cell), None)
    if filled is not None:
        raise _cell_error(cells, filled, lines, names, f"blank on the final step {steps}")


def parse_trace(text: str) -> SimulationTrace:
    """Rebuild a trace from its CSV; inverse of dump_trace.

    The rows must come in the writer's order, so the row count fixes the
    step count and every row's leading cells.  Anything dump_trace would not
    have written is rejected with a ScenarioError naming the line, or the
    row that is missing.
    """
    lines = text.splitlines()
    if not lines:
        raise ScenarioError("empty trace file")
    header = lines[0].split(",")
    m = sum(1 for c in header if c.startswith("vhat_"))
    n = sum(1 for c in header if c.startswith("shapley_"))
    # the column counts are matched first, so the header built to compare
    # against is no longer than the one read
    if m == 0 or m != num_restricted(n) or header != trace_header(n, m).split(","):
        raise ScenarioError("unrecognized trace header")
    body = lines[1:]
    if not body:
        return SimulationTrace.empty(n)
    nm, width = n * m, len(header) - 7  # width: the aggregate columns
    count, per = len(body), nm + 1  # rows in the file, rows per step
    steps = -(-count // per) - 1
    keys = [key for step in _row_keys(n, m, steps) for key in step]
    placed = list(map(str.startswith, body, keys))
    if not all(placed):
        j = placed.index(False)
        raise ScenarioError(f"trace line {j + 2}: expected the {_row_name(keys[j])}")
    if count < len(keys):
        raise ScenarioError(f"trace: no {_row_name(keys[count])}")

    # every row has the header's fields; an opinion row's last `width` are blank
    opinion = np.arange(count) % per < nm
    well_formed = (
        np.fromiter(map(str.count, body, [","] * count), np.intp, count) == len(header) - 1
    ) & (np.fromiter(map(str.endswith, body, ["," * width] * count), bool, count) | ~opinion)
    if not well_formed.all():
        j = int(np.argmin(well_formed))
        blank = f", the last {width} blank" if opinion[j] else ""
        raise ScenarioError(
            f"trace line {j + 2}: {keys[j].split(',')[0]} rows have {len(header)} fields{blank}"
        )

    line_no = np.arange(2, count + 2)
    agg_lines, op_lines = line_no[~opinion], line_no[opinion]

    # aggregate columns: the average and Shapley rows and the cumulative
    # disutility on every step; rewards and disutility on acted steps only
    aggregate = [line.split(",") for line in body[nm::per]]
    state, action = slice(7, 7 + m + n), slice(7 + m + n, -1)
    names = [*header[state], header[-1]]
    states = [c for f in aggregate for c in (*f[state], f[-1])]
    states = _numbers(states, agg_lines, names).reshape(-1, m + n + 1)
    _blank_on_final_step(aggregate[-1][action], agg_lines[-1:], header[action], steps)
    acts = [c for f in aggregate[:-1] for c in f[action]]
    acts = _numbers(acts, agg_lines, header[action]).reshape(-1, n + 1)

    del body[nm::per], keys[nm::per]  # the opinion rows and their keys remain
    # the v, x and u of all opinion rows are split in one go, since a list
    # per row costs the garbage collector more the longer the file
    values = [line[len(key) : -width] for line, key in zip(body, keys)]
    cells = ",".join(values).split(",")
    v, x, u = cells[0::3], cells[1::3], cells[2::3]
    for name, column in (("x", x), ("u", u)):
        _blank_on_final_step(column[-nm:], op_lines[-nm:], [name], steps)
    shape = (-1, n, m)
    return SimulationTrace(
        n=n,
        steps=steps,
        opinions=_numbers(v, op_lines, ["v"]).reshape(shape),
        revealed=_numbers(x[:-nm], op_lines, ["x"]).reshape(shape),
        deviations=_numbers(u[:-nm], op_lines, ["u"]).reshape(shape),
        average=states[:, :m],
        shapley=states[:, m : m + n],
        rewards=acts[:, :n],
        disutility=acts[:, n],
    )


def read_trace(path) -> SimulationTrace:
    return parse_trace(read_text(path, ScenarioError))


# --- scenario files ----------------------------------------------------------


def random_primitive_influence(n: int, rng: np.random.Generator) -> np.ndarray:
    """Dense positive row-stochastic matrix; positivity makes it primitive."""
    w = rng.uniform(0.1, 1.0, size=(n, n))
    return w / w.sum(axis=1, keepdims=True)


def load_scenario(path, seed: int | None = None) -> Scenario:
    """Read and resolve a scenario file; a ``seed`` other than None stands in
    for the file's own, for the inputs generated from it as well."""
    try:
        raw = json.loads(read_text(path, ScenarioError))
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed}
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
        truth_spec = GroundTruthSpec(family(n), sigma)
        # the dynamics keep the grand value fixed, so sampling leaves it at
        # the truth's (normalized) value; each player draws from its own stream
        sampled = []
        for i in range(n):
            try:
                sampled += sample_supermodular_opinions(
                    truth_spec, np.random.default_rng([seed, 3, i]), 1, perturb_grand=False
                )
            except SamplerError as exc:
                fail("initial_opinions.ground_truth.sigma", f"player {i}: {exc}")
        initial_opinions = tuple(sampled)
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
        if check("po_values", float, p) <= 0:
            fail("po_values", f"entries must be > 0, got {p!r}")
    p_o = read("p_o", float, 1.0)
    if p_o <= 0:
        fail("p_o", f"risk-aversion scale must be > 0, got {p_o!r}")
    return Scenario(
        kind=kind,
        n=n,
        theta=theta,
        horizon=horizon,
        seed=seed,
        influence=influence,
        initial_opinions=initial_opinions,
        players=players,
        p_o=p_o,
        po_values=tuple(po_values),
        trials=read("trials", int, 0),
        n_min=n_min,
        n_max=n_max,
        sigma=read("sigma", float, 0.0),
        truth_family=read("truth_family", str, "quadratic"),
        perturb_grand=read("perturb_grand", bool, True),
    )
