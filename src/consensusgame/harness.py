"""Scenario configs, the simulation driver, trace I/O, and experiments.

A scenario is a JSON document whose experiment kind picks the table of keys
it is read by (SCHEMAS): a master seed, and the game the dynamics run or the
sampling setup of core-emptiness.  Everything downstream is deterministic
given the seed: every seeded stream but the dynamics' own is numpy's
PCG64 stream of ``SeedSequence([seed, *key])``, so Monte-Carlo results do
not depend on execution order.  ``setfn.keyed_generators`` derives the
streams of many keys in one vectorized pass, pinned to numpy's by a test.

Trace CSV layout (one file, fixed header, full-precision floats):

    kind,k,player,entry,v,x,u,vhat_<e>...,shapley_<i>...,reward_<i>...,disutility,cum_disutility

- one "opinion" row per step, player, and restricted entry carrying that
  entry of the true opinion v, the revealed opinion x, and the lie u
  (x and u are blank on the final step, where no action is taken);
- one "aggregate" row per step carrying the weighted average opinion, its
  Shapley allocation, per-player rewards, and the fraud disutility.

`trace_chunks` yields the CSV one step at a time, which the CLI writes as it
comes, and `parse_trace` and `read_trace` split it into lines a batch at a
time and check it a block of whole steps at a time, so the CSV text of a run
is never held in memory whole.  A batch or block is about GATHER_CHUNK_BYTES
/ OBJECT_BYTES_PER_TEXT_BYTE of text, so that the objects made from it fit
GATHER_CHUNK_BYTES.  `parse_trace`, and so `read_trace`, accepts only what
the writer writes: the rows in the writer's order, so the row count fixes
the step count and each line must begin with the kind, k, player and entry
of its place; finite values; and the action cells (x, u, rewards,
disutility) blank on the final step and only there.
Anything else is a ScenarioError naming the line, or the row that is missing.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import NamedTuple

import numpy as np

from .agents import (
    FLOAT_PARAMS,
    EnvironmentModel,
    PlayerParams,
    best_response_terms,
    nash_deviation,
    respond,
    step_reward,
)
from .consensus import ConsensusError, InfluenceMatrix, deviation_disutility, strategic_update
from .core import DEFAULT_TOL, bayesian_core_is_empty, bayesian_core_verdicts
from .setfn import (
    GATHER_CHUNK_BYTES,
    MAX_PLAYERS,
    SAMPLER_ATTEMPTS,
    GroundTruthSpec,
    SetFunction,
    SetFunctionError,
    check_fits_in_memory,
    keyed_generators,
    num_restricted,
    random_supermodular_profile,
    read_text,
    sample_opinion_streams,
    stream_opinions,
)
from .shapley import ShapleyLinearForm, shapley_linear_form

CONVERGENCE_TOL = 1e-10
# the largest player count the dynamics run: their linear form has 2^n - 2 columns
LINEAR_FORM_MAX_PLAYERS = 12


class ScenarioError(ValueError):
    """Scenario file rejected; message names the offending key."""


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Fully resolved, runnable experiment description; SCHEMAS says what each kind reads.
    W is held as an ``InfluenceMatrix``: a matrix given in code is checked and solved here."""

    kind: str
    n: int | None = None
    theta: float | None = None
    horizon: int | None = None
    seed: int
    influence: InfluenceMatrix | None = None
    initial_opinions: tuple[SetFunction, ...] | None = None
    players: tuple[PlayerParams, ...] | None = None
    p_o: float = 1.0
    po_values: tuple[float, ...] | None = None
    trials: int | None = None
    n_min: int = 2
    n_max: int = 8
    sigma: float | None = None
    truth_family: str = "quadratic"
    perturb_grand: bool = True

    def __post_init__(self):
        if self.influence is not None and not isinstance(self.influence, InfluenceMatrix):
            object.__setattr__(self, "influence", InfluenceMatrix.from_matrix(self.influence))


@dataclass
class SimulationTrace:
    """Time-indexed record of one strategic-dynamics run.

    Opinions cover steps 0..K; actions (lies, rewards, disutility) cover
    steps 0..K-1; the arrays are the whole record, so n, m, K and convergence
    are read off them, as is the revealed x = v + u.  All payoff vectors are
    restricted m-vectors; opinions are normalized so the grand value is implicit.
    """

    opinions: np.ndarray  # (steps+1, n, m)
    deviations: np.ndarray  # (steps, n, m)
    average: np.ndarray  # (steps+1, m)
    shapley: np.ndarray  # (steps+1, n)
    rewards: np.ndarray  # (steps, n)
    disutility: np.ndarray  # (steps,)

    @property
    def n(self) -> int:
        return self.opinions.shape[1]

    @property
    def m(self) -> int:
        return self.opinions.shape[2]

    @property
    def steps(self) -> int:
        return len(self.opinions) - 1

    @property
    def converged_at(self) -> int | None:
        """K when step K changed every opinion entry by less than
        CONVERGENCE_TOL, the rule that stops a run; else None."""
        with np.errstate(over="ignore"):  # a change beyond the float range is no convergence
            change = np.abs(np.diff(self.opinions[-2:], axis=0))
        return self.steps if self.steps and change.max() < CONVERGENCE_TOL else None

    @property
    def revealed(self) -> np.ndarray:  # (steps, n, m)
        return self.opinions[: len(self.deviations)] + self.deviations

    @staticmethod
    def empty(n: int, steps: int, lies: np.ndarray | None = None) -> "SimulationTrace":
        """Trace of ``steps`` steps whose arrays are allocated, not filled in
        (run_simulation's loop fills the opinions and lies step by step, and
        its derivation pass the rest, so rows a converged run never reaches
        cost nothing).  Constant ``lies``, one (n, m) profile, are kept once.

        The one place that knows the stored arrays' shapes: a trace whose
        float64 arrays, lies counted per step, would not fit in physical
        memory is refused as the horizon asking for it, before anything is allocated.
        """
        m = num_restricted(n)
        shapes = {
            "opinions": (steps + 1, n, m),
            "deviations": (steps, n, m),
            "average": (steps + 1, m),
            "shapley": (steps + 1, n),
            "rewards": (steps, n),
            "disutility": (steps,),
        }
        nbytes = 8 * sum(math.prod(shape) for shape in shapes.values())
        check_fits_in_memory(
            nbytes, f"horizon: the trace arrays of {steps} steps at n={n}", ScenarioError
        )
        arrays = {} if lies is None else {"deviations": np.broadcast_to(lies, (steps, n, m))}
        arrays.update((k, np.empty(shape)) for k, shape in shapes.items() if k not in arrays)
        return SimulationTrace(**arrays)

    def cut(self, steps: int) -> "SimulationTrace":
        """The trace of its first ``steps`` steps, as views of its arrays."""
        drop = self.steps - steps  # every array has steps or steps + 1 rows
        return SimulationTrace(**{k: a[: len(a) - drop] for k, a in vars(self).items()})

    def cumulative_disutility(self) -> np.ndarray:
        out = np.zeros(self.steps + 1)
        np.cumsum(self.disutility, out=out[1:])
        return out


def run_simulation(scenario: Scenario) -> SimulationTrace:
    """Drive the strategic dynamics: agents act, the update law advances.

    The opinion profile is the (n, m) block of restricted values: lies move
    only the proper coalitions, the update law treats each coalition on its
    own, and the grand value stays at 1.  Stops at the horizon or as soon
    as the largest per-player opinion change falls below the convergence
    tolerance.  Deterministic given the scenario seed.  A run whose trace
    arrays would not fit in physical memory is rejected before they are
    allocated.

    The run has two parts: ``_recur`` steps the dynamics and records only
    what the next step reads, and ``_derive_columns`` then fills in the
    columns no step reads.  The recurrence returns first, so the learners'
    model is freed before the derivation allocates its blocks.  A step whose
    opinions are not finite is refused as it is taken; a disutility or
    reward that is not finite, once the last step is taken.
    """
    check_scenario(scenario, "simulate")
    form = shapley_linear_form(scenario.n)
    trace = _recur(scenario, form)
    p = np.array([params.risk_aversion for params in scenario.players])
    _derive_columns(trace, scenario.influence.t, p, scenario.theta, form)
    return trace


def _recur(scenario: Scenario, form: ShapleyLinearForm) -> SimulationTrace:
    """Step the dynamics into a new trace, each step recording the learners'
    lies and the next true opinions (x = v + u and the step's change live in
    reused buffers); returns the trace, cut at convergence when the run converges.

    Each step takes one pass for its residual max|v_next - v|, the largest
    per-player opinion change.  Only a residual that is not finite costs a
    second pass: a step whose true opinions are not finite is refused there,
    and a finite step whose change overflows runs on.  The dynamics' own
    generator, ``default_rng(seed)``, is built only for a lineup with learners,
    the only players that draw from it."""
    n, m, theta, t = scenario.n, form.rows.shape[1], scenario.theta, scenario.influence.t
    # the lineup's lies, constant for the fixed strategies (zeros when truthful, the
    # closed-form lie when Nash); each step the learners fill in their own rows
    lies = np.zeros((n, m))
    learners = []
    for i, params in enumerate(scenario.players):
        if params.kind == "nash":
            lies[i] = nash_deviation(form.rows[i], theta, params.risk_aversion)
        elif params.kind == "rlearning":
            learners.append(i)
    trace = SimulationTrace.empty(n, scenario.horizon, None if learners else lies)
    if learners:
        model = EnvironmentModel(m, len(learners), scenario.horizon)
        rng = np.random.default_rng(scenario.seed)
        t_learners = t[learners, None]
        players = [scenario.players[i] for i in learners]
        p_learners = np.array([[params.risk_aversion] for params in players])

    v = trace.opinions[0]
    v[:] = [f.values[1:-1] for f in scenario.initial_opinions]
    x, change, us = np.empty((n, m)), np.empty((n, m)), lies
    state = np.zeros(m)  # broadcast mean revealed opinion; nothing revealed yet
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if learners:  # the learners' best-response constants, d theta / (2 p) and 1 - t
            terms = best_response_terms(form.rows[learners], theta, p_learners, t_learners)
        for k in range(scenario.horizon):
            if learners:
                us = trace.deviations[k]
                us[:] = lies
                # one weighing of the state; one prediction per learner, for its lie and error
                weights = model.weigh(state)
                predictions = model.predict(weights)
                acted = respond(terms, predictions, players, k, rng)
                us[learners] = acted
            np.add(v, us, out=x)
            v_next = strategic_update(v, x, scenario.influence.w, theta, out=trace.opinions[k + 1])
            residual = np.abs(np.subtract(v_next, v, out=change), out=change).max()
            # each column of the primitive W has a positive entry, so a nonfinite
            # entry of x makes its coalition's entry of v_next inf, or NaN from
            # 0 * inf; v is finite, so either makes the residual inf or NaN
            if not math.isfinite(residual) and not np.isfinite(v_next).all():
                raise SetFunctionError("payoff values must be finite")
            if learners:
                # each learner's error: its target, its opponents' weighted mean
                # lie, less its prediction
                targets = (t @ us - t_learners * acted) / terms[1]
                model.update(weights, targets - predictions)
                state = t @ x
            if residual < CONVERGENCE_TOL:
                return trace.cut(k + 1)
            v = v_next
    return trace


def _derive_columns(
    trace: SimulationTrace, t: np.ndarray, p: np.ndarray, theta: float, form: ShapleyLinearForm
) -> None:
    """Fill in the columns no step of the dynamics reads from the recorded
    opinions and lies: the weighted average opinion and its Shapley row on
    every step, the disutility and rewards on every acted step.

    Works through blocks of steps whose (block, n, m) stack fits
    GATHER_CHUNK_BYTES, so its temporaries stay within a few such chunks
    whatever the horizon; every value is that of the per-step call.  Lies
    kept once (a lineup with no learner) are one profile, priced once for
    the whole run before the blocks, not once per block.
    Raises SetFunctionError when a disutility or reward is not finite.
    """

    def price(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            disutility = deviation_disutility(us, t)
            rewards = step_reward(us, t, p, theta, form.rows, disutility)
        if not (np.isfinite(disutility).all() and np.isfinite(rewards).all()):
            raise SetFunctionError("payoff values must be finite")
        return disutility, rewards

    kept_once = trace.deviations.strides[0] == 0
    if kept_once:  # one profile prices every acted step; with none acted, [:1] is empty
        trace.disutility[:], trace.rewards[:] = price(trace.deviations[:1])
    block = max(1, GATHER_CHUNK_BYTES // (8 * trace.n * trace.m))
    for lo in range(0, trace.steps + 1, block):
        blk = slice(lo, lo + block)
        average = np.matmul(t, trace.opinions[blk], out=trace.average[blk])
        trace.shapley[blk] = form.apply_restricted(average)
        if not kept_once:  # one row fewer: the final step takes no action
            trace.disutility[blk], trace.rewards[blk] = price(trace.deviations[blk])


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
    check_scenario(scenario, "efficiency")
    if scenario.n == 1:
        drift = control_drift = 0.0
        degenerate = True
    else:
        t = scenario.influence.t
        drifts = []
        for weights in (t, np.ones(scenario.n)):  # p_i = p_o * t_i; control: p_i = p_o
            lineup = nash_players(scenario.n, weights, scenario.p_o)
            # only the average is kept: a run's opinions are freed before the next run's
            average = run_simulation(replace(scenario, players=lineup)).average
            drifts.append(float(np.max(np.abs(average - average[0]))))
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


def truth_spec(family: str, n: int, sigma: float) -> GroundTruthSpec:
    """The named family's truth at n players, with noise level sigma."""
    return GroundTruthSpec(TRUTH_FAMILIES[family](n), sigma)


def experiment_core_emptiness(scenario: Scenario, tol: float = DEFAULT_TOL) -> list[dict]:
    """Per-n frequency of an empty Bayesian core over sampled opinions.

    For each player count, every trial draws one truncated-normal opinion
    per player around the per-n ground truth (grand value included), all
    from the trial's own generator, numpy's ``default_rng([seed, n, trial])``
    stream, and makes one Bayesian-core check of the profile: the Shapley
    allocation of the coalition bounds settles nonemptiness when it covers
    them, and the balancedness dual decides the rest, to the feasibility
    tolerance ``tol``.  A player count's trials take one ``stream_opinions``
    pass, as many in flight as have their first blocks fit one sampler round,
    the next admitted as others finish and their generators derived by
    ``keyed_generators`` a window at a time; the trials a round finishes are
    checked together.  So the arrays stay within a few GATHER_CHUNK_BYTES
    whatever the trial count, and each trial's opinions and verdict are
    those of running it alone.
    Trials whose rejection sampler exhausts its budget are counted as
    failures, not as data; a player count where every trial fails has no
    data at all and is rejected, as is a sigma whose noise draws a
    candidate beyond the float range, or opinions whose coalition bounds
    make the balancedness dual cycle.
    """
    check_scenario(scenario, "core-emptiness")
    rows = []
    for n in range(scenario.n_min, scenario.n_max + 1):
        gts = truth_spec(scenario.truth_family, n, scenario.sigma)
        generators = partial(keyed_generators, (scenario.seed, n))
        empty = failures = 0
        try:
            for done in stream_opinions(gts, scenario.trials, generators, n, scenario.perturb_grand):
                profiles = [values for _, values in done if values is not None]
                failures += len(done) - len(profiles)
                verdicts, _ = bayesian_core_verdicts(np.reshape(profiles, (-1, n, 1 << n)), tol)
                empty += int(verdicts.sum())
        # noise beyond the float range, or bounds the dual cannot decide
        except SetFunctionError as exc:
            _fail("sigma", f"{scenario.sigma!r} at n={n}: {exc}")
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


def experiment_po_sweep(scenario: Scenario, tol: float = DEFAULT_TOL) -> list[dict]:
    """Opinion spread and Bayesian-core verdict across risk-aversion scales.

    Every sweep point runs the all-rational game to convergence with
    p_i = p_o * t_i, measures how far the per-player limits sit from the
    average opinion, and checks the Bayesian core of the limit profile to
    the feasibility tolerance ``tol``.
    """
    check_scenario(scenario, "po-sweep")
    t = scenario.influence.t
    rows = []
    for p_o in scenario.po_values:
        trace = run_simulation(replace(scenario, players=nash_players(scenario.n, t, p_o)))
        spread = float(np.max(np.abs(trace.opinions[-1] - trace.average[-1])))
        limits = [SetFunction.from_restricted(scenario.n, v, grand=1.0) for v in trace.opinions[-1]]
        empty, _ = bayesian_core_is_empty(limits, tol=tol)
        rows.append(
            {
                "p_o": p_o,
                "spread": spread,
                "bayesian_core_empty": empty,
                "steps": trace.steps,
                "converged": trace.converged_at is not None,
            }
        )
        del trace  # freed before the next run allocates its own
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


def _row_keys(n: int, m: int, ks: range):
    """Row keys, the leading cells that fix a row's place in the trace, of
    each step in ``ks``: one opinion row per (player, entry) in that order,
    then the aggregate row, whose player, entry, v, x and u are blank."""
    cells = [f"{i},{e}," for i in range(n) for e in range(m)]
    for k in ks:
        head = f"opinion,{k},"
        yield [head + cell for cell in cells] + [f"aggregate,{k},,,,,,"]


def _row_name(key: str) -> str:
    kind, k, player, entry = key.split(",")[:4]
    where = f", player={player}, entry={entry}" if kind == "opinion" else ""
    return f"{kind} row for k={k}{where}"


def trace_chunks(trace: SimulationTrace):
    """The trace CSV as text chunks: the header line, then one chunk per step
    (its opinion rows and its aggregate row), converted as it is built.
    Floats are written with repr."""
    n, m, steps = trace.n, trace.m, trace.steps
    yield trace_header(n, m) + "\n"
    tail = "," * (m + 2 * n + 2) + "\n"  # the blank aggregate columns
    opinions, deviations = trace.opinions.reshape(-1, n * m), trace.deviations.reshape(-1, n * m)
    disutility, cum = trace.disutility.tolist(), trace.cumulative_disutility().tolist()
    for k, keys in enumerate(_row_keys(n, m, range(steps + 1))):
        state = trace.average[k].tolist() + trace.shapley[k].tolist()
        agg = keys.pop() + ",".join(map(repr, state))
        if k < steps:
            v, u = opinions[k], deviations[k]  # x = v + u elementwise, as in trace.revealed
            cells = zip(keys, v.tolist(), (v + u).tolist(), u.tolist())
            rows = [f"{key}{v!r},{x!r},{u!r}{tail}" for key, v, x, u in cells]
            acts = [*trace.rewards[k].tolist(), disutility[k], cum[k]]
            agg += "," + ",".join(map(repr, acts)) + "\n"
        else:
            rows = [f"{key}{v!r},,{tail}" for key, v in zip(keys, opinions[k].tolist())]
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


def _derived(rule: str, got: np.ndarray, want: np.ndarray, cells: list, lines, names) -> None:
    """Reject the first value in ``got`` whose bits differ from the value
    ``rule`` gives in ``want``; ``got`` is the last of the ``names`` columns."""
    differ = np.flatnonzero(got.ravel().view(np.uint64) != want.ravel().view(np.uint64))
    if differ.size:
        j = int(differ[0])
        required = f"{rule} = {float(want.flat[j])!r}"
        raise _cell_error(cells, (j + 1) * len(names) - 1, lines, names, required)


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
    row that is missing; that includes an x other than v + u and a
    cumulative disutility other than the running sum of the disutility, and
    a header with no rows, as step 0's are missing.
    """
    return _parse_lines(_text_lines(text))


def read_trace(path) -> SimulationTrace:
    """parse_trace of a UTF-8 file, read a block of steps at a time."""
    with open(path, "rb") as fh:
        return _parse_lines(_lines(fh, path))


# Object bytes per byte of trace text, measured at n = 6: 3.4 for a batch as it
# is decoded (its bytes, str and lines), 4.0 for a block as it is checked (its
# lines 1.4, the keys, cells and lists made from them 2.6).
OBJECT_BYTES_PER_TEXT_BYTE = 4


def _text_lines(text: str):
    """The text's lines, split a batch at a time: a batch ends after a \\n, so
    none splits a \\r\\n pair and the lines are those of text.splitlines()."""
    size, lo = GATHER_CHUNK_BYTES // OBJECT_BYTES_PER_TEXT_BYTE, 0
    while lo < len(text):
        hi = text.find("\n", lo + size) + 1 or len(text)
        yield from text[lo:hi].splitlines()
        lo = hi


def _lines(fh, path):
    """The file's lines, decoded in batches ending after a newline: none splits a \\r\\n pair."""
    at = 0  # the batch's offset in the file, which may be a pipe
    while batch := fh.read(GATHER_CHUNK_BYTES // OBJECT_BYTES_PER_TEXT_BYTE) + fh.readline():
        try:
            lines = batch.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            where = at + exc.start
            raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {where}") from None
        at, batch = at + len(batch), None  # the bytes are not held through the yields
        yield from lines


def _parse_lines(lines) -> SimulationTrace:
    """parse_trace of an iterator of lines, checked a block of whole steps at a
    time; the running sum, which needs the whole disutility column, last."""
    header = next(lines, None)
    if header is None:
        raise ScenarioError("empty trace file")
    header = header.split(",")
    m = sum(1 for c in header if c.startswith("vhat_"))
    n = sum(1 for c in header if c.startswith("shapley_"))
    # the column counts are matched first, so the header built to compare
    # against is no longer than the one read
    if m == 0 or m != num_restricted(n) or header != trace_header(n, m).split(","):
        raise ScenarioError("unrecognized trace header")
    per = n * m + 1  # rows per step
    # a block's objects fit GATHER_CHUNK_BYTES: a row is len(header) separators and ~72 bytes more
    text = GATHER_CHUNK_BYTES // OBJECT_BYTES_PER_TEXT_BYTE
    rows = per * max(1, text // (per * (len(header) + 72)))
    blocks, cum_cells, body = [], [], list(islice(lines, rows))
    while True:  # one line past a block tells whether it holds the final step
        ahead = next(lines, None) if len(body) == rows else None
        blocks.append(_parse_steps(body, len(cum_cells), ahead is None, header, n, m, cum_cells))
        if ahead is None:
            break
        body = [ahead]  # the checked block is dropped before the next is read
        body += islice(lines, rows - 1)
    opinions, lies, states, acts = map(np.concatenate, zip(*blocks))
    trace = SimulationTrace(
        opinions=opinions,
        deviations=lies,
        average=states[:, :m],
        shapley=states[:, m : m + n],
        rewards=acts[:, :n],
        disutility=acts[:, n],
    )
    cum, agg_lines = trace.cumulative_disutility(), np.arange(len(cum_cells)) * per + per + 1
    _derived("the running sum of disutility", states[:, -1], cum, cum_cells, agg_lines, header[-1:])
    return trace


def _parse_steps(body: list, lo: int, final: bool, header: list, n: int, m: int, cum_cells: list):
    """Check the rows of steps lo, lo + 1, ... and return their v, u, state and
    action floats; appends each step's cum_disutility text to ``cum_cells``."""
    nm, width, per = n * m, len(header) - 7, n * m + 1  # width: the aggregate columns
    count, first = len(body), lo * per + 2  # rows in the block, line number of its first
    steps = lo + max(count - 1, 0) // per  # the last step begun; step 0 when there is none
    keys = [key for step in _row_keys(n, m, range(lo, steps + 1)) for key in step]
    placed = list(map(str.startswith, body, keys))
    if not all(placed):
        j = placed.index(False)
        raise ScenarioError(f"trace line {first + j}: expected the {_row_name(keys[j])}")
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
        kind = keys[j].split(",")[0]
        raise ScenarioError(f"trace line {first + j}: {kind} rows have {len(header)} fields{blank}")

    line_no = np.arange(first, first + count)
    agg_lines, op_lines = line_no[~opinion], line_no[opinion]

    # aggregate columns: the average and Shapley rows and the cumulative
    # disutility on every step; rewards and disutility on acted steps only
    aggregate = [line.split(",") for line in body[nm::per]]
    acted = len(aggregate) - final  # the block's steps that take an action
    state, action = slice(7, 7 + m + n), slice(7 + m + n, -1)
    names = [*header[state], header[-1]]
    state_cells = [c for f in aggregate for c in (*f[state], f[-1])]
    states = _numbers(state_cells, agg_lines, names).reshape(-1, m + n + 1)
    cum_cells += state_cells[m + n :: m + n + 1]
    for f in aggregate[acted:]:
        _blank_on_final_step(f[action], agg_lines[-1:], header[action], steps)
    acts = [c for f in aggregate[:acted] for c in f[action]]
    acts = _numbers(acts, agg_lines, header[action]).reshape(-1, n + 1)

    del body[nm::per], keys[nm::per]  # the opinion rows and their keys remain
    # the v, x and u of all opinion rows are split in one go, since a list
    # per row costs the garbage collector more the longer the block
    cells = ",".join([line[len(key) : -width] for line, key in zip(body, keys)]).split(",")
    v, x, u = cells[0::3], cells[1::3], cells[2::3]
    cut = acted * nm  # the acted steps' opinion rows
    for name, column in (("x", x), ("u", u)):
        _blank_on_final_step(column[cut:], op_lines[cut:], [name], steps)
    opinions = _numbers(v, op_lines, ["v"])
    revealed = _numbers(x[:cut], op_lines, ["x"])
    lies = _numbers(u[:cut], op_lines, ["u"])
    # the columns the writer derives must hold its exact bits; x is then dropped
    _derived("v + u", revealed, opinions[:cut] + lies, x, op_lines, ["x"])
    return opinions.reshape(-1, n, m), lies.reshape(-1, n, m), states, acts


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
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ScenarioError(f"{path}: JSON nested too deeply to read") from None
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": seed}
    return scenario_from_dict(raw, source=str(path))


def _fail(key: str, msg: str):
    raise ScenarioError(f"{key}: {msg}")


def _known(obj: dict, where: str, keys) -> None:
    if unknown := set(obj) - set(keys):
        _fail(where, f"unknown keys {sorted(unknown, key=str)}")


def _scalar(key: str, kind: type, value):
    """Typed scalar of kind int, float (finite, so no integer beyond float range), str
    or bool; a JSON bool is an int to Python, and is accepted only as a bool."""
    if kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= float(np.finfo(float).max)
    else:
        ok = isinstance(value, kind)
    if not ok or isinstance(value, bool) != (kind is bool):
        expected = {int: "integer", float: "finite number", str: "string", bool: "true or false"}
        _fail(key, f"{expected[kind]} required, got {value!r}")
    return kind(value)


def _array(key: str, value, shape: tuple) -> np.ndarray:
    """Nested lists of JSON numbers; true/false and strings are not numbers.
    The lists are read level by level, no deeper than ``shape`` reaches."""
    level = [value]
    for _ in range(len(shape) + 1):
        if any(isinstance(v, bool) or not isinstance(v, (list, int, float)) for v in level):
            _fail(key, "numeric array required (JSON numbers only)")
        level = [item for v in level if isinstance(v, list) for item in v]
    if level:
        _fail(key, f"expected shape {shape}, got lists nested more than {len(shape)} deep")
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an integer beyond float range
        _fail(key, "numeric array required")
    if arr.shape != shape:
        _fail(key, f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        _fail(key, "values must be finite")
    return arr


def _read_influence(name: str, value, values: dict) -> InfluenceMatrix:
    if (n := values["n"]) is None:
        _fail(name, "needs the player count n")
    if value == "random_primitive":
        (rng,) = keyed_generators((values["seed"],), [1])
        w = random_primitive_influence(n, rng)
    elif isinstance(value, list):
        w = _array(name, value, (n, n))
    else:
        _fail(name, 'matrix rows or the string "random_primitive" required')
    try:
        return InfluenceMatrix.from_matrix(w)
    except ConsensusError as exc:
        _fail(name, str(exc))


def _read_opinions(name: str, value, values: dict) -> tuple[SetFunction, ...]:
    n, seed = values["n"], values["seed"]
    if value == "random_supermodular":
        return random_supermodular_profile(n, keyed_generators((seed, 2), range(n)))
    if isinstance(value, dict):
        _known(value, name, ("ground_truth",))
        where, spec = f"{name}.ground_truth", value.get("ground_truth")
        if not isinstance(spec, dict):
            _fail(where, "object required")
        _known(spec, where, _GROUND_TRUTH)
        read = {"family": Scenario.truth_family, "sigma": None}
        _hold(_GROUND_TRUTH, read, values["kind"], spec, f"{where}.")
        truth = truth_spec(read["family"], n, read["sigma"])
        # the dynamics keep the grand value fixed, so sampling leaves it at
        # the truth's (normalized) value; each player draws from its own stream
        rngs = keyed_generators((seed, 3), range(n))
        try:
            stacks, exhausted = sample_opinion_streams(truth, rngs, 1, perturb_grand=False)
        except SetFunctionError as exc:  # noise beyond the float range
            _fail(f"{where}.sigma", str(exc))
        if exhausted.any():
            _fail(
                f"{where}.sigma",
                f"player {int(exhausted.argmax())}: no supermodular sample in "
                f"{SAMPLER_ATTEMPTS} attempts; sigma={truth.sigma} is likely too large "
                "for the truth's strictness margin",
            )
        return tuple(SetFunction(n, values) for (values,) in stacks)
    if not isinstance(value, list):
        _fail(name, "list of opinions or 'random_supermodular' required")
    opinions = []
    for i, item in enumerate(value):
        if not isinstance(item, dict) or "restricted" not in item:
            _fail(f"{name}[{i}]", 'object with "restricted" list required')
        _known(item, f"{name}[{i}]", ("restricted", "grand"))
        restricted = _array(f"{name}[{i}].restricted", item["restricted"], (num_restricted(n),))
        grand = _scalar(f"{name}[{i}].grand", float, item.get("grand", 1.0))
        opinions.append(SetFunction.from_restricted(n, restricted, grand))
    return tuple(opinions)


def _read_players(name: str, value, values: dict) -> tuple[PlayerParams, ...]:
    if not isinstance(value, list):
        _fail(name, "list of player configs required")
    kinds = {"kind": str, **dict.fromkeys(FLOAT_PARAMS, float)}
    players = []
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            _fail(f"{name}[{i}]", "object required")
        _known(item, f"{name}[{i}]", kinds)
        params = {k: _scalar(f"{name}[{i}]: {k}", kinds[k], v) for k, v in item.items()}
        try:
            players.append(PlayerParams(**params))
        except (TypeError, ValueError) as exc:
            _fail(f"{name}[{i}]", str(exc))
    return tuple(players)


def _read_points(name: str, value, values: dict) -> tuple:
    if not isinstance(value, list):
        _fail(name, f"list of numbers required, got {value!r}")
    _array(name, value, (len(value),))
    return tuple(value)  # kept as written: the sweep CSV echoes them with repr


class Key(NamedTuple):
    """One key of a kind's table: its scalar type or its reader ``(name, value,
    values)``, its rule ``ok(value, values)`` worded by ``need``, and whether it is required."""

    form: type | Callable
    ok: Callable = lambda value, values: True
    need: str = ""
    required: bool = True


def _count(lo: int, hi: int, required: bool = True) -> Key:
    """A player count in [lo, hi]."""
    return Key(int, lambda v, _: lo <= v <= hi, f"player count in [{lo}, {hi}] required", required)


_FAMILY = Key(str, lambda v, _: v in TRUTH_FAMILIES, f"one of {sorted(TRUTH_FAMILIES)}", False)
_GAME = {  # the keys of a game the dynamics run
    "n": _count(2, LINEAR_FORM_MAX_PLAYERS),
    "theta": Key(float, lambda v, _: 0 < v < 1, "trust parameter in (0, 1) required"),
    "horizon": Key(int, lambda v, _: v >= 0, "nonnegative integer required"),
    "seed": Key(int, lambda v, _: v >= 0, "nonnegative integer required"),
    "influence": Key(
        _read_influence, lambda w, vs: w.n == vs["n"], "one row and column per player required"
    ),
    "initial_opinions": Key(
        _read_opinions,
        lambda fs, vs: len(fs) == vs["n"] and all(f.is_normalized(tol=1e-9) for f in fs),
        "one normalized opinion (grand value 1) per player required",
    ),
}
# One table per kind: the keys it reads, in reading order.  core-emptiness reads
# no n, theta, horizon or influence, but accepts and checks them for older files.
SCHEMAS = {
    "simulate": {
        **_GAME,
        "players": Key(_read_players, lambda v, vs: len(v) == vs["n"], "one config per player"),
    },
    "efficiency": {
        **_GAME,
        "n": _count(1, LINEAR_FORM_MAX_PLAYERS),
        "p_o": Key(float, lambda v, _: v > 0, "risk-aversion scale > 0 required", required=False),
    },
    "core-emptiness": {
        "n": _GAME["n"]._replace(required=False),
        "theta": _GAME["theta"]._replace(required=False),
        "horizon": _GAME["horizon"]._replace(required=False),
        "seed": _GAME["seed"],
        "n_min": _count(1, MAX_PLAYERS, required=False),
        "n_max": Key(
            int,
            lambda v, vs: vs["n_min"] <= v <= MAX_PLAYERS,
            f"player count in [n_min, {MAX_PLAYERS}] required",
            False,
        ),
        "influence": _GAME["influence"]._replace(required=False),
        "trials": Key(int, lambda v, _: v >= 1, "at least 1 trial required"),
        "sigma": Key(float, lambda v, _: v > 0, "noise level > 0 required"),
        "truth_family": _FAMILY,
        "perturb_grand": Key(bool, required=False),
    },
    "po-sweep": {
        **_GAME,
        "po_values": Key(_read_points, lambda v, _: v and min(v) > 0, "one or more points > 0"),
    },
}
_GROUND_TRUTH = {  # the keys of initial_opinions.ground_truth
    "family": _FAMILY,
    "sigma": Key(float, lambda v, _: v >= 0, "nonnegative number required"),
}


def _hold(table: dict, values: dict, kind: str, obj: dict | None = None, prefix: str = "") -> dict:
    """Hold ``values`` to ``table`` key by key, reading each key the JSON object
    ``obj`` gives first: each required key given, each given one within its rule."""
    for key, spec in table.items():
        name = prefix + key
        scalar = isinstance(spec.form, type)
        if obj is not None and key in obj:
            form, raw = spec.form, obj[key]
            values[key] = _scalar(name, form, raw) if scalar else form(name, raw, values)
        value = values.setdefault(key, getattr(Scenario, key, None))
        if value is None:
            if spec.required:
                _fail(name, f"required for kind {kind!r}")
        elif not spec.ok(value, values):
            _fail(name, spec.need + (f", got {value!r}" if scalar else ""))
    return values


def check_scenario(scenario: Scenario, kind: str) -> None:
    """Hold a Scenario built in code to the table of the experiment ``kind`` it is run as."""
    _hold(SCHEMAS[kind], dict(vars(scenario)), kind)


def scenario_from_dict(raw: dict, source: str = "<scenario>") -> Scenario:
    """Validate and resolve a scenario document against its kind's table,
    refusing the keys only other kinds read.  Generated inputs ("random_primitive",
    "random_supermodular", "ground_truth") are expanded from the master seed."""
    try:
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        _known(raw, "scenario", {"kind"}.union(*SCHEMAS.values()))
        kind = raw.get("kind", "simulate")
        if not isinstance(kind, str) or kind not in SCHEMAS:
            _fail("kind", f"must be one of {tuple(SCHEMAS)}, got {kind!r}")
        values = _hold(SCHEMAS[kind], {"kind": kind}, kind, raw)
        if unread := sorted(set(raw) - set(SCHEMAS[kind]) - {"kind"}):
            _fail(unread[0], f"not read by kind {kind!r}")
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from None
    return Scenario(**values)
