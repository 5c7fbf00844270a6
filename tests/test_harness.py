"""Simulation driver, trace round-trips, scenario validation, and the CLI."""

import argparse
import copy
import dataclasses
import functools
import json
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensusgame import cli, consensus, harness, setfn
from consensusgame.core import bayesian_core_contains, bayesian_core_is_empty, bayesian_core_verdicts
from consensusgame.agents import (
    FLOAT_PARAMS,
    EnvironmentModel,
    PlayerParams,
    nash_best_response,
    nash_deviation,
    step_reward,
)
from consensusgame.cli import main as cli_main
from consensusgame.consensus import (
    ConsensusError,
    InfluenceMatrix,
    deviation_disutility,
    influence_weights,
    strategic_update,
)
from consensusgame.harness import (
    CONVERGENCE_TOL,
    Scenario,
    ScenarioError,
    SimulationTrace,
    core_emptiness_verdict,
    dump_trace,
    experiment_core_emptiness,
    experiment_efficiency,
    experiment_po_sweep,
    load_scenario,
    nash_players,
    parse_trace,
    po_sweep_verdict,
    quadratic_truth,
    random_primitive_influence,
    read_trace,
    run_simulation,
    scenario_from_dict,
    trace_chunks,
    trace_header,
    truth_spec,
)
from consensusgame.setfn import (
    GATHER_CHUNK_BYTES,
    SetFunction,
    SetFunctionError,
    dump_setfn,
    is_supermodular,
    random_supermodular,
    round_candidates,
    sample_opinion_streams,
    stream_opinions,
)
from consensusgame.shapley import shapley_linear_form
from test_byte_contract import RATIONAL, TRACE

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# n = 8, all R-learning, horizon 100: the document the learn benchmark simulates
LEARN = {**TRACE, "n": 8, "players": TRACE["players"][:1] * 8}
README = Path(__file__).resolve().parent.parent / "README.md"

DEMO_W = np.array([[0.3, 0.7], [0.4, 0.6]])
OVERFLOW_W = [[0.0, 1.0], [0.5, 0.5]]  # primitive, with a zero in player 0's column


def demo_opinions():
    return (
        SetFunction.from_restricted(2, [0.7, 0.1], 1.0),
        SetFunction.from_restricted(2, [0.3, 0.5], 1.0),
    )


def mixed_scenario(n: int, seed: int, horizon: int) -> Scenario:
    """A random game whose first player learns and whose others cycle
    through the R-learning, Nash and truthful strategies."""
    rng = np.random.default_rng([seed, n])
    kinds = ("rlearning", "nash", "truthful")
    players = tuple(
        PlayerParams(
            risk_aversion=float(rng.uniform(0.5, 50.0)),
            kind=kinds[(i + seed) % 3] if i else "rlearning",
            exploit_prob=float(rng.uniform(0.1, 0.9)),
            explore_std=float(rng.choice([1e-4, 1e-2])),
            explore_decay=0.99,
        )
        for i in range(n)
    )
    return Scenario(
        kind="simulate",
        n=n,
        theta=0.1,
        horizon=horizon,
        seed=seed,
        influence=random_primitive_influence(n, rng),
        initial_opinions=tuple(random_supermodular(n, rng) for _ in range(n)),
        players=players,
    )


def edge_lineup_scenario() -> Scenario:
    """n = 6: learners at the edges of exploration (exploit_prob 0 and 1,
    explore_std 0) between Nash and truthful players."""
    players = (
        PlayerParams(2.0, "nash"),
        PlayerParams(3.0, "rlearning", exploit_prob=0.0, explore_std=1e-3, explore_decay=0.99),
        PlayerParams(5.0, "truthful"),
        PlayerParams(7.0, "rlearning", exploit_prob=1.0, explore_std=1e-2),
        PlayerParams(11.0, "rlearning", exploit_prob=0.3, explore_std=0.0),
        PlayerParams(13.0, "nash"),
    )
    return dataclasses.replace(mixed_scenario(6, 3, horizon=60), players=players)


def base_scenario(**kw) -> Scenario:
    defaults = dict(
        kind="simulate",
        n=2,
        theta=0.1,
        horizon=400,
        seed=11,
        influence=DEMO_W,
        initial_opinions=demo_opinions(),
        players=(PlayerParams(1.0, "truthful"), PlayerParams(1.0, "truthful")),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestRunSimulation:
    def test_truthful_agents_reach_the_weighted_consensus(self):
        trace = run_simulation(base_scenario(horizon=3000))
        assert trace.converged_at is not None
        np.testing.assert_allclose(
            trace.opinions[-1], [[4.9 / 11.0, 3.9 / 11.0]] * 2, atol=1e-8
        )
        np.testing.assert_allclose(trace.average[-1], [4.9 / 11.0, 3.9 / 11.0], atol=1e-8)

    def test_rational_lineup_keeps_average_constant(self):
        inf = InfluenceMatrix.from_matrix(DEMO_W)
        trace = run_simulation(
            base_scenario(players=nash_players(2, inf.t, 1.0), horizon=250)
        )
        drift = np.max(np.abs(trace.average - trace.average[0]))
        assert drift < 1e-12
        np.testing.assert_allclose(trace.deviations[0, 0], [0.06875, -0.06875], atol=1e-15)

    def test_zero_horizon_records_initial_state_only(self):
        trace = run_simulation(base_scenario(horizon=0))
        assert trace.steps == 0
        assert trace.opinions.shape == (1, 2, 2)
        assert trace.revealed.shape == (0, 2, 2)
        # allocation of the initial average (4.9/11, 3.9/11)
        expected = 0.5 + 0.5 * (4.9 - 3.9) / 11.0
        np.testing.assert_allclose(trace.shapley[0], [expected, 1 - expected], atol=1e-12)

    def test_shapley_column_tracks_average_opinion(self):
        trace = run_simulation(base_scenario(horizon=40))
        form_offset = 0.5
        for k in range(trace.steps + 1):
            expected = form_offset + np.array(
                [
                    0.5 * trace.average[k][0] - 0.5 * trace.average[k][1],
                    -0.5 * trace.average[k][0] + 0.5 * trace.average[k][1],
                ]
            )
            np.testing.assert_allclose(trace.shapley[k], expected, atol=1e-12)

    def test_requires_normalized_opinions(self):
        bad = (
            SetFunction.from_restricted(2, [0.7, 0.1], 2.0),
            SetFunction.from_restricted(2, [0.3, 0.5], 1.0),
        )
        with pytest.raises(ScenarioError, match="normalized"):
            run_simulation(base_scenario(initial_opinions=bad))

    def test_rewards_and_disutility_are_consistent(self):
        inf = InfluenceMatrix.from_matrix(DEMO_W)
        trace = run_simulation(
            base_scenario(players=nash_players(2, inf.t, 1.0), horizon=5)
        )
        rows = shapley_linear_form(2).rows
        for k in range(trace.steps):
            u = trace.deviations[k]
            assert trace.disutility[k] == pytest.approx(
                deviation_disutility(u, inf.t), abs=1e-15
            )
            for i in range(2):
                expected = step_reward(u, inf.t, float(inf.t[i]), 0.1, rows[i])
                assert trace.rewards[k, i] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 701])
    def test_learner_loop_matches_per_player_reference(self, n, seed):
        self._matches_reference(mixed_scenario(n, seed, horizon=60))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("lineup", ["nash", "truthful"])
    def test_convergence_cut_matches_per_player_reference(self, n, seed, lineup):
        # without explorers the runs converge well inside the horizon, so the
        # trace is cut at convergence
        scenario = mixed_scenario(n, seed, horizon=3000)
        t = scenario.influence.t
        players = {
            "nash": nash_players(n, t, 1.0),
            "truthful": (PlayerParams(1.0, "truthful"),) * n,
        }[lineup]
        trace = self._matches_reference(dataclasses.replace(scenario, players=players))
        assert trace.converged_at is not None

    @pytest.mark.parametrize("horizon, converged_at", [(3000, 168), (168, 168), (167, None)])
    def test_convergence_cut_of_the_base_game_matches_per_player_reference(self, horizon, converged_at):
        # the base game stops at step 168 when its horizon allows
        trace = self._matches_reference(base_scenario(horizon=horizon))
        assert (trace.steps, trace.converged_at) == (min(horizon, 168), converged_at)

    def test_control_run_across_derivation_blocks_matches_per_player_reference(self):
        # equal risk aversion under unequal influence: the average drifts on,
        # so the run takes its whole horizon, many derivation blocks long
        n = 9
        scenario = mixed_scenario(n, 1, horizon=200)
        scenario = dataclasses.replace(scenario, players=nash_players(n, np.ones(n), 1.0))
        trace = self._matches_reference(scenario)
        assert trace.converged_at is None and trace.steps == 200
        block = harness.GATHER_CHUNK_BYTES // (8 * n * trace.m)  # steps per block
        assert -(-(trace.steps + 1) // block) >= 7

    def test_control_run_holds_no_block_of_lies_or_reveals(self):
        # a lineup with no learner keeps its lies once, so the run's peak is
        # its opinions and average plus the derivation's temporaries: a
        # (steps, n, m) block of lies or revealed opinions would not fit
        n = 9
        scenario = mixed_scenario(n, 1, horizon=200)
        scenario = dataclasses.replace(scenario, players=nash_players(n, np.ones(n), 1.0))
        run_simulation(scenario)  # the Shapley form is cached once per n
        tracemalloc.start()
        try:
            trace = run_simulation(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.steps == 200 and not trace.deviations.flags.writeable
        assert peak < trace.opinions.nbytes + trace.average.nbytes + 2 * GATHER_CHUNK_BYTES, peak

    @pytest.mark.parametrize("kind", ["nash", "rlearning"])
    @pytest.mark.parametrize("liar", [0, 1])
    def test_a_lie_that_overflows_is_refused_at_the_first_step(self, monkeypatch, liar, kind):
        # only v_next is checked: player 0's infinite lie meets a zero weight
        # in W's first row, so it reaches v_next there as 0 * inf; a learner's
        # lie overflows as it is formed, which must not warn either
        steps = []

        def counted(*args, **kw):
            steps.append(args)
            return strategic_update(*args, **kw)

        monkeypatch.setattr(harness, "strategic_update", counted)
        players = [PlayerParams(0.6363636363636364, "nash")] * 2
        players[liar] = PlayerParams(1e-310, kind)
        scenario = base_scenario(influence=OVERFLOW_W, players=tuple(players))
        with pytest.raises(SetFunctionError, match="^payoff values must be finite$"):
            run_simulation(scenario)
        assert len(steps) == 1

    def test_a_finite_step_whose_change_overflows_runs_on(self):
        # v_next stays finite while v_next - v overflows to -inf on coalition
        # {0}: the residual is inf, the second pass finds v_next finite, and
        # the run takes its whole horizon without a warning
        opinions = (
            SetFunction.from_restricted(2, [1.7e308, 0.0], 1.0),
            SetFunction.from_restricted(2, [-1.7e308, 0.0], 1.0),
        )
        scenario = base_scenario(
            influence=[[0.01, 0.99], [0.99, 0.01]],
            theta=0.9,
            horizon=5,
            initial_opinions=opinions,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_simulation(scenario)
        assert trace.steps == 5 and trace.converged_at is None
        assert np.isfinite(trace.opinions).all()
        with np.errstate(over="ignore"):  # the reference's residual overflows too
            assert np.isinf(trace.opinions[1, 0, 0] - trace.opinions[0, 0, 0])
            self._matches_reference(scenario)

    def test_lies_kept_once_are_priced_once_across_derivation_blocks(self, monkeypatch):
        # the control lineup drifts on, so the run takes its whole horizon,
        # many derivation blocks long
        n = 5
        scenario = mixed_scenario(n, 2, horizon=40)
        scenario = dataclasses.replace(scenario, players=nash_players(n, np.ones(n), 1.0))
        per_step = 8 * n * 30  # bytes of one (n, m) profile at n = 5
        monkeypatch.setattr(harness, "GATHER_CHUNK_BYTES", 4 * per_step - 1)
        priced = []

        def spy(deviations, t):
            priced.append(len(deviations))
            return deviation_disutility(deviations, t)

        monkeypatch.setattr(harness, "deviation_disutility", spy)
        trace = self._matches_reference(scenario)
        assert trace.steps == 40 and trace.converged_at is None
        assert -(-(trace.steps + 1) // 3) > 10  # blocks of 3 steps
        assert priced == [1]  # the reference prices its own steps, unseen by the spy

    @pytest.mark.parametrize("kind, built", [("nash", 0), ("truthful", 0), ("rlearning", 1)])
    def test_the_dynamics_generator_is_built_only_for_learners(self, monkeypatch, kind, built):
        calls = []
        default_rng = np.random.default_rng

        def counted(*args):
            calls.append(args)
            return default_rng(*args)

        scenario = base_scenario(horizon=5, players=(PlayerParams(1.0, kind),) * 2)
        monkeypatch.setattr(np.random, "default_rng", counted)
        run_simulation(scenario)
        assert calls == [(scenario.seed,)] * built

    def test_derivation_blocks_read_the_chunk_size_at_call_time(self, monkeypatch):
        scenario = mixed_scenario(5, 2, horizon=40)
        per_step = 8 * 5 * 30  # bytes of one (n, m) profile at n = 5
        monkeypatch.setattr(harness, "GATHER_CHUNK_BYTES", 4 * per_step - 1)
        blocks = []

        def spy(deviations, t):
            blocks.append(len(deviations))
            return deviation_disutility(deviations, t)

        monkeypatch.setattr(harness, "deviation_disutility", spy)
        trace = self._matches_reference(scenario)
        steps = trace.steps
        assert blocks == [len(range(lo, min(lo + 3, steps))) for lo in range(0, steps + 1, 3)]
        assert len(blocks) > 10

    @staticmethod
    def _matches_reference(scenario):
        trace = run_simulation(scenario)
        reference, revealed, converged_at = reference_simulation(scenario)
        assert (trace.steps, trace.converged_at) == (reference.steps, converged_at)
        for name in TRACE_ARRAYS:
            want = revealed if name == "revealed" else getattr(reference, name)
            assert np.array_equal(getattr(trace, name), want), name
        return trace

    def test_one_gain_downdate_per_step(self, monkeypatch):
        # one update per step, from the step's one weighing of its state
        calls, weighed = [], []
        original, weigh = EnvironmentModel.update, EnvironmentModel.weigh

        def counted(model, weights, errors):
            calls.append(id(model))
            return original(model, weights, errors)

        def counted_weigh(model, state):
            weighed.append(id(model))
            return weigh(model, state)

        monkeypatch.setattr(EnvironmentModel, "update", counted)
        monkeypatch.setattr(EnvironmentModel, "weigh", counted_weigh)
        players = tuple(PlayerParams(1.0, "rlearning", explore_std=0.01) for _ in range(4))
        rng = np.random.default_rng(3)
        trace = run_simulation(
            base_scenario(
                n=4,
                horizon=20,
                influence=random_primitive_influence(4, rng),
                initial_opinions=tuple(random_supermodular(4, rng) for _ in range(4)),
                players=players,
            )
        )
        assert len(calls) == len(weighed) == trace.steps == 20
        assert len(set(calls + weighed)) == 1

    @pytest.mark.parametrize(
        "scenario",
        [scenario_from_dict(LEARN), mixed_scenario(7, 1, horizon=60), edge_lineup_scenario()],
        ids=["learn", "mixed-n7-h60", "edge-lineup"],
    )
    def test_wide_runs_match_the_per_player_reference(self, scenario):
        # the learn benchmark's input (n = 8, m = 254) and a mixed lineup at
        # n = 7 (m = 126): wider states than the n = 2..6 runs above; and
        # learners that always explore, never explore, or explore with no
        # noise, between Nash and truthful players
        self._matches_reference(scenario)

    def test_every_lineup_gets_one_model_for_its_whole_horizon(self, monkeypatch):
        # one model per run, sized by the scenario alone: m, the R-learner
        # count and the horizon, on either side of the old 2 * horizon <= m
        # line between the dense and sample-space forms
        built = []

        def spy(dim, learners, horizon):
            built.append((dim, learners, horizon))
            return EnvironmentModel(dim, learners, horizon)

        monkeypatch.setattr(harness, "EnvironmentModel", spy)
        for name in ("two_player_learning_gamma05.json", "two_player_learning_gamma08.json"):
            run_simulation(load_scenario(SCENARIOS / name))
        run_simulation(scenario_from_dict(TRACE))
        run_simulation(scenario_from_dict(LEARN))
        run_simulation(scenario_from_dict({**LEARN, "horizon": 128}))
        run_simulation(mixed_scenario(7, 1, horizon=60))
        assert built == [(2, 2, 500), (2, 2, 500), (62, 6, 100), (254, 8, 100), (254, 8, 128), (126, 3, 60)]

    def test_memory_refusal_reads_the_shared_physical_memory_figure(self, monkeypatch):
        scenario = load_scenario(SCENARIOS / "two_player_learning_gamma05.json")
        # (2h + 1) n m + (h + 1)(m + n) + h (n + 1) floats at n = m = 2, h = 500
        nbytes = 8 * (15 * 500 + 8)
        monkeypatch.setattr(setfn, "physical_memory", lambda: nbytes - 1)
        with pytest.raises(ScenarioError, match=rf"^horizon: .* would take {nbytes} bytes"):
            run_simulation(scenario)
        monkeypatch.setattr(setfn, "physical_memory", lambda: nbytes)
        assert run_simulation(scenario).steps == 500

    def test_horizon_beyond_physical_memory_rejected_before_allocating(self):
        raw = json.loads((SCENARIOS / "two_player_learning_gamma05.json").read_text())
        scenario = scenario_from_dict({**raw, "horizon": 10**12})
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=r"^horizon: .* bytes") as excinfo:
                run_simulation(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # (2h + 1) n m + (h + 1)(m + n) + h (n + 1) floats at n = m = 2
        assert str(8 * (15 * 10**12 + 8)) in str(excinfo.value)


TRACE_ARRAYS = ("opinions", "revealed", "deviations", "average", "shapley", "rewards", "disutility")


def reference_simulation(scenario: Scenario):
    """The dynamics loop written per player: each step a truthful player lies
    by zero and a Nash player by `nash_deviation`, every learner keeps a
    private one-learner opponent model and draws its own uniform, then its
    noise row when it explores, around its `nash_best_response`, and every
    reward comes from a one-player `step_reward`.  Returns the trace and,
    apart, the revealed opinions x = v + u each step formed and the step
    the loop stopped at on convergence (None when it ran to the horizon)."""
    n = scenario.n
    theta = scenario.theta
    influence = InfluenceMatrix.from_matrix(scenario.influence.w)  # solved apart from the run
    t = influence.t
    form = shapley_linear_form(n)
    m = form.rows.shape[1]
    models = {
        i: EnvironmentModel(m, 1, scenario.horizon)
        for i, params in enumerate(scenario.players)
        if params.kind == "rlearning"
    }
    predictions = {}

    def lie(i, params, state, k, rng):
        if params.kind == "rlearning":
            predictions[i] = models[i].predict(models[i].weigh(state))[0]
            others = (1.0 - t[i]) * predictions[i]
            action = nash_best_response(form.rows[i], theta, params.risk_aversion, t[i], others)
            if rng.uniform() >= params.exploit_prob and params.explore_std > 0:
                scale = params.explore_std * params.explore_decay**k
                action = action + rng.normal(0.0, scale, size=m)
            return action
        if params.kind == "nash":
            return nash_deviation(form.rows[i], theta, params.risk_aversion)
        return np.zeros(m)

    rng = np.random.default_rng(scenario.seed)
    v = np.stack([f.values for f in scenario.initial_opinions])
    state = np.zeros(v.shape[1] - 2)
    out = {name: [] for name in TRACE_ARRAYS}
    converged_at = None

    def snapshot(v):
        out["opinions"].append(v[:, 1:-1].copy())
        out["average"].append(t @ out["opinions"][-1])
        out["shapley"].append(form.apply_restricted(out["average"][-1]))

    snapshot(v)
    for k in range(scenario.horizon):
        us = np.stack(
            [lie(i, params, state, k, rng) for i, params in enumerate(scenario.players)]
        )
        x = v.copy()
        x[:, 1:-1] += us
        v = strategic_update(v, x, influence.w, theta)
        rewards = [
            step_reward(us, t, params.risk_aversion, theta, form.rows[i])
            for i, params in enumerate(scenario.players)
        ]
        mean_dev = t @ us
        for i, model in models.items():
            target = (mean_dev - t[i] * us[i]) / (1.0 - t[i])
            model.update(model.weigh(state), [target - predictions[i]])
        out["revealed"].append(x[:, 1:-1])
        out["deviations"].append(us)
        out["rewards"].append(rewards)
        out["disutility"].append(deviation_disutility(us, t))
        state = t @ x[:, 1:-1]
        snapshot(v)
        if np.max(np.abs(out["opinions"][-1] - out["opinions"][-2])) < CONVERGENCE_TOL:
            converged_at = k + 1
            break
    arrays = {name: np.array(rows, dtype=float) for name, rows in out.items()}
    steps = len(out["disutility"])
    trace = SimulationTrace(
        opinions=arrays["opinions"],
        deviations=arrays["deviations"].reshape(steps, n, m),
        average=arrays["average"],
        shapley=arrays["shapley"],
        rewards=arrays["rewards"].reshape(steps, n),
        disutility=arrays["disutility"],
    )
    return trace, arrays["revealed"].reshape(steps, n, m), converged_at


def reference_dump(trace: SimulationTrace) -> str:
    """The trace CSV written one row and one element at a time: the byte
    oracle for dump_trace and for the CLI's streamed file writer."""

    def fmt(x) -> str:
        return repr(float(x))

    n, m, steps = trace.n, trace.m, trace.steps
    cum = trace.cumulative_disutility()
    blank_agg = [""] * (m + 2 * n + 2)
    lines = [trace_header(n, m)]
    for k in range(steps + 1):
        acted = k < steps
        for i in range(n):
            for e in range(m):
                row = [
                    "opinion",
                    str(k),
                    str(i),
                    str(e),
                    fmt(trace.opinions[k, i, e]),
                    fmt(trace.revealed[k, i, e]) if acted else "",
                    fmt(trace.deviations[k, i, e]) if acted else "",
                ]
                lines.append(",".join(row + blank_agg))
        agg = ["aggregate", str(k), "", "", "", "", ""]
        agg += [fmt(x) for x in trace.average[k]]
        agg += [fmt(x) for x in trace.shapley[k]]
        agg += [fmt(x) for x in trace.rewards[k]] if acted else [""] * n
        agg += [fmt(trace.disutility[k]) if acted else "", fmt(cum[k])]
        lines.append(",".join(agg))
    return "\n".join(lines) + "\n"


def _oracle_traces():
    for n in (2, 3, 6, 8):
        for seed in (1, 2, 701):
            horizon = 4 if n == 8 else 20
            yield f"mixed-n{n}-s{seed}", lambda n=n, seed=seed, h=horizon: run_simulation(
                mixed_scenario(n, seed, h)
            )
    yield "horizon-0", lambda: run_simulation(mixed_scenario(3, 1, 0))
    # the base game converges at step 168: cut there, run to it, and one short
    for horizon in (3000, 168, 167):
        yield f"base-h{horizon}", lambda h=horizon: run_simulation(base_scenario(horizon=h))
    for name in ("two_player_learning_gamma05", "two_player_learning_gamma08"):
        yield name, lambda name=name: run_simulation(load_scenario(SCENARIOS / f"{name}.json"))


ORACLE_TRACES = dict(_oracle_traces())


def _cell(line: str, col: int, value: str) -> str:
    cells = line.split(",")
    cells[col] = value
    return ",".join(cells)


# edits of the gamma05 trace lines (header, four opinion rows and one
# aggregate row per step), each with the error it must raise
MALFORMED_TRACES = {
    "dropped-opinion-row": (
        lambda L: L[:7] + L[8:],
        r"^trace line 8: expected the opinion row for k=1, player=0, entry=1$",
    ),
    "dropped-aggregate-row": (
        lambda L: L[:5] + L[6:],
        r"^trace line 6: expected the aggregate row for k=0$",
    ),
    "truncated-last-step": (
        lambda L: L[:-2],
        r"^trace: no opinion row for k=500, player=1, entry=1$",
    ),
    "entry-minus-one": (
        lambda L: [*L[:6], _cell(L[6], 3, "-1"), *L[7:]],
        r"^trace line 7: expected the opinion row for k=1, player=0, entry=0$",
    ),
    "nan-value": (
        lambda L: [*L[:6], _cell(L[6], 4, "nan"), *L[7:]],
        r"^trace line 7: v: finite number required, got 'nan'$",
    ),
    "duplicated-row": (
        lambda L: [*L[:7], L[6], *L[7:]],
        r"^trace line 8: expected the opinion row for k=1, player=0, entry=1$",
    ),
    "short-row": (
        lambda L: [*L[:6], "opinion,1,0\n", *L[7:]],
        r"^trace line 7: expected the opinion row for k=1, player=0, entry=0$",
    ),
    "short-tail": (
        lambda L: [*L[:6], L[6].replace(",,", ",", 1), *L[7:]],
        r"^trace line 7: opinion rows have 15 fields, the last 8 blank$",
    ),
    "swapped-neighbours": (
        lambda L: [*L[:6], L[7], L[6], *L[8:]],
        r"^trace line 7: expected the opinion row for k=1, player=0, entry=0$",
    ),
    "reversed-body": (
        lambda L: [L[0], *reversed(L[1:])],
        r"^trace line 2: expected the opinion row for k=0, player=0, entry=0$",
    ),
    "k-with-underscore": (
        lambda L: [*L[:6], _cell(L[6], 1, "0_1"), *L[7:]],
        r"^trace line 7: expected the opinion row for k=1, player=0, entry=0$",
    ),
    "long-aggregate-row": (
        lambda L: [*L[:5], L[5].replace("\n", ",\n"), *L[6:]],
        r"^trace line 6: aggregate rows have 15 fields$",
    ),
    "blank-acted-x": (
        lambda L: [*L[:6], _cell(L[6], 5, ""), *L[7:]],
        r"^trace line 7: x: finite number required, got ''$",
    ),
    "final-step-x-filled": (
        lambda L: [*L[:-2], _cell(L[-2], 5, "0.5"), L[-1]],
        r"^trace line 2505: x: blank on the final step 500 required, got '0.5'$",
    ),
    "final-step-reward-filled": (
        lambda L: [*L[:-1], _cell(L[-1], 11, "0.5")],
        r"^trace line 2506: reward_0: blank on the final step 500 required, got '0.5'$",
    ),
    "header-vhat-count": (
        lambda L: [trace_header(2, 3) + "\n", *L[1:]],
        r"^unrecognized trace header$",
    ),
    "abc-value": (
        lambda L: [*L[:6], _cell(L[6], 5, "abc"), *L[7:]],
        r"^trace line 7: x: finite number required, got 'abc'$",
    ),
    "empty-file": (lambda L: [], r"^empty trace file$"),
    # the writer derives x as v + u and cum_disutility as the running sum of
    # the disutility column, so any other value is not one it wrote
    "x-moved-by-half": (
        lambda L: [*L[:6], _cell(L[6], 5, "1.172019425565081"), *L[7:]],
        r"^trace line 7: x: v \+ u = 0\.672019425565081 required, got '1\.172019425565081'$",
    ),
    "cum-disutility-raised-by-one": (
        lambda L: [*L[:10], _cell(L[10], 14, "1.0000000017043096\n"), *L[11:]],
        r"^trace line 11: cum_disutility: the running sum of disutility = 1\.7043096565911424e-09"
        r" required, got '1\.0000000017043096'$",
    ),
}


def _read_back(reader: str, text: str, tmp_path) -> SimulationTrace:
    """parse_trace of the text, or read_trace of it written to a file."""
    if reader == "parse_trace":
        return parse_trace(text)
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    return read_trace(path)


@functools.cache
def _long_trace() -> tuple[SimulationTrace, str]:
    """An n = 6 run of 39 steps and its CSV, about 2.2 MB: ten read blocks of
    four steps, the last of them steps 36 to 39."""
    trace = run_simulation(mixed_scenario(6, 1, 39))
    assert trace.steps == 39
    return trace, dump_trace(trace)


@functools.cache
def _bench_trace() -> tuple[SimulationTrace, str]:
    """The trace benchmark's run, n = 6 R-learners over 100 steps, and its
    CSV, about 6 MB."""
    trace = run_simulation(scenario_from_dict(TRACE))
    return trace, dump_trace(trace)


def _synthetic_trace(n: int, steps: int) -> SimulationTrace:
    """A trace of random finite arrays, which the writer and reader take as
    they take a run's."""
    rng = np.random.default_rng([n, steps])
    m = harness.num_restricted(n)
    return SimulationTrace(
        opinions=rng.random((steps + 1, n, m)),
        deviations=rng.normal(0.0, 1e-3, (steps, n, m)),
        average=rng.random((steps + 1, m)),
        shapley=rng.random((steps + 1, n)),
        rewards=rng.normal(size=(steps, n)),
        disutility=rng.random(steps),
    )


# one defect in the last block of the long trace, for each kind of check
LAST_BLOCK_DEFECTS = ("misplaced-row", "nonfinite-v", "x-not-v-plus-u", "cum-not-running-sum")


class TestTraceRoundTrip:
    @pytest.mark.parametrize("name", ORACLE_TRACES)
    def test_dump_and_emit_match_the_reference_formatter(self, name, tmp_path):
        trace = ORACLE_TRACES[name]()
        expected = reference_dump(trace)
        assert dump_trace(trace) == expected
        cli._write(argparse.Namespace(out=str(tmp_path / "trace.csv")), trace_chunks(trace))
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode()
        again = parse_trace(expected)
        derived = ("n", "steps", "converged_at")
        assert [getattr(again, a) for a in derived] == [getattr(trace, a) for a in derived]
        for array in TRACE_ARRAYS:
            assert np.array_equal(getattr(again, array), getattr(trace, array)), array

    @pytest.mark.parametrize("reader", ["parse_trace", "read_trace"])
    @pytest.mark.parametrize("fault", MALFORMED_TRACES)
    def test_malformed_trace_is_rejected_naming_the_line_or_row(self, fault, reader, tmp_path):
        edit, message = MALFORMED_TRACES[fault]
        lines = dump_trace(ORACLE_TRACES["two_player_learning_gamma05"]()).splitlines(keepends=True)
        with pytest.raises(ScenarioError, match=message):
            _read_back(reader, "".join(edit(lines)), tmp_path)

    @pytest.mark.parametrize("reader", ["parse_trace", "read_trace"])
    @pytest.mark.parametrize("edit", ["drop", "repeat", "swap"])
    def test_any_dropped_repeated_or_swapped_row_is_rejected(self, edit, reader, tmp_path):
        header, *body = dump_trace(run_simulation(base_scenario(horizon=3))).splitlines(True)
        assert len(body) == 4 * 5
        for j in range(len(body) - (edit == "swap")):
            if edit == "drop":
                edited = body[:j] + body[j + 1 :]
            elif edit == "repeat":
                edited = body[: j + 1] + body[j:]
            else:
                edited = body[:j] + [body[j + 1], body[j]] + body[j + 2 :]
            with pytest.raises(ScenarioError, match=r"^trace( line \d+)?: "):
                _read_back(reader, header + "".join(edited), tmp_path)

    @staticmethod
    def _count_blocks(monkeypatch) -> list:
        """The first step of each block read, as it is read."""
        firsts, parse_steps = [], harness._parse_steps

        def spy(body, lo, *rest):
            firsts.append(lo)
            return parse_steps(body, lo, *rest)

        monkeypatch.setattr(harness, "_parse_steps", spy)
        return firsts

    @pytest.mark.parametrize("reader", ["parse_trace", "read_trace"])
    def test_a_trace_of_several_blocks_reads_back_bit_for_bit(self, reader, tmp_path, monkeypatch):
        trace, text = _long_trace()
        firsts = self._count_blocks(monkeypatch)
        again = _read_back(reader, text, tmp_path)
        assert len(firsts) >= 3, firsts
        for array in TRACE_ARRAYS:
            assert np.array_equal(getattr(again, array), getattr(trace, array)), array

    @pytest.mark.parametrize("reader", ["parse_trace", "read_trace"])
    @pytest.mark.parametrize("defect", LAST_BLOCK_DEFECTS)
    def test_a_defect_in_the_last_block_is_named_at_its_line(
        self, defect, reader, tmp_path, monkeypatch
    ):
        trace, text = _long_trace()
        lines = text.splitlines(keepends=True)
        k, per = 38, trace.n * trace.m + 1  # step 38 is in the last block
        j = 1 + k * per + 5  # lines[j]: step 38's opinion row for player 0, entry 5
        if defect == "misplaced-row":
            lines[j], lines[j + 1] = lines[j + 1], lines[j]
            message = rf"^trace line {j + 1}: expected the opinion row for k=38, player=0, entry=5$"
        elif defect == "nonfinite-v":
            lines[j] = _cell(lines[j], 4, "inf")
            message = rf"^trace line {j + 1}: v: finite number required, got 'inf'$"
        elif defect == "x-not-v-plus-u":
            lines[j] = _cell(lines[j], 5, "0.25")
            want = re.escape(repr(float(trace.revealed[k, 0, 5])))
            message = rf"^trace line {j + 1}: x: v \+ u = {want} required, got '0\.25'$"
        else:
            j = k * per + per  # step 38's aggregate row
            lines[j] = _cell(lines[j], -1, "0.25\n")
            want = re.escape(repr(float(trace.cumulative_disutility()[k])))
            message = (
                rf"^trace line {j + 1}: cum_disutility: the running sum of disutility = {want}"
                r" required, got '0\.25'$"
            )
        firsts = self._count_blocks(monkeypatch)
        with pytest.raises(ScenarioError, match=message):
            _read_back(reader, "".join(lines), tmp_path)
        # the block the reader stopped in starts by step k and runs to the final step
        assert len(firsts) >= 3 and firsts[-1] <= k < trace.steps < firsts[-1] + firsts[1], firsts

    def test_a_bad_byte_past_the_first_batch_is_named_at_its_offset(self, tmp_path):
        data = bytearray(_long_trace()[1].encode())
        at = 2_000_000
        assert at > GATHER_CHUNK_BYTES
        data[at] = 0xFF
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        with pytest.raises(ScenarioError) as info:
            read_trace(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte at byte {at}"

    def test_a_crlf_copy_reads_back_the_same_arrays(self, tmp_path, monkeypatch):
        trace = ORACLE_TRACES["two_player_learning_gamma05"]()
        crlf = dump_trace(trace).replace("\n", "\r\n").encode()
        # a read batch ends between a \r and its \n unless the reader reads on to the newline
        batch = crlf.index(b"\r\n", 3000) + 1
        monkeypatch.setattr(harness, "GATHER_CHUNK_BYTES", harness.OBJECT_BYTES_PER_TEXT_BYTE * batch)
        path = tmp_path / "trace.csv"
        path.write_bytes(crlf)
        again = read_trace(path)
        for array in TRACE_ARRAYS:
            assert np.array_equal(getattr(again, array), getattr(trace, array)), array

    @pytest.mark.parametrize(
        "defect, message",
        [
            (lambda b: b.replace(b"\nopinion,0,0,0,", b"\nopinion,0,0,9,", 1), "trace line 2: "),
            (lambda b: b[:2_000_000] + b"\xff" + b[2_000_001:], "not UTF-8 text"),
            (lambda b: b"kinds" + b[4:], "unrecognized trace header"),
        ],
        ids=["early-row", "late-byte", "header"],
    )
    def test_a_refused_file_is_closed(self, defect, message, tmp_path, monkeypatch):
        # the reader is left part way through the file; its handle must not be
        opened = []

        def spy(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(harness, "open", spy, raising=False)
        path = tmp_path / "trace.csv"
        path.write_bytes(defect(_long_trace()[1].encode()))
        with pytest.raises(ScenarioError, match=message):
            read_trace(path)
        assert len(opened) == 1 and opened[0].closed

    @given(text=st.text("ab,\r\n\v\f\x1c\x85 "), batch=st.integers(1, 8))
    def test_a_text_split_a_batch_at_a_time_gives_the_lines_of_splitlines(self, text, batch):
        # a batch ends just after a \n, so no line boundary, \r\n included, spans two
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "GATHER_CHUNK_BYTES", harness.OBJECT_BYTES_PER_TEXT_BYTE * batch)
            assert list(harness._text_lines(text)) == text.splitlines()

    @pytest.mark.parametrize("reader", ["parse_trace", "read_trace"])
    def test_the_benchmark_trace_reads_in_a_gather_chunk_beyond_its_floats(self, reader, tmp_path):
        # a batch's and a block's objects fit GATHER_CHUNK_BYTES, so at default
        # settings reading takes at most that beyond the floats, which are
        # held twice while their blocks are joined
        trace, text = _bench_trace()
        floats = sum(a.nbytes for a in vars(trace).values())
        path = tmp_path / "trace.csv"
        path.write_bytes(text.encode())
        tracemalloc.start()
        try:
            again = parse_trace(text) if reader == "parse_trace" else read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.opinions, trace.opinions)
        assert peak <= 2 * floats + GATHER_CHUNK_BYTES, peak

    def test_memory_beyond_the_floats_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # with 64 KiB chunks both files span several blocks; writing holds one
        # step's text, and reading one block's plus the floats twice (each
        # block's and their concatenation), so neither grows from 100 to 800
        # steps, where holding the CSV text or its cells whole takes megabytes more
        monkeypatch.setattr(harness, "GATHER_CHUNK_BYTES", 1 << 16)
        path, peaks = tmp_path / "trace.csv", {}
        for steps in (100, 800):
            trace = _synthetic_trace(3, steps)
            floats = sum(a.nbytes for a in vars(trace).values())
            tracemalloc.start()
            try:
                cli._write(argparse.Namespace(out=str(path)), trace_chunks(trace))
                written = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                again = read_trace(path)
                read = tracemalloc.get_traced_memory()[1] - 2 * floats
            finally:
                tracemalloc.stop()
            assert np.array_equal(again.opinions, trace.opinions)
            peaks[steps] = written, read
        margin = 1 << 18
        assert peaks[800][0] - peaks[100][0] < margin, peaks
        assert peaks[800][1] - peaks[100][1] < margin, peaks

    def test_trace_file_that_is_not_utf8_is_rejected_naming_it(self, tmp_path):
        # no subcommand reads a trace, so read_trace is checked directly
        path = tmp_path / "trace.csv"
        path.write_bytes(trace_header(2, 2).encode() + b"\n\xff\n")
        with pytest.raises(ScenarioError) as info:
            read_trace(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte at byte 104"

    def _trace(self):
        inf = InfluenceMatrix.from_matrix(DEMO_W)
        players = (
            PlayerParams(
                risk_aversion=float(inf.t[0]),
                kind="rlearning",
                exploit_prob=0.5,
                explore_std=0.01,
            ),
            PlayerParams(risk_aversion=float(inf.t[1]), kind="nash"),
        )
        return run_simulation(base_scenario(players=players, horizon=12))

    def test_row_counts_match_the_contract(self):
        trace = self._trace()
        text = dump_trace(trace)
        lines = text.strip().splitlines()
        k, n, m = trace.steps, trace.n, trace.m
        assert len(lines) == 1 + (k + 1) * n * m + (k + 1)

    def test_header_only_file_is_refused(self):
        # every run writes step 0's rows, so a file without them is no trace
        with pytest.raises(ScenarioError, match=r"^trace: no opinion row for k=0, player=0, entry=0$"):
            parse_trace(trace_header(2, 2) + "\n")

    def test_the_arrays_are_the_only_fields(self):
        fields = [f.name for f in dataclasses.fields(SimulationTrace)]
        assert fields == ["opinions", "deviations", "average", "shapley", "rewards", "disutility"]

    def test_zero_horizon_trace_still_carries_the_initial_state(self):
        trace = run_simulation(base_scenario(horizon=0))
        lines = dump_trace(trace).strip().splitlines()
        assert len(lines) == 1 + 1 * trace.n * trace.m + 1

    def test_parse_inverts_dump(self):
        trace = self._trace()
        again = parse_trace(dump_trace(trace))
        np.testing.assert_array_equal(again.opinions, trace.opinions)
        np.testing.assert_array_equal(again.revealed, trace.revealed)
        np.testing.assert_array_equal(again.deviations, trace.deviations)
        np.testing.assert_array_equal(again.average, trace.average)
        np.testing.assert_array_equal(again.shapley, trace.shapley)
        np.testing.assert_array_equal(again.rewards, trace.rewards)
        np.testing.assert_array_equal(again.disutility, trace.disutility)

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = SCENARIOS / "two_player_learning_gamma05.json"
        paths = []
        for run in range(2):
            path = tmp_path / f"trace_{run}.csv"
            assert cli_main(["simulate", str(scenario), "--out", str(path)]) == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
        assert paths[0] == reference_dump(run_simulation(load_scenario(scenario))).encode()

    def test_emit_reports_path_on_failure(self, tmp_path, capsys):
        scenario = SCENARIOS / "two_player_learning_gamma05.json"
        path = tmp_path / "no" / "such" / "dir.csv"
        assert cli_main(["simulate", str(scenario), "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err


class TestScenarioLoading:
    def _raw(self, **kw):
        raw = {
            "kind": "simulate",
            "n": 2,
            "theta": 0.1,
            "horizon": 10,
            "seed": 3,
            "influence": [[0.3, 0.7], [0.4, 0.6]],
            "initial_opinions": [
                {"restricted": [0.7, 0.1]},
                {"restricted": [0.3, 0.5]},
            ],
            "players": [
                {"kind": "truthful", "risk_aversion": 1.0},
                {"kind": "truthful", "risk_aversion": 1.0},
            ],
        }
        raw.update(kw)
        return raw

    def test_valid_document_loads(self):
        sc = scenario_from_dict(self._raw())
        assert sc.n == 2 and sc.players[0].kind == "truthful"
        np.testing.assert_allclose(sc.initial_opinions[0].restricted(), [0.7, 0.1])

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_every_shipped_scenario_loads(self, path):
        scenario = load_scenario(path)
        assert scenario.kind == json.loads(path.read_text())["kind"]

    def test_removed_learner_rates_are_unknown_keys(self):
        raw = self._raw()
        raw["players"][0] = {"kind": "rlearning", "risk_aversion": 1.0, "value_rate": 0.1}
        with pytest.raises(ScenarioError, match=r"players\[0\]: unknown keys \['value_rate'\]"):
            scenario_from_dict(raw)

    def test_json_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": "simulate",\n  "n": oops\n}\n')
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(path)

    def test_missing_file_is_refused(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ScenarioError, match=f"^cannot read scenario {path}: "):
            load_scenario(path)

    def test_document_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for seed in (None, 3):
            with pytest.raises(ScenarioError, match=f"^{path}: scenario must be a JSON object$"):
                load_scenario(path, seed=seed)

    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"seed": None}, "seed"),
            ({"theta": 1.5}, "theta"),
            ({"kind": "dance"}, "kind"),
            ({"influence": [[1.0, 0.1], [0.4, 0.6]]}, "influence"),
            # checked and solved once, at load: reducible, periodic (whose
            # weights exist, but whose powers never converge), and rows off 1
            # by more than the consensus tolerance
            ({"influence": [[1, 0], [0, 1]]}, "^<scenario>: influence: W is not primitive"),
            ({"influence": [[1, 0], [0.5, 0.5]]}, "^<scenario>: influence: W is not primitive"),
            (
                {"influence": [[0, 1], [1, 0]]},
                r"^<scenario>: influence: W is not primitive: it is periodic, so the powers W\^k",
            ),
            ({"influence": [[0.3, 0.7 + 5e-10], [0.4, 0.6]]}, "^<scenario>: influence: rows must"),
            ({"players": [{"kind": "truthful", "risk_aversion": 1.0}]}, "players"),
            (
                {
                    "players": [
                        {"kind": "truthful", "risk_aversion": 1.0, "color": "red"},
                        {"kind": "truthful", "risk_aversion": 1.0},
                    ]
                },
                r"players\[0\]",
            ),
            ({"initial_opinions": [{"restricted": [0.7]}, {"restricted": [0.3, 0.5]}]},
             r"initial_opinions\[0\]"),
            ({"initial_opinions": [{"grand": 1.0}, {"restricted": [0.3, 0.5]}]},
             r'^<scenario>: initial_opinions\[0\]: object with "restricted" list required$'),
        ],
    )
    def test_rejections_name_the_offending_key(self, patch, needle):
        raw = self._raw(**patch)
        if patch.get("seed", 0) is None:
            del raw["seed"]
        with pytest.raises(ScenarioError, match=needle):
            scenario_from_dict(raw)

    def test_readme_key_table_matches_the_schemas(self):
        # the "Scenario files" table: one row per key, one column per kind,
        # each cell "required", "optional", "default `<json>`" or "—"
        section = README.read_text(encoding="utf-8").split("## Scenario files")[1]
        section = section.split("\n## ")[0]
        lines = [line for line in section.splitlines() if line.startswith("| ")]
        header, rows = lines[0], lines[1:]
        kinds = [cell.strip() for cell in header.split("|")[2:-2]]
        assert sorted(kinds) == sorted(harness.SCHEMAS)
        table = {}
        for row in rows:
            key, *cells, _ = (cell.strip() for cell in row.split("|")[1:-1])
            table[key.strip("`")] = dict(zip(kinds, cells))
        fields = {f.name: f for f in dataclasses.fields(Scenario)}
        assert set(table) == set(fields) - {"kind"}
        assert set(table) == set().union(*harness.SCHEMAS.values())
        for key, cells in table.items():
            for kind, cell in cells.items():
                spec = harness.SCHEMAS[kind].get(key)
                if spec is None:
                    expected = "—"
                elif spec.required:
                    expected = "required"
                elif fields[key].default is None:
                    expected = "optional"
                else:
                    expected = f"default `{json.dumps(fields[key].default)}`"
                assert cell == expected, (key, kind)

    def test_influence_shape_validated_at_load(self):
        with pytest.raises(ScenarioError, match="influence"):
            scenario_from_dict(self._raw(influence=[[1.0]]))

    def test_influence_given_in_code_is_solved_at_construction_and_kept(self):
        sc = base_scenario()
        assert isinstance(sc.influence, InfluenceMatrix)
        np.testing.assert_array_equal(sc.influence.w, DEMO_W)
        # the experiments' lineups reuse the solved matrix
        lineup = nash_players(2, sc.influence.t, 1.0)
        assert dataclasses.replace(sc, players=lineup).influence is sc.influence
        with pytest.raises(ConsensusError, match="^W is not primitive: it is periodic"):
            base_scenario(influence=[[0, 1], [1, 0]])

    def test_generators_resolve_deterministically(self):
        raw = self._raw(
            influence="random_primitive", initial_opinions="random_supermodular"
        )
        a = scenario_from_dict(raw)
        b = scenario_from_dict(raw)
        np.testing.assert_array_equal(a.influence.w, b.influence.w)
        for fa, fb in zip(a.initial_opinions, b.initial_opinions):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_ground_truth_sampled_opinions_stay_normalized(self):
        raw = self._raw(
            n=3,
            influence="random_primitive",
            initial_opinions={"ground_truth": {"family": "quadratic", "sigma": 0.01}},
            players=[{"kind": "truthful", "risk_aversion": 1.0}] * 3,
        )
        sc = scenario_from_dict(raw)
        truth = quadratic_truth(3)
        for f in sc.initial_opinions:
            assert f.is_normalized()
            assert np.max(np.abs(f.restricted() - truth.restricted())) < 0.1
        run_simulation(sc)  # sampled opinions feed the dynamics directly
        with pytest.raises(ScenarioError, match="sigma"):
            scenario_from_dict(
                self._raw(initial_opinions={"ground_truth": {"sigma": -1}})
            )


class TestExperiments:
    def test_single_player_efficiency_is_flagged_degenerate(self):
        sc = Scenario(
            kind="efficiency",
            n=1,
            theta=0.1,
            horizon=10,
            seed=1,
            influence=np.ones((1, 1)),
            initial_opinions=(SetFunction(1, np.array([0.0, 1.0])),),
        )
        report = experiment_efficiency(sc)
        assert report["degenerate"] and report["pass"]
        assert report["drift"] == 0.0

    def test_efficiency_report_passes_with_proportional_risk(self):
        rng = np.random.default_rng(8)
        n = 3
        sc = Scenario(
            kind="efficiency",
            n=n,
            theta=0.1,
            horizon=200,
            seed=8,
            influence=random_primitive_influence(n, rng),
            initial_opinions=tuple(
                random_supermodular(n, np.random.default_rng([8, i])) for i in range(n)
            ),
            p_o=1.0,
        )
        report = experiment_efficiency(sc)
        assert report["pass"]
        assert report["drift"] < 1e-9
        assert report["control_drift"] > 1e-6

    def test_po_sweep_spread_scales_inversely(self):
        rng = np.random.default_rng(9)
        n = 3
        sc = Scenario(
            kind="po-sweep",
            n=n,
            theta=0.5,
            horizon=5000,
            seed=9,
            influence=random_primitive_influence(n, rng),
            initial_opinions=tuple(
                random_supermodular(n, np.random.default_rng([9, i])) for i in range(n)
            ),
            po_values=(0.1, 1.0, 10.0, 100.0),
        )
        rows = experiment_po_sweep(sc)
        spreads = [r["spread"] for r in rows]
        for a, b in zip(spreads, spreads[1:]):
            assert b <= a * (1 + 1e-9)
        assert not rows[-1]["bayesian_core_empty"]
        assert all(r["converged"] for r in rows)

    def test_core_emptiness_rows_are_complete_and_deterministic(self):
        sc = Scenario(
            kind="core-emptiness",
            n=2,
            theta=0.1,
            horizon=1,
            seed=10,
            influence=DEMO_W,
            trials=20,
            n_min=2,
            n_max=4,
            sigma=0.01,
        )
        rows = experiment_core_emptiness(sc)
        assert [r["n"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert r["sampler_failures"] == 0
            assert 0.0 <= r["frequency"] <= 1.0
        again = experiment_core_emptiness(sc)
        assert rows == again

    def test_core_emptiness_rows_when_some_trials_exhaust_the_sampler(self):
        # at n=4 the first player of one trial exhausts its 100000 candidates
        # while the other trial gets all four opinions; the frequency counts
        # the one trial with data
        sc = Scenario(
            kind="core-emptiness",
            n=2,
            theta=0.1,
            horizon=1,
            seed=39,
            influence=DEMO_W,
            trials=2,
            n_min=2,
            n_max=4,
            sigma=0.08,
            truth_family="mixed",
        )
        assert experiment_core_emptiness(sc) == [
            {"n": 2, "trials": 2, "sampler_failures": 0, "empty": 0, "frequency": 0.0},
            {"n": 3, "trials": 2, "sampler_failures": 0, "empty": 0, "frequency": 0.0},
            {"n": 4, "trials": 2, "sampler_failures": 1, "empty": 0, "frequency": 0.0},
        ]

    def test_zero_sigma_rejected(self):
        sc = Scenario(
            kind="core-emptiness",
            n=2,
            theta=0.1,
            horizon=1,
            seed=10,
            influence=DEMO_W,
            trials=5,
            sigma=0.0,
        )
        with pytest.raises(ScenarioError, match="sigma"):
            experiment_core_emptiness(sc)

    @pytest.mark.parametrize(
        "kind, patch, key",
        [
            ("core-emptiness", {"trials": 0, "sigma": 0.01}, "trials"),
            ("core-emptiness", {"trials": 5}, "sigma"),
            ("core-emptiness", {"trials": 5, "sigma": 0.01, "truth_family": "cube"}, "truth_family"),
            ("po-sweep", {"po_values": ()}, "po_values"),
            ("po-sweep", {"po_values": (1.0, 0.0)}, "po_values"),
            ("efficiency", {"p_o": -1.0}, "p_o"),
            # a W of the wrong size, which a file's reader refuses by its shape
            (
                "simulate",
                {"influence": np.full((3, 3), 1 / 3), "players": base_scenario().players},
                "influence",
            ),
            ("efficiency", {"influence": np.full((3, 3), 1 / 3)}, "influence"),
        ],
    )
    def test_scenarios_built_in_code_are_held_to_their_table(self, kind, patch, key):
        # the experiment refuses the scenario before any trial or run, with
        # the same rule the reader applies to a file; core-emptiness needs no game
        game = dict(n=2, theta=0.1, horizon=10, influence=DEMO_W, initial_opinions=demo_opinions())
        sc = Scenario(kind=kind, seed=10, **(game if kind != "core-emptiness" else {}) | patch)
        run = {
            "core-emptiness": experiment_core_emptiness,
            "po-sweep": experiment_po_sweep,
            "efficiency": experiment_efficiency,
            "simulate": run_simulation,
        }[kind]
        with pytest.raises(ScenarioError, match=rf"^{key}: "):
            run(sc)

    def test_simulation_needs_the_simulate_keys_whatever_the_kind(self):
        sc = base_scenario(kind="efficiency", players=None)
        with pytest.raises(ScenarioError, match=r"^players: required for kind 'simulate'"):
            run_simulation(sc)

    def test_verdicts_over_rows(self):
        def freq_rows(*freqs):
            return [{"frequency": f} for f in freqs]

        assert core_emptiness_verdict(freq_rows(0.0, 0.1, 0.3))["pass"]
        assert not core_emptiness_verdict(freq_rows(0.0, 0.0))["pass"]
        assert not core_emptiness_verdict(freq_rows(0.0, 0.3, 0.2, 0.5))["pass"]
        assert core_emptiness_verdict(freq_rows(0.0, 0.3, 0.29, 0.5))["pass"]

        def sweep_rows(spreads, top_empty):
            rows = [{"spread": s, "bayesian_core_empty": False} for s in spreads]
            rows[-1]["bayesian_core_empty"] = top_empty
            return rows

        verdict = po_sweep_verdict(sweep_rows([1.0, 0.1, 0.01], False))
        assert verdict["monotone"] and verdict["nonempty_at_largest"] and verdict["pass"]
        assert not po_sweep_verdict(sweep_rows([1.0, 0.1, 0.2], False))["pass"]
        assert not po_sweep_verdict(sweep_rows([1.0, 0.1, 0.01], True))["pass"]

    # each verdict threshold, pinned just inside and just outside
    def test_a_frequency_drop_of_up_to_0_02_is_no_inversion(self):
        def passed(*freqs):
            return core_emptiness_verdict([{"frequency": f} for f in freqs])["pass"]

        assert passed(0.0, 0.5, 0.481, 0.6)  # a drop of 0.019
        assert not passed(0.0, 0.5, 0.479, 0.6)  # a drop of 0.021

    def test_sweep_spreads_may_rise_by_a_relative_1e_9(self):
        def monotone(*spreads):
            rows = [{"spread": s, "bayesian_core_empty": False} for s in spreads]
            return po_sweep_verdict(rows)["monotone"]

        assert monotone(1.0, 1.0 + 5e-10, 0.5)
        assert not monotone(1.0, 1.0 + 2e-9, 0.5)

    @staticmethod
    def _efficiency_scenario(w) -> Scenario:
        return base_scenario(kind="efficiency", horizon=10, influence=w, players=None)

    @pytest.mark.parametrize("gap, degenerate", [(0.5e-12, True), (2e-12, False)])
    def test_influence_weights_within_1e_12_are_degenerate(self, gap, degenerate):
        w = np.array([[0.5, 0.5], [0.5 + gap, 0.5 - gap]])  # t spreads by gap / (1 + gap)
        sc = self._efficiency_scenario(w)
        assert np.ptp(sc.influence.t) == pytest.approx(gap, rel=1e-3)
        assert experiment_efficiency(sc)["degenerate"] is degenerate

    @pytest.mark.parametrize("control_drift, passed", [(1.01e-6, True), (0.99e-6, False)])
    def test_the_control_must_drift_by_more_than_1e_6(self, monkeypatch, control_drift, passed):
        # the two runs are stood in for: the proportional one keeps its
        # average, the control's drifts by control_drift
        drifts = iter([0.0, control_drift])

        def run(scenario):
            return SimpleNamespace(average=np.array([0.0, next(drifts)]))

        monkeypatch.setattr(harness, "run_simulation", run)
        report = experiment_efficiency(self._efficiency_scenario(DEMO_W))
        assert not report["degenerate"] and report["control_drift"] == control_drift
        assert report["pass"] is passed

    def test_the_po_sweep_holds_one_run_at_a_time(self):
        # the rational benchmark's sweep at n = 9: each point's trace, 8.3 MB
        # allocated, is freed before the next point's run allocates its own
        sc = scenario_from_dict(RATIONAL["po-sweep"])
        lineup = nash_players(sc.n, sc.influence.t, sc.po_values[0])
        experiment_po_sweep(sc)  # the tables cached once per n are not the sweep's
        tracemalloc.start()
        try:
            trace = run_simulation(dataclasses.replace(sc, players=lineup))
            one_run = tracemalloc.get_traced_memory()[0]
            del trace
            tracemalloc.reset_peak()
            experiment_po_sweep(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_run, (peak, one_run)


def one_trial_at_a_time(scenario: Scenario) -> list[dict]:
    """Oracle: the core-emptiness rows from one sampler call and one
    Bayesian-core check per trial, one trial after another."""
    rows = []
    for n in range(scenario.n_min, scenario.n_max + 1):
        gts = truth_spec(scenario.truth_family, n, scenario.sigma)
        empty = failures = 0
        for trial in range(scenario.trials):
            rng = np.random.default_rng([scenario.seed, n, trial])
            (values,), (exhausted,) = sample_opinion_streams(
                gts, [rng], n, perturb_grand=scenario.perturb_grand
            )
            if exhausted:
                failures += 1
                continue
            empty += bayesian_core_is_empty([SetFunction(n, v) for v in values]).empty
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


def core_mc_scenario(seed: int, **kw) -> Scenario:
    """The benchmark's core-emptiness regime: 200 trials at each n = 2..8,
    sigma 0.004 on every coalition but the empty one."""
    raw = {
        "kind": "core-emptiness",
        "seed": seed,
        "trials": 200,
        "n_min": 2,
        "n_max": 8,
        "sigma": 0.004,
        "truth_family": "quadratic",
        "perturb_grand": True,
    }
    return scenario_from_dict({**raw, **kw})


class TestCoreEmptinessInOnePass:
    # 2**40 + 1 is a seed of two 32-bit words
    @pytest.mark.parametrize("seed", [1, 2, 701, 2**40 + 1])
    def test_rows_are_those_of_one_trial_at_a_time(self, seed):
        sc = core_mc_scenario(seed)
        assert experiment_core_emptiness(sc) == one_trial_at_a_time(sc)

    def test_rows_with_some_trials_exhausting_the_sampler(self):
        sc = core_mc_scenario(39, trials=4, n_max=4, sigma=0.08, truth_family="mixed")
        rows = experiment_core_emptiness(sc)
        assert rows == one_trial_at_a_time(sc)
        assert 0 < rows[-1]["sampler_failures"] < 4

    def test_every_trial_exhausting_the_sampler(self):
        sc = core_mc_scenario(1, trials=2, sigma=0.01, truth_family="mixed")
        with pytest.raises(ScenarioError) as got:
            experiment_core_emptiness(sc)
        with pytest.raises(ScenarioError) as want:
            one_trial_at_a_time(sc)
        assert str(got.value) == str(want.value)

    def test_opinions_are_supermodular_and_witnesses_in_the_core(self, monkeypatch):
        # every sampled opinion, and every nonempty verdict's witness, of the
        # benchmark's regime, checked on its own
        sampled, decided = [], []

        def stream(*args, **kw):
            for done in stream_opinions(*args, **kw):
                # copies, since the pass reuses its slots
                sampled.extend(values.copy() for _, values in done if values is not None)
                yield done

        def decide(stacks, *args):
            decided.append((stacks, bayesian_core_verdicts(stacks, *args)))
            return decided[-1][1]

        monkeypatch.setattr(harness, "stream_opinions", stream)
        monkeypatch.setattr(harness, "bayesian_core_verdicts", decide)
        rows = experiment_core_emptiness(core_mc_scenario(1))
        opinions = [SetFunction(len(profile), values) for profile in sampled for values in profile]
        assert len(opinions) == sum(r["n"] * (r["trials"] - r["sampler_failures"]) for r in rows)
        assert all(is_supermodular(f) for f in opinions)
        nonempty = 0
        for stacks, (empty, witnesses) in decided:
            for profile, is_empty, witness in zip(stacks, empty, witnesses):
                if not is_empty:
                    n = len(profile)
                    assert bayesian_core_contains([SetFunction(n, v) for v in profile], witness)
                    nonempty += 1
        assert nonempty == sum(r["trials"] - r["sampler_failures"] - r["empty"] for r in rows)

    def test_a_player_count_takes_few_full_rounds(self, monkeypatch):
        # at n = 8 a round holds the first blocks of 32 trials; the 200
        # trials' 1,727 candidates would fill 7 rounds of 256, and admitting
        # trials as others finish keeps all rounds but the last few full
        rounds = []
        kernel = setfn._supermodular_columns

        def check(block, n, floor):
            if floor < 0:  # the truth's own strictness check passes +tol
                rounds.append(block.shape[1])
            return kernel(block, n, floor)

        monkeypatch.setattr(setfn, "_supermodular_columns", check)
        experiment_core_emptiness(core_mc_scenario(1, n_min=8, n_max=8))
        assert len(rounds) <= 12, rounds

    def test_memory_does_not_grow_with_the_trial_count(self):
        # at n = 6 the pass holds 170 trials in flight, so 200 trials fill
        # it; 2,000 hold no more, since the generators are derived a window
        # of keys at a time as trials are admitted (holding all 2,000 would
        # take about 1.2 MB)
        def peak(trials):
            sc = core_mc_scenario(1, n_min=6, n_max=6, trials=trials)
            experiment_core_emptiness(sc)  # the Shapley and core tables are cached once per n
            tracemalloc.start()
            try:
                experiment_core_emptiness(sc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        group = round_candidates(6) // 6
        assert group < 200
        assert peak(2000) - peak(200) < group * 6 * (8 << 6)

    def test_memory_stays_within_two_gather_chunks(self):
        # the 200 opinion profiles at n = 8 take 3.2 MB; sampled 32 trials in
        # flight at a time and checked as they finish, the experiment never
        # holds them all
        sc = core_mc_scenario(1, n_min=8, n_max=8)
        experiment_core_emptiness(sc)  # the Shapley and core tables are cached once per n
        tracemalloc.start()
        try:
            experiment_core_emptiness(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * GATHER_CHUNK_BYTES, peak


ONE_PLAYER_GAME = {
    "n": 1,
    "influence": [[1.0]],
    "initial_opinions": [{"restricted": []}],
    "players": [{"kind": "nash", "risk_aversion": 1.0}],
}


class TestCli:
    def _scenario_file(self, tmp_path, **kw):
        raw = {
            "kind": "simulate",
            "n": 2,
            "theta": 0.1,
            "horizon": 30,
            "seed": 5,
            "influence": [[0.3, 0.7], [0.4, 0.6]],
            "initial_opinions": [
                {"restricted": [0.7, 0.1]},
                {"restricted": [0.3, 0.5]},
            ],
            "players": [
                {"kind": "nash", "risk_aversion": 0.36363636363636365},
                {"kind": "nash", "risk_aversion": 0.6363636363636364},
            ],
        }
        # the base is a simulate game: other kinds do not read its players,
        # and core-emptiness does not read its opinions either
        kind = kw.get("kind", "simulate")
        if kind != "simulate":
            del raw["players"]
        if kind == "core-emptiness":
            del raw["initial_opinions"]
        raw.update(kw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return path

    def test_simulate_writes_parseable_trace(self, tmp_path):
        scenario = self._scenario_file(tmp_path)
        out = tmp_path / "trace.csv"
        assert cli_main(["--out", str(out), "simulate", str(scenario)]) == 0
        trace = parse_trace(out.read_text())
        assert trace.n == 2 and trace.steps >= 1

    @pytest.mark.parametrize("horizon", [30, 3000])
    def test_simulate_summary_convergence_matches_the_trace_read_back(self, tmp_path, capsys, horizon):
        scenario = self._scenario_file(tmp_path, horizon=horizon)
        out = tmp_path / "trace.csv"
        assert cli_main(["--json-summary", "--out", str(out), "simulate", str(scenario)]) == 0
        summary = json.loads(capsys.readouterr().out)
        trace = read_trace(out)
        assert (summary["steps"], summary["converged_at"]) == (trace.steps, trace.converged_at)
        assert (trace.converged_at is None) == (horizon == 30)

    def test_simulate_reruns_byte_identical(self, tmp_path):
        scenario = self._scenario_file(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["--out", str(out1), "simulate", str(scenario)]) == 0
        assert cli_main(["--out", str(out2), "simulate", str(scenario)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_stdout_matches_out_file_and_reference(self, tmp_path, capsys):
        scenario = SCENARIOS / "two_player_learning_gamma05.json"
        out = tmp_path / "trace.csv"
        assert cli_main(["--out", str(out), "simulate", str(scenario)]) == 0
        assert capsys.readouterr().out == ""
        assert cli_main(["simulate", str(scenario)]) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == out.read_bytes()
        assert printed == reference_dump(run_simulation(load_scenario(scenario)))

    def test_simulate_stdout_is_streamed_not_dumped_whole(self, tmp_path, capsys, monkeypatch):
        def whole(trace):
            raise AssertionError("the whole trace CSV was built in memory")

        monkeypatch.setattr(harness, "dump_trace", whole)
        monkeypatch.setattr(cli, "dump_trace", whole, raising=False)
        assert cli_main(["simulate", str(self._scenario_file(tmp_path))]) == 0
        assert parse_trace(capsys.readouterr().out).steps >= 1

    @pytest.mark.parametrize("command", ["simulate", "exp-efficiency"])
    def test_unwritable_out_exits_two_naming_the_path(self, tmp_path, capsys, command):
        scenario = self._scenario_file(tmp_path, kind=command.removeprefix("exp-"))
        out = tmp_path / "no" / "such" / "out.csv"
        assert cli_main(["--out", str(out), command, str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")

    def test_shapley_prints_allocation_csv(self, tmp_path, capsys):
        f = SetFunction.from_restricted(2, [0.7, 0.1], 1.0)
        path = tmp_path / "game.setfn"
        path.write_text(dump_setfn(f))
        assert cli_main(["shapley", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "player,payoff"
        assert out.splitlines()[1] == "0,0.8"

    @pytest.mark.parametrize("command", ["shapley", "core-check"])
    def test_non_numeric_payoff_line_exits_two_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "game.setfn"
        path.write_text("n=2\n0 0.0\n1 abc\n2 0.5\n3 1.0\n")
        assert cli_main([command, str(path)]) == 2
        assert capsys.readouterr().err == "error: malformed line 3: '1 abc'\n"

    @pytest.mark.parametrize("command", ["simulate", "exp-efficiency", "shapley"])
    def test_file_that_is_not_utf8_exits_two_naming_it(self, tmp_path, capsys, command):
        # scenario files and payoff-function files alike
        path = tmp_path / "binary.bin"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
        assert cli_main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text: invalid start byte at byte 0\n"
        )

    @pytest.mark.parametrize("tol", ["-1", "-0.0001", "nan", "inf"])
    @pytest.mark.parametrize("command", ["core-check", "bayesian-core", "exp-efficiency"])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, command, tol):
        # the game's core is nonempty, so only the --tol check can exit 2
        path = tmp_path / "game.setfn"
        path.write_text(dump_setfn(SetFunction.from_restricted(2, [0.3, 0.3], 1.0)))
        if command == "exp-efficiency":
            path = self._scenario_file(tmp_path, kind="efficiency")
        assert cli_main([command, str(path), "--tol", tol]) == 2
        assert capsys.readouterr().err == (
            f"error: --tol: finite nonnegative number required, got {float(tol)!r}\n"
        )

    def test_zero_tol_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "game.setfn"
        path.write_text(dump_setfn(SetFunction.from_restricted(2, [0.3, 0.3], 1.0)))
        assert cli_main(["core-check", str(path), "--tol", "0"]) == 0
        assert capsys.readouterr().out.startswith("nonempty\n")

    def test_core_check_verdicts(self, tmp_path, capsys):
        good = SetFunction.from_restricted(2, [0.3, 0.3], 1.0)
        bad = SetFunction.from_restricted(2, [0.6, 0.6], 1.0)
        good_path, bad_path = tmp_path / "good.setfn", tmp_path / "bad.setfn"
        good_path.write_text(dump_setfn(good))
        bad_path.write_text(dump_setfn(bad))
        assert cli_main(["core-check", str(good_path)]) == 0
        assert capsys.readouterr().out.startswith("nonempty")
        assert cli_main(["core-check", str(bad_path)]) == 0
        assert capsys.readouterr().out.startswith("empty")

    def test_bayesian_core_over_files(self, tmp_path, capsys):
        v1 = SetFunction.from_restricted(2, [0.8, 0.0], 1.0)
        v2 = SetFunction.from_restricted(2, [0.0, 0.8], 1.0)
        p1, p2 = tmp_path / "v1.setfn", tmp_path / "v2.setfn"
        p1.write_text(dump_setfn(v1))
        p2.write_text(dump_setfn(v2))
        assert cli_main(["bayesian-core", str(p1), str(p2)]) == 0
        assert capsys.readouterr().out.startswith("empty")

    def test_bayesian_core_flags_may_stand_between_its_files(self, tmp_path, capsys):
        paths = [tmp_path / f"w{i}.setfn" for i in range(3)]
        for i, path in enumerate(paths):
            path.write_text(dump_setfn(random_supermodular(3, np.random.default_rng(i))))
        w0, w1, w2 = map(str, paths)
        assert cli_main(["bayesian-core", w0, w1, w2, "--tol", "1e-6"]) == 0
        expected = capsys.readouterr().out
        assert cli_main(["bayesian-core", w0, "--tol", "1e-6", w1, w2]) == 0
        assert capsys.readouterr().out == expected

    def test_exp_efficiency_exit_code_and_summary(self, tmp_path, capsys):
        scenario = self._scenario_file(tmp_path, kind="efficiency", horizon=150)
        code = cli_main(["--json-summary", "exp-efficiency", str(scenario)])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["pass"] is True

    def test_exp_po_sweep_exit_code(self, tmp_path, capsys):
        scenario = self._scenario_file(
            tmp_path, kind="po-sweep", horizon=4000, theta=0.5,
            po_values=[0.1, 1.0, 10.0, 100.0],
        )
        assert cli_main(["exp-po-sweep", str(scenario)]) == 0

    def test_exp_core_emptiness_emits_rows_and_verdict_exit_code(self, tmp_path, capsys):
        scenario = self._scenario_file(
            tmp_path,
            kind="core-emptiness",
            trials=10,
            n_min=2,
            n_max=3,
            sigma=0.01,
        )
        out = tmp_path / "freq.csv"
        # flat-zero frequencies fail the rising-trend verdict: exit 1
        code = cli_main(["--json-summary", "exp-core-emptiness", str(scenario), "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,trials,sampler_failures,empty,frequency"
        assert len(lines) == 3
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == (0 if summary["pass"] else 1)
        assert summary["frequencies"] == [0.0, 0.0]
        assert code == 1

    def test_core_emptiness_reads_no_game_keys(self, tmp_path):
        # the shipped demo carries no n, theta, horizon or influence; a file
        # that still carries them writes the same rows
        demo = json.loads((SCENARIOS / "core_emptiness_demo.json").read_text())
        assert not {"n", "theta", "horizon", "influence"} & set(demo)
        small = {**demo, "trials": 20, "n_max": 4}
        game = {"n": 2, "theta": 0.1, "horizon": 1, "influence": [[0.3, 0.7], [0.4, 0.6]]}
        outputs = []
        for doc in (small, {**small, **game}):
            path, out = tmp_path / "core.json", tmp_path / f"rows{len(outputs)}.csv"
            path.write_text(json.dumps(doc))
            assert cli_main(["exp-core-emptiness", str(path), "--out", str(out)]) == 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"n,trials,sampler_failures,empty,frequency\n2,20,")

    def test_exp_core_emptiness_without_data_exits_two(self, tmp_path, capsys):
        # at this sigma every trial from some n on exhausts the sampler
        scenario = self._scenario_file(
            tmp_path, kind="core-emptiness", trials=2, sigma=0.01, truth_family="mixed"
        )
        assert cli_main(["--json-summary", "exp-core-emptiness", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert "sigma:" in captured.err and "Traceback" not in captured.err
        assert "NaN" not in captured.out

    def test_influence_nested_past_its_shape_exits_two_naming_the_key(self, tmp_path, capsys):
        nested = 0.5
        for _ in range(500):
            nested = [nested]
        scenario = self._scenario_file(tmp_path, influence=nested)
        assert cli_main(["simulate", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {scenario}: influence: expected shape (2, 2), "
            "got lists nested more than 2 deep\n"
        )

    def test_json_nested_past_the_decoder_exits_two_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert cli_main(["simulate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"

    def test_bad_scenario_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli_main(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "influence,risk_aversion",
        [
            # theta / (2 p) overflows to inf, so the first revealed opinion
            # is not finite
            (DEMO_W.tolist(), (1e-310, 0.6363636363636364)),
            # the same lie by either player under a W with a zero weight in
            # player 0's column
            (OVERFLOW_W, (1e-310, 0.6363636363636364)),
            (OVERFLOW_W, (0.6363636363636364, 1e-310)),
            # the lies stay finite, but their squares in the disutility do not
            (DEMO_W.tolist(), (1e-160, 1e-160)),
        ],
        ids=["lie", "lie-by-0-under-a-zero-weight", "lie-by-1-under-a-zero-weight", "disutility"],
    )
    def test_diverging_run_exits_two(self, tmp_path, capsys, influence, risk_aversion):
        scenario = self._scenario_file(
            tmp_path,
            influence=influence,
            players=[{"kind": "nash", "risk_aversion": p} for p in risk_aversion],
        )
        out = tmp_path / "trace.csv"
        assert cli_main(["simulate", str(scenario), "--out", str(out)]) == 2
        assert "payoff values must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch,key",
        [
            ({"trials": "abc"}, "trials"),
            ({"trials": True}, "trials"),
            ({"sigma": "abc"}, "sigma"),
            ({"sigma": float("inf")}, "sigma"),
            ({"p_o": float("nan")}, "p_o"),
            ({"po_values": ["x"]}, "po_values"),
            ({"n_max": 8.5}, "n_max"),
            ({"truth_family": 3}, "truth_family"),
            ({"perturb_grand": "false"}, "perturb_grand"),
            ({"influence": [[float("nan"), 0.7], [0.4, 0.6]]}, "influence"),
            ({"initial_opinions": [{"restricted": [0.7, "a"]}, {"restricted": [0.3, 0.5]}]},
             "initial_opinions[0].restricted"),
            (
                {
                    "players": [
                        {"kind": "nash", "risk_aversion": float("nan")},
                        {"kind": "nash", "risk_aversion": 1.0},
                    ]
                },
                "players[0]",
            ),
            ({"n_min": 0}, "n_min"),
            ({"n_min": 5, "n_max": 3}, "n_max"),
            ({"n_max": 21}, "n_max"),
            ({"n": 13}, "n"),
            ({"seed": -4}, "seed"),
            ({"--seed": "-3"}, "seed"),
            (
                {"initial_opinions": {"ground_truth": {"family": [], "sigma": 0.01}}},
                "initial_opinions.ground_truth.family",
            ),
            ({"influence": [[True, False], [False, True]]}, "influence"),
            ({"initial_opinions": [{"restricted": [True, False]}, {"restricted": [0.3, 0.5]}]},
             "initial_opinions[0].restricted"),
            (
                {
                    "n": 5,
                    "influence": "random_primitive",
                    "initial_opinions": {"ground_truth": {"sigma": 1.0}},
                    "players": [{"kind": "nash", "risk_aversion": 1.0}] * 5,
                },
                "initial_opinions.ground_truth.sigma",
            ),
            (
                {
                    "players": [
                        {"kind": "nash", "risk_aversion": True},
                        {"kind": "nash", "risk_aversion": 1.0},
                    ]
                },
                "players[0]: risk_aversion",
            ),
            ({"influence": [["0.3", "0.7"], ["0.4", "0.6"]]}, "influence"),
            (ONE_PLAYER_GAME, "n"),
            ({**ONE_PLAYER_GAME, "kind": "po-sweep", "po_values": [1.0]}, "n"),
            ({"p_0": 5.0}, "scenario"),
            (
                {"initial_opinions": [{"restricted": [0.7, 0.1], "grnad": 1.0}, {"restricted": [0.3, 0.5]}]},
                "initial_opinions[0]",
            ),
            (
                {"initial_opinions": {"ground_truth": {"familly": "mixed", "sigma": 0.01}}},
                "initial_opinions.ground_truth",
            ),
            ({"p_o": 0.0}, "p_o"),
            ({"p_o": -1.0}, "p_o"),
            ({"po_values": [1.0, -1.0]}, "po_values"),
            (
                {"initial_opinions": {"ground_truth": {"sigma": 0.01}, "sigma": 0.01}},
                "initial_opinions",
            ),
            # integers beyond float range
            ({"theta": 10**400}, "theta"),
            ({"influence": [[0.3, 0.7], [0.4, 10**400]]}, "influence"),
            # keys another kind reads, refused by the kind that does not
            ({"trials": 7}, "trials"),
            ({"sigma": -3.0}, "sigma"),
            ({"po_values": [1.0]}, "po_values"),
            ({"n_max": 3}, "n_max"),
            ({"trials": 7, "sigma": -3.0, "po_values": [1.0], "n_max": 3}, "n_max"),
            (
                {"kind": "efficiency", "players": [{"kind": "nash", "risk_aversion": 1.0}] * 2},
                "players",
            ),
            ({"kind": "po-sweep", "po_values": [1.0], "p_o": 5.0}, "p_o"),
            (
                {
                    "kind": "core-emptiness",
                    "trials": 2,
                    "sigma": 0.01,
                    "players": [{"kind": "nash", "risk_aversion": 1.0}] * 2,
                },
                "players",
            ),
            (
                {
                    "kind": "core-emptiness",
                    "trials": 2,
                    "sigma": 0.01,
                    "initial_opinions": "random_supermodular",
                },
                "initial_opinions",
            ),
            ({"initial_opinions": {"ground_truth": 0.01}}, "initial_opinions.ground_truth"),
            ({"players": [1, {"kind": "nash", "risk_aversion": 1.0}]}, "players[0]"),
            ({"kind": "po-sweep", "po_values": 5.0}, "po_values"),
        ],
    )
    def test_malformed_keys_exit_two_naming_the_key(self, tmp_path, capsys, patch, key):
        # patch entries spelled as flags go on the command line
        flags = [arg for k, v in patch.items() if k.startswith("--") for arg in (k, v)]
        keys = {k: v for k, v in patch.items() if not k.startswith("--")}
        scenario = self._scenario_file(tmp_path, **keys)
        assert cli_main(["simulate", str(scenario), *flags]) == 2
        err = capsys.readouterr().err
        assert f": {key}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, kind", [("simulate", "simulate"), ("exp-efficiency", "efficiency")])
    def test_influence_that_is_not_primitive_exits_two(self, tmp_path, capsys, command, kind):
        # powers of this matrix settle on identical rows, but player 1's
        # weight would be a rounding residue
        scenario = self._scenario_file(tmp_path, kind=kind, influence=[[1, 0], [0.5, 0.5]])
        assert cli_main([command, str(scenario)]) == 2
        err = capsys.readouterr().err
        assert ": influence: W is not primitive" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, name",
        [
            ("simulate", "two_player_learning_gamma05"),
            ("exp-efficiency", "efficiency_demo"),
            ("exp-po-sweep", "po_sweep_demo"),
        ],
    )
    def test_each_command_solves_its_influence_matrix_once(
        self, tmp_path, monkeypatch, command, name
    ):
        # W is solved where it is read; every run and lineup reuses that solve
        solves = []

        def counted(w):
            solves.append(w)
            return influence_weights(w)

        monkeypatch.setattr(consensus, "influence_weights", counted)
        scenario = SCENARIOS / f"{name}.json"
        assert cli_main([command, str(scenario), "--out", str(tmp_path / "out")]) == 0
        assert len(solves) == 1

    def test_influence_that_mixes_slowly_runs(self, tmp_path, capsys):
        # primitive, with W^(2^20) still far from rank one: the elimination
        # solves it all the same
        eps = 1e-6
        scenario = self._scenario_file(tmp_path, influence=[[1 - eps, eps], [eps, 1 - eps]])
        assert cli_main(["simulate", str(scenario), "--out", str(tmp_path / "trace.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_influence_whose_weights_span_more_than_the_float_range_exits_two(
        self, tmp_path, capsys
    ):
        # stochastic and primitive, but t0 / t1 = 1e-323
        scenario = self._scenario_file(tmp_path, influence=[[0.5, 0.5], [5e-324, 1.0]])
        assert cli_main(["simulate", str(scenario)]) == 2
        assert capsys.readouterr().err == (
            f"error: {scenario}: influence: W's stationary weights span more than the "
            "float range, so some player's weight cannot be computed\n"
        )

    def test_ground_truth_exhausting_the_sampler_exits_two_naming_sigma(self, tmp_path, capsys):
        # noise this large leaves the quadratic truth's cone: the first
        # player's stream rejects its whole budget
        scenario = self._scenario_file(
            tmp_path,
            n=5,
            influence="random_primitive",
            initial_opinions={"ground_truth": {"sigma": 1.0}},
            players=[{"kind": "nash", "risk_aversion": 1.0}] * 5,
        )
        assert cli_main(["simulate", str(scenario)]) == 2
        assert capsys.readouterr().err == (
            f"error: {scenario}: initial_opinions.ground_truth.sigma: player 0: no "
            "supermodular sample in 100000 attempts; sigma=1.0 is likely too large for "
            "the truth's strictness margin\n"
        )

    def test_ground_truth_noise_beyond_the_float_range_exits_two(self, tmp_path, capsys):
        scenario = self._scenario_file(
            tmp_path,
            n=3,
            influence="random_primitive",
            initial_opinions={"ground_truth": {"sigma": 1e308}},
            players=[{"kind": "nash", "risk_aversion": 1.0}] * 3,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["simulate", str(scenario)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert ": initial_opinions.ground_truth.sigma: payoff values must be finite" in err

    def test_core_emptiness_noise_beyond_the_float_range_exits_two_naming_sigma(
        self, tmp_path, capsys
    ):
        path = tmp_path / "scenario.json"
        raw = {"kind": "core-emptiness", "seed": 1, "trials": 3, "n_min": 2, "n_max": 3}
        path.write_text(json.dumps({**raw, "sigma": 1e308}))
        out = tmp_path / "rows.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["exp-core-emptiness", str(path), "--out", str(out)]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == "error: sigma: 1e+308 at n=2: payoff values must be finite\n"
        assert captured.out == "" and not out.exists()

    def test_core_emptiness_bounds_the_dual_cannot_decide_exit_two_naming_sigma(
        self, tmp_path, capsys
    ):
        # noise near the float range draws finite opinions whose coalition
        # bounds make the balancedness dual cycle at n = 3, 180 pivots
        raw = json.loads((SCENARIOS / "core_emptiness_demo.json").read_text())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**raw, "sigma": 1e306}))
        assert cli_main(["exp-core-emptiness", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: sigma: 1e+306 at n=3: the balancedness dual did not terminate "
            "within 180 pivots\n",
        )

    def test_ground_truth_players_draw_from_their_own_streams(self, tmp_path):
        # one sampler call for all players gives each the opinion its own
        # stream gives alone
        scenario = self._scenario_file(
            tmp_path,
            n=4,
            influence="random_primitive",
            initial_opinions={"ground_truth": {"sigma": 0.02}},
            players=[{"kind": "nash", "risk_aversion": 1.0}] * 4,
        )
        sc = load_scenario(scenario)
        truth = truth_spec("quadratic", 4, 0.02)
        for i, f in enumerate(sc.initial_opinions):
            ((alone,),), (exhausted,) = sample_opinion_streams(
                truth, [np.random.default_rng([sc.seed, 3, i])], 1, perturb_grand=False
            )
            assert not exhausted
            assert f.values.tobytes() == alone.tobytes()

    @pytest.mark.parametrize(
        "command, name, key",
        [
            ("exp-core-emptiness", "two_player_learning_gamma05", "trials"),
            ("exp-po-sweep", "two_player_learning_gamma05", "po_values"),
            ("exp-po-sweep", "efficiency_demo", "po_values"),
            ("exp-efficiency", "core_emptiness_demo", "n"),
        ],
    )
    def test_experiment_on_a_file_of_another_kind_exits_two(self, capsys, command, name, key):
        # each experiment holds the scenario to its own table, whatever kind the file names
        assert cli_main([command, str(SCENARIOS / f"{name}.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: required for kind '{command.removeprefix('exp-')}'")

    def test_horizon_beyond_physical_memory_exits_two(self, tmp_path, capsys):
        raw = json.loads((SCENARIOS / "two_player_learning_gamma05.json").read_text())
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**raw, "horizon": 10**12}))
        assert cli_main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon: ") and "bytes" in err

    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
        assert cli_main(["simulate", str(self._scenario_file(tmp_path))]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_seed_override_changes_stochastic_runs(self, tmp_path):
        scenario = self._scenario_file(
            tmp_path,
            players=[
                {"kind": "rlearning", "risk_aversion": 1.0, "explore_std": 0.05},
                {"kind": "rlearning", "risk_aversion": 1.0, "explore_std": 0.05},
            ],
        )
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli_main(["--seed", "1", "--out", str(out1), "simulate", str(scenario)]) == 0
        assert cli_main(["--seed", "2", "--out", str(out2), "simulate", str(scenario)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize(
        "command, name",
        [
            ("exp-efficiency", "efficiency_demo"),
            ("exp-po-sweep", "po_sweep_demo"),
            ("simulate", "random_supermodular"),
        ],
    )
    def test_seed_flag_acts_as_the_file_seed(self, tmp_path, command, name):
        # the seed also drives the generated influence matrix and opinions
        if name == "random_supermodular":
            raw = {**FUZZ_BASES[0], "horizon": 20}
        else:
            raw = json.loads((SCENARIOS / f"{name}.json").read_text())
        outputs = []
        for seed, flags in ((raw["seed"], []), (raw["seed"], ["--seed", "7"]), (7, [])):
            path = tmp_path / f"scenario{len(outputs)}.json"
            path.write_text(json.dumps({**raw, "seed": seed}))
            out = tmp_path / f"out{len(outputs)}"
            assert cli_main([command, str(path), "--out", str(out), *flags]) in (0, 1)
            outputs.append(out.read_bytes())
        unseeded, flagged, edited = outputs
        assert flagged == edited != unseeded

    # --- the one flat parser

    def test_main_builds_one_parser_per_call(self, tmp_path, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert cli_main(["--json-summary", "simulate", str(self._scenario_file(tmp_path))]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv, command, files, flags",
        [
            (["--out", "o", "simulate", "s"], "simulate", ["s"], {"out": "o"}),
            (["simulate", "s", "--out", "o"], "simulate", ["s"], {"out": "o"}),
            (["simulate", "--seed", "3", "s"], "simulate", ["s"], {"seed": 3}),
            (["--seed=-3", "simulate", "s"], "simulate", ["s"], {"seed": -3}),
            (["simulate", "s", "--seed", "7", "--out", "o"], "simulate", ["s"], {"seed": 7, "out": "o"}),
            (
                ["--seed", "1", "--out", "o", "simulate", "s"],
                "simulate", ["s"], {"seed": 1, "out": "o"},
            ),
            (
                ["simulate", "s", "--out", "o", "--json-summary"],
                "simulate", ["s"], {"out": "o", "json_summary": True},
            ),
            (["--json-summary", "exp-efficiency", "s"], "exp-efficiency", ["s"], {"json_summary": True}),
            (
                ["--json-summary", "exp-core-emptiness", "s", "--out", "o"],
                "exp-core-emptiness", ["s"], {"out": "o", "json_summary": True},
            ),
            (["core-check", "g", "--tol", "0"], "core-check", ["g"], {"tol": 0.0}),
            (["shapley", "--tol", "0.5", "g"], "shapley", ["g"], {"tol": 0.5}),
            (["bayesian-core", "a", "b"], "bayesian-core", ["a", "b"], {}),
            (
                ["--tol", "1e-6", "bayesian-core", "a", "b", "c", "--json-summary"],
                "bayesian-core", ["a", "b", "c"], {"tol": 1e-6, "json_summary": True},
            ),
        ],
    )
    def test_flags_on_either_side_of_the_command(self, monkeypatch, argv, command, files, flags):
        seen = []
        monkeypatch.setattr(cli, "_check_flags", seen.append)
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: 0)
        assert cli_main(argv) == 0
        (args,) = seen
        defaults = {"seed": None, "out": None, "tol": 1e-9, "json_summary": False}
        assert vars(args) == {"command": command, "files": files, **defaults, **flags}

    @pytest.mark.parametrize("command", ["core-check", "simulate"])
    def test_a_second_file_is_refused(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "a", "b"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: b\n")

    def test_readme_cli_block_and_help_name_every_command(self, capsys):
        section = README.read_text(encoding="utf-8").split("## CLI")[1]
        block = section.split("```sh")[1].split("```")[0]
        named = [line.split()[1] for line in block.splitlines() if line.startswith("consensusgame ")]
        assert sorted(named) == sorted(cli._COMMANDS)
        with pytest.raises(SystemExit) as exc:
            cli_main(["-h"])
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        for command in cli._COMMANDS:
            assert f"\n    {command} " in printed, command

    # --- the core verdicts read --tol

    def test_huge_tol_empties_no_po_sweep_core(self, capsys):
        demo = SCENARIOS / "po_sweep_demo.json"
        verdicts = []
        for flags in ([], ["--tol", "1e300"]):
            assert cli_main(["exp-po-sweep", str(demo), *flags]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            verdicts.append([row.split(",")[2] for row in rows])
        assert verdicts[0][0] == "1"  # empty at p_o = 0.1 to the default tolerance
        assert verdicts[1] == ["0"] * len(verdicts[0])

    def test_huge_tol_empties_no_sampled_core(self, tmp_path, capsys):
        path = tmp_path / "core.json"
        raw = {"kind": "core-emptiness", "seed": 7, "trials": 200, "n_min": 3, "n_max": 4, "sigma": 0.1}
        path.write_text(json.dumps(raw))
        empties = []
        for flags in ([], ["--tol", "1e300"]):
            assert cli_main(["exp-core-emptiness", str(path), *flags]) in (0, 1)
            rows = capsys.readouterr().out.splitlines()[1:]
            empties.append([int(row.split(",")[3]) for row in rows])
        assert min(empties[0]) > 0
        assert empties[1] == [0, 0]

    def test_core_emptiness_bounds_the_n_it_does_not_read(self, tmp_path, capsys):
        # n sizes the generated influence matrix at load, so it is held to
        # the same 2..12 as the other kinds
        scenario = self._scenario_file(
            tmp_path, kind="core-emptiness", n=13, influence="random_primitive",
            trials=2, n_max=3, sigma=0.01,
        )
        assert cli_main(["exp-core-emptiness", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert ": n: player count in [2, 12] required, got 13" in err

    def test_core_emptiness_influence_without_n_exits_two(self, tmp_path, capsys):
        # a matrix is checked against n, so it cannot stand without one
        path = tmp_path / "scenario.json"
        raw = {"kind": "core-emptiness", "seed": 1, "trials": 2, "n_min": 2, "n_max": 3}
        path.write_text(json.dumps({**raw, "sigma": 0.01, "influence": [[0.3, 0.7], [0.4, 0.6]]}))
        assert cli_main(["exp-core-emptiness", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: influence: needs the player count n\n"


# --- scenario fuzzing ----------------------------------------------------------

_GAME = {
    "n": 2,
    "theta": 0.1,
    "horizon": 5,
    "seed": 3,
    "influence": "random_primitive",
    "initial_opinions": "random_supermodular",
}
FUZZ_BASES = (
    {"kind": "simulate", **_GAME, "players": [{"kind": "rlearning", "risk_aversion": 1.0}] * 2},
    {"kind": "efficiency", **_GAME, "p_o": 1.0},
    {
        "kind": "core-emptiness",
        **{k: _GAME[k] for k in ("n", "theta", "horizon", "influence")},
        "seed": 3,
        "trials": 3,
        "n_min": 2,
        "n_max": 3,
        "sigma": 0.01,
        "truth_family": "quadratic",
        "perturb_grand": True,
    },
    {"kind": "po-sweep", **_GAME, "influence": [[0.3, 0.7], [0.4, 0.6]], "po_values": [0.1, 1.0]},
)
FUZZ_KEYS = sorted({key for base in FUZZ_BASES for key in base})
_SCALAR_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.5, 0.5, 2.5]),
    st.text(max_size=3),
)
JSON_JUNK = st.one_of(
    _SCALAR_JUNK,
    st.lists(_SCALAR_JUNK, max_size=3),
    st.dictionaries(st.text(max_size=3), _SCALAR_JUNK, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(FUZZ_BASES),
    patch=st.dictionaries(st.sampled_from(FUZZ_KEYS), JSON_JUNK, max_size=4),
)
def test_scenario_loading_raises_nothing_but_scenario_error(base, patch):
    try:
        scenario_from_dict({**base, **patch})
    except ScenarioError:
        pass


# nested keys: one entry of initial_opinions (ground-truth spec or listed
# opinion) and one player config get junk values
_NESTED_BASE = {
    "kind": "simulate",
    **_GAME,
    "players": [
        {"kind": "rlearning", **dict.fromkeys(FLOAT_PARAMS, 0.5)},
        {"kind": "nash", "risk_aversion": 1.0},
    ],
}
_OPINION_FORMS = (
    {"ground_truth": {"family": "quadratic", "sigma": 0.01}},
    [{"restricted": [0.7, 0.1], "grand": 1.0}, {"restricted": [0.3, 0.5]}],
)


@settings(max_examples=300, deadline=None)
@given(
    opinions=st.sampled_from(_OPINION_FORMS),
    i=st.integers(0, 1),
    opinion_patch=st.dictionaries(
        st.sampled_from(["family", "sigma", "restricted", "grand"]), JSON_JUNK, max_size=2
    ),
    player_patch=st.dictionaries(st.sampled_from(["kind", *FLOAT_PARAMS]), JSON_JUNK, max_size=3),
)
def test_nested_scenario_keys_raise_nothing_but_scenario_error(opinions, i, opinion_patch, player_patch):
    doc = copy.deepcopy({**_NESTED_BASE, "initial_opinions": opinions})
    target = doc["initial_opinions"]
    target = target["ground_truth"] if isinstance(target, dict) else target[i]
    target.update(opinion_patch)
    doc["players"][i].update(player_patch)
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError:
        return
    for params in scenario.players:
        for name in FLOAT_PARAMS:
            assert type(getattr(params, name)) is float, (name, getattr(params, name))
