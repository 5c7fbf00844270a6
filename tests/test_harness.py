"""Simulation driver, trace round-trips, scenario validation, and the CLI."""

import copy
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensusgame import cli, harness
from consensusgame.agents import (
    FLOAT_PARAMS,
    EnvironmentModel,
    PlayerParams,
    RLearningAgent,
    nash_deviation,
    step_reward,
)
from consensusgame.cli import main as cli_main
from consensusgame.consensus import InfluenceMatrix, deviation_disutility, strategic_update
from consensusgame.harness import (
    CONVERGENCE_TOL,
    Scenario,
    ScenarioError,
    SimulationTrace,
    core_emptiness_verdict,
    dump_trace,
    emit_trace,
    experiment_core_emptiness,
    experiment_efficiency,
    experiment_po_sweep,
    load_scenario,
    nash_players,
    parse_trace,
    po_sweep_verdict,
    quadratic_truth,
    random_primitive_influence,
    run_simulation,
    scenario_from_dict,
    trace_header,
)
from consensusgame.setfn import SetFunction, dump_setfn, random_supermodular
from consensusgame.shapley import shapley_linear_form

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

DEMO_W = np.array([[0.3, 0.7], [0.4, 0.6]])


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
        scenario = mixed_scenario(n, seed, horizon=60)
        trace = run_simulation(scenario)
        reference = reference_simulation(scenario)
        assert (trace.steps, trace.converged_at) == (reference.steps, reference.converged_at)
        for name in TRACE_ARRAYS:
            assert np.array_equal(getattr(trace, name), getattr(reference, name)), name

    def test_one_gain_downdate_per_step(self, monkeypatch):
        calls = []
        original = EnvironmentModel.gain_step

        def counted(model, phi):
            calls.append(id(model.gain))
            return original(model, phi)

        monkeypatch.setattr(EnvironmentModel, "gain_step", counted)
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
        assert len(calls) == trace.steps == 20
        assert len(set(calls)) == 1

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
        # (3h + 1) n m + (h + 1)(m + n) + h (n + 1) floats at n = m = 2
        assert str(8 * (19 * 10**12 + 8)) in str(excinfo.value)


TRACE_ARRAYS = ("opinions", "revealed", "deviations", "average", "shapley", "rewards", "disutility")


def reference_simulation(scenario: Scenario):
    """The dynamics loop written per player: each step a truthful player lies
    by zero and a Nash player by `nash_deviation`, every learner keeps its
    own opponent model, acts through `act` and learns through `observe`, and
    every reward comes from `step_reward`."""
    n = scenario.n
    theta = scenario.theta
    influence = InfluenceMatrix.from_matrix(scenario.influence)
    t = influence.t
    form = shapley_linear_form(n)
    learners = {
        i: RLearningAgent(form.rows[i], theta, float(t[i]), params)
        for i, params in enumerate(scenario.players)
        if params.kind == "rlearning"
    }

    def lie(i, params, state, rng):
        if params.kind == "rlearning":
            return learners[i].act(state, rng)
        if params.kind == "nash":
            return nash_deviation(form.rows[i], theta, params.risk_aversion)
        return np.zeros(form.rows.shape[1])

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
        us = np.stack([lie(i, params, state, rng) for i, params in enumerate(scenario.players)])
        x = v.copy()
        x[:, 1:-1] += us
        v = strategic_update(v, x, influence.w, theta)
        rewards = [
            step_reward(us, t, params.risk_aversion, theta, form.rows[i])
            for i, params in enumerate(scenario.players)
        ]
        mean_dev = t @ us
        for i, agent in learners.items():
            agent.observe(state, (mean_dev - t[i] * us[i]) / (1.0 - t[i]), rewards[i])
        out["revealed"].append(x[:, 1:-1])
        out["deviations"].append(us)
        out["rewards"].append(rewards)
        out["disutility"].append(deviation_disutility(us, t))
        state = t @ x[:, 1:-1]
        snapshot(v)
        if np.max(np.abs(out["opinions"][-1] - out["opinions"][-2])) < CONVERGENCE_TOL:
            converged_at = k + 1
            break
    m = state.size
    arrays = {name: np.array(rows, dtype=float) for name, rows in out.items()}
    steps = len(out["disutility"])
    return SimulationTrace(
        n=n,
        steps=steps,
        opinions=arrays["opinions"],
        revealed=arrays["revealed"].reshape(steps, n, m),
        deviations=arrays["deviations"].reshape(steps, n, m),
        average=arrays["average"],
        shapley=arrays["shapley"],
        rewards=arrays["rewards"].reshape(steps, n),
        disutility=arrays["disutility"],
        converged_at=converged_at,
    )


def reference_dump(trace: SimulationTrace) -> str:
    """The trace CSV written one row and one element at a time: the byte
    oracle for dump_trace and emit_trace."""

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
    yield "header-only", lambda: SimulationTrace.empty(2)
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
        r"^trace: no opinion row for k=1, player=0, entry=1$",
    ),
    "dropped-aggregate-row": (lambda L: L[:5] + L[6:], r"^trace: no aggregate row for k=0$"),
    "truncated-last-step": (lambda L: L[:-2], r"^trace: no aggregate row for k=500$"),
    "entry-minus-one": (
        lambda L: [*L[:6], _cell(L[6], 3, "-1"), *L[7:]],
        r"^trace line 7: entry: -1 outside 0..1$",
    ),
    "nan-value": (
        lambda L: [*L[:6], _cell(L[6], 4, "nan"), *L[7:]],
        r"^trace line 7: v: finite number required, got 'nan'$",
    ),
    "duplicated-row": (
        lambda L: [*L[:7], L[6], *L[7:]],
        r"^trace line 8: repeats the opinion row for k=1, player=0, entry=0$",
    ),
    "short-row": (
        lambda L: [*L[:6], "opinion,1,0\n", *L[7:]],
        r"^trace line 7: opinion rows have 15 fields, the last 8 blank$",
    ),
    "abc-value": (
        lambda L: [*L[:6], _cell(L[6], 5, "abc"), *L[7:]],
        r"^trace line 7: x: finite number required, got 'abc'$",
    ),
}


class TestTraceRoundTrip:
    @pytest.mark.parametrize("name", ORACLE_TRACES)
    def test_dump_and_emit_match_the_reference_formatter(self, name, tmp_path):
        trace = ORACLE_TRACES[name]()
        expected = reference_dump(trace)
        assert dump_trace(trace) == expected
        emit_trace(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode()
        again = parse_trace(expected)
        assert (again.n, again.steps) == (trace.n, trace.steps)
        for array in TRACE_ARRAYS:
            assert np.array_equal(getattr(again, array), getattr(trace, array)), array

    @pytest.mark.parametrize("fault", MALFORMED_TRACES)
    def test_malformed_trace_is_rejected_naming_the_line_or_row(self, fault):
        edit, message = MALFORMED_TRACES[fault]
        lines = dump_trace(ORACLE_TRACES["two_player_learning_gamma05"]()).splitlines(keepends=True)
        with pytest.raises(ScenarioError, match=message):
            parse_trace("".join(edit(lines)))

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

    def test_header_only_for_empty_trace(self):
        empty = SimulationTrace.empty(2)
        assert dump_trace(empty).strip() == trace_header(2, 2)
        again = parse_trace(dump_trace(empty))
        assert again.opinions.shape == (0, 2, 2)

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
        paths = []
        for run in range(2):
            trace = self._trace()
            path = tmp_path / f"trace_{run}.csv"
            emit_trace(trace, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_emit_reports_path_on_failure(self, tmp_path):
        trace = self._trace()
        with pytest.raises(OSError, match="no/such"):
            emit_trace(trace, tmp_path / "no" / "such" / "dir.csv")


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

    def test_json_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": "simulate",\n  "n": oops\n}\n')
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"seed": None}, "seed"),
            ({"theta": 1.5}, "theta"),
            ({"kind": "dance"}, "kind"),
            ({"influence": [[1.0, 0.1], [0.4, 0.6]]}, "influence"),
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
        ],
    )
    def test_rejections_name_the_offending_key(self, patch, needle):
        raw = self._raw(**patch)
        if patch.get("seed", 0) is None:
            del raw["seed"]
        with pytest.raises(ScenarioError, match=needle):
            scenario_from_dict(raw)

    def test_influence_shape_validated_at_load(self):
        with pytest.raises(ScenarioError, match="influence"):
            scenario_from_dict(self._raw(influence=[[1.0]]))

    def test_generators_resolve_deterministically(self):
        raw = self._raw(
            influence="random_primitive", initial_opinions="random_supermodular"
        )
        a = scenario_from_dict(raw)
        b = scenario_from_dict(raw)
        np.testing.assert_array_equal(a.influence, b.influence)
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
        scenario = self._scenario_file(tmp_path, kind="efficiency")
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

    def test_exp_core_emptiness_without_data_exits_two(self, tmp_path, capsys):
        # at this sigma every trial from some n on exhausts the sampler
        scenario = self._scenario_file(
            tmp_path, kind="core-emptiness", trials=2, sigma=0.01, truth_family="mixed"
        )
        assert cli_main(["--json-summary", "exp-core-emptiness", str(scenario)]) == 2
        captured = capsys.readouterr()
        assert "sigma:" in captured.err and "Traceback" not in captured.err
        assert "NaN" not in captured.out

    def test_bad_scenario_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli_main(["simulate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diverging_run_exits_two(self, tmp_path, capsys):
        # theta / (2 p) overflows to inf, so the first revealed opinion is
        # not finite
        scenario = self._scenario_file(
            tmp_path,
            players=[
                {"kind": "nash", "risk_aversion": 1e-310},
                {"kind": "nash", "risk_aversion": 0.6363636363636364},
            ],
        )
        assert cli_main(["simulate", str(scenario)]) == 2
        assert "payoff values must be finite" in capsys.readouterr().err

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
        **_GAME,
        "initial_opinions": {"ground_truth": {"family": "quadratic", "sigma": 0.01}},
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
