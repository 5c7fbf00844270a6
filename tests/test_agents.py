"""Strategy formulas, stage rewards, stationarity, and the learning agent."""

import numpy as np
import pytest

from consensusgame.agents import (
    EnvironmentModel,
    PlayerParams,
    RLearningAgent,
    nash_best_response,
    nash_deviation,
    stage_cost,
    step_reward,
)
from consensusgame.consensus import InfluenceMatrix, deviation_disutility, strategic_update
from consensusgame.setfn import SetFunctionError, random_supermodular
from consensusgame.shapley import shapley_linear_form

T2 = np.array([4.0 / 11.0, 7.0 / 11.0])
D2 = shapley_linear_form(2).rows


def equilibrium_profile(rows: np.ndarray, theta: float, p: np.ndarray) -> np.ndarray:
    return np.stack([nash_deviation(rows[i], theta, p[i]) for i in range(len(p))])


class TestNashDeviation:
    def test_two_player_worked_example(self):
        u1 = nash_deviation(D2[0], theta=0.1, p_i=4.0 / 11.0)
        np.testing.assert_allclose(u1, [0.06875, -0.06875], atol=1e-15)

    def test_vanishes_as_trust_vanishes(self):
        for theta in (1e-3, 1e-6, 0.0):
            u = nash_deviation(D2[0], theta, p_i=0.5)
            assert np.max(np.abs(u)) <= theta

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_weighted_mean_lie_vanishes_when_p_tracks_influence(self, n):
        rng = np.random.default_rng(101 + n)
        w = rng.uniform(0.1, 1.0, size=(n, n))
        inf = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
        rows = shapley_linear_form(n).rows
        p = 1.7 * inf.t
        profile = equilibrium_profile(rows, 0.3, p)
        np.testing.assert_allclose(inf.t @ profile, 0.0, atol=1e-15)

    def test_requires_positive_risk_aversion(self):
        with pytest.raises(SetFunctionError):
            nash_deviation(D2[0], 0.1, 0.0)


class TestNashBestResponse:
    def test_unopposed_response_formula(self):
        # with nobody else lying the response is d theta / (2 p (1 - t))
        theta, p1, t1 = 0.1, 0.4, 4.0 / 11.0
        u = nash_best_response(D2[0], theta, p1, t1, np.zeros(2))
        np.testing.assert_allclose(u, D2[0] * theta / (2 * p1 * (1 - t1)), atol=1e-16)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equilibrium_is_its_own_best_response(self, n):
        rng = np.random.default_rng(211 + n)
        w = rng.uniform(0.1, 1.0, size=(n, n))
        inf = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
        rows = shapley_linear_form(n).rows
        theta, p_o = 0.25, 2.0
        p = p_o * inf.t
        profile = equilibrium_profile(rows, theta, p)
        for i in range(n):
            others = inf.t @ profile - inf.t[i] * profile[i]
            response = nash_best_response(rows[i], theta, p[i], float(inf.t[i]), others)
            np.testing.assert_allclose(response, profile[i], atol=1e-14)

    def test_null_player_with_idle_opponents_stays_honest(self):
        u = nash_best_response(np.zeros(2), 0.1, 1.0, 0.3, np.zeros(2))
        np.testing.assert_array_equal(u, 0.0)

    def test_full_influence_rejected(self):
        with pytest.raises(SetFunctionError):
            nash_best_response(D2[0], 0.1, 1.0, 1.0, np.zeros(2))


class TestStepReward:
    def test_no_lies_no_reward(self):
        u = np.zeros((2, 2))
        assert step_reward(u, T2, 1.0, 0.1, D2[0]) == 0.0

    def test_identical_lies_reward_is_pure_shapley_shift(self):
        shared = np.array([0.2, -0.1])
        u = np.stack([shared, shared])
        expected = 0.1 * float(D2[0] @ shared)
        assert step_reward(u, T2, 3.0, 0.1, D2[0]) == pytest.approx(expected, abs=1e-15)

    def test_equilibrium_reward_is_negative_disutility_term(self):
        theta = 0.1
        p = 1.0 * T2
        profile = equilibrium_profile(D2, theta, p)
        for i in range(2):
            r = step_reward(profile, T2, p[i], theta, D2[i])
            expected = -p[i] * deviation_disutility(profile, T2)
            assert r == pytest.approx(expected, abs=1e-15)
            assert r < 0


class TestMyopicDecomposition:
    def test_multistep_objective_splits_into_stage_costs(self):
        # total objective: p * accumulated disutility - d . final average,
        # which must equal the stage-cost sum minus d . initial average
        rng = np.random.default_rng(307)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 30))
            theta = float(rng.uniform(0.1, 0.9))
            w = rng.uniform(0.1, 1.0, size=(n, n))
            inf = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
            rows = shapley_linear_form(n).rows
            p_i = float(rng.uniform(0.5, 3.0))
            player = int(rng.integers(0, n))
            v = np.stack([random_supermodular(n, rng).values for _ in range(n)])
            start_avg = (inf.t @ v)[1:-1]
            total_disutility = 0.0
            stage_sum = 0.0
            for _ in range(horizon):
                u = rng.normal(0, 0.15, size=(n, (1 << n) - 2))
                total_disutility += deviation_disutility(u, inf.t)
                stage_sum += stage_cost(u, inf.t, p_i, theta, rows[player])
                x = v.copy()
                x[:, 1:-1] += u
                v = strategic_update(v, x, inf.w, theta)
            end_avg = (inf.t @ v)[1:-1]
            objective = p_i * total_disutility - float(rows[player] @ end_avg)
            decomposed = stage_sum - float(rows[player] @ start_avg)
            assert objective == pytest.approx(decomposed, abs=1e-10)


class TestEquilibriumStationarity:
    @pytest.mark.parametrize("n", [2, 4])
    def test_finite_difference_gradient_vanishes(self, n):
        rng = np.random.default_rng(401 + n)
        w = rng.uniform(0.1, 1.0, size=(n, n))
        inf = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
        rows = shapley_linear_form(n).rows
        theta, p_o, delta = 0.1, 1.0, 1e-3
        p = p_o * inf.t
        profile = equilibrium_profile(rows, theta, p)
        m = (1 << n) - 2
        for i in range(n):
            for coord in range(m):
                bumped_up = profile.copy()
                bumped_up[i, coord] += delta
                bumped_down = profile.copy()
                bumped_down[i, coord] -= delta
                up = stage_cost(bumped_up, inf.t, p[i], theta, rows[i])
                down = stage_cost(bumped_down, inf.t, p[i], theta, rows[i])
                gradient = (up - down) / (2 * delta)
                assert abs(gradient) < 1e-6


class TestEnvironmentModel:
    def test_untrained_model_predicts_zero(self):
        model = EnvironmentModel(3)
        np.testing.assert_array_equal(model.predict(np.array([0.2, -0.1, 0.4])), 0.0)

    def test_repeated_observation_converges_to_target(self):
        model = EnvironmentModel(2, intercept_scale=1e4)
        s = np.array([0.3, 0.7])
        y = np.array([0.05, -0.02])
        for _ in range(200):
            model.update(s, y)
        np.testing.assert_allclose(model.predict(s), y, atol=1e-6)

    def test_recovers_affine_map_from_noiseless_data(self):
        # with a flat prior, m + 1 affinely independent states identify the
        # map exactly
        rng = np.random.default_rng(17)
        dim = 3
        intercept = rng.normal(size=dim)
        slope = rng.normal(size=(dim, dim))
        model = EnvironmentModel(dim, intercept_scale=1e8, slope_scale=1e8)
        for _ in range(dim + 1):
            s = rng.normal(size=dim)
            model.update(s, intercept + slope @ s)
        for _ in range(5):
            s = rng.normal(size=dim)
            np.testing.assert_allclose(model.predict(s), intercept + slope @ s, atol=1e-5)

    def test_default_prior_still_learns_with_enough_data(self):
        # the tight slope prior shrinks estimates, so convergence is slow by
        # design; the prediction error must still fall by an order of
        # magnitude once data swamps the prior
        rng = np.random.default_rng(19)
        dim = 2
        intercept = np.array([0.03, -0.01])
        slope = 0.1 * rng.normal(size=(dim, dim))
        model = EnvironmentModel(dim)
        probe = rng.normal(size=dim)
        initial_err = float(np.max(np.abs(model.predict(probe) - (intercept + slope @ probe))))
        for _ in range(20000):
            s = rng.normal(size=dim)
            model.update(s, intercept + slope @ s)
        final_err = float(np.max(np.abs(model.predict(probe) - (intercept + slope @ probe))))
        assert final_err < initial_err / 10

    def test_residual_variance_tracks_noise(self):
        rng = np.random.default_rng(23)
        model = EnvironmentModel(1)
        for _ in range(500):
            model.update(rng.normal(size=1), rng.normal(0, 0.1, size=1))
        assert 0.001 < model.residual_var < 0.1

    def test_gain_depends_on_the_states_alone(self):
        # the invariant a lineup's shared gain rests on: models with the same
        # prior fed the same states end with bit-identical gains, whatever
        # their targets
        rng = np.random.default_rng(29)
        dim = 6
        models = [EnvironmentModel(dim) for _ in range(3)]
        for _ in range(200):
            s = rng.normal(size=dim)
            for model in models:
                model.update(s, rng.normal(size=dim))
        assert not np.array_equal(models[0].coeffs, models[1].coeffs)
        for model in models[1:]:
            assert np.array_equal(model.gain, models[0].gain)


class TestRLearningAgent:
    def _agent(self, **kw) -> RLearningAgent:
        params = PlayerParams(risk_aversion=0.4, kind="rlearning", **kw)
        return RLearningAgent(D2[0], theta=0.1, t_i=4.0 / 11.0, params=params)

    def test_pure_exploitation_with_blank_model_is_unopposed_response(self):
        agent = self._agent(exploit_prob=1.0)
        state = np.array([0.4, 0.3])
        expected = nash_best_response(D2[0], 0.1, 0.4, 4.0 / 11.0, np.zeros(2))
        for _ in range(5):
            np.testing.assert_allclose(agent.act(state, np.random.default_rng(0)), expected)

    def test_pure_exploration_perturbs_the_response(self):
        agent = self._agent(exploit_prob=0.0, explore_std=0.05)
        state = np.array([0.4, 0.3])
        base = agent.best_response(agent.model.predict(state))
        rng = np.random.default_rng(1)
        actions = np.stack([agent.act(state, rng) for _ in range(20)])
        assert np.all(np.any(actions != base, axis=1))

    def test_act_is_the_response_to_the_model_prediction(self):
        agent, twin = self._agent(), self._agent()
        for model in (agent.model, twin.model):
            model.update(np.array([0.4, 0.3]), np.array([0.02, -0.01]))
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        for state in np.random.default_rng(5).uniform(size=(10, 2)):
            np.testing.assert_array_equal(
                agent.act(state, rng_a), twin.respond(twin.model.predict(state), rng_b)
            )

    def test_observation_feeds_opponent_model(self):
        agent = self._agent(exploit_prob=1.0)
        state = np.array([0.4, 0.3])
        target = np.array([0.02, -0.01])
        for _ in range(2000):
            agent.observe(state, target, -0.05)
        prediction = agent.model.predict(state)
        np.testing.assert_allclose(prediction, target, atol=1e-3)
        # the response now leans against the learned opponent deviation
        lean = agent.best_response(prediction)
        expected = nash_best_response(
            D2[0], 0.1, 0.4, 4.0 / 11.0, (1 - 4.0 / 11.0) * prediction
        )
        np.testing.assert_allclose(lean, expected, atol=1e-12)

    def test_average_reward_bookkeeping_moves_toward_rewards(self):
        agent = self._agent(avg_reward_rate=0.05)
        for _ in range(400):
            agent.observe(np.zeros(2), np.zeros(2), -1.0)
        assert agent.avg_reward == pytest.approx(-1.0, abs=1e-6)

    def test_player_params_validation(self):
        with pytest.raises(SetFunctionError):
            PlayerParams(risk_aversion=-1.0)
        with pytest.raises(SetFunctionError):
            PlayerParams(risk_aversion=1.0, kind="bandit")
        with pytest.raises(SetFunctionError):
            PlayerParams(risk_aversion=1.0, exploit_prob=1.5)
        for name in ("risk_aversion", "value_rate", "avg_reward_rate"):
            with pytest.raises(SetFunctionError, match=name):
                PlayerParams(**{"risk_aversion": 1.0, name: float("nan")})
