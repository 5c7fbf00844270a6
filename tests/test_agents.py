"""Strategy formulas, stage rewards, stationarity, and the R-learner."""

import numpy as np
import pytest

from consensusgame.agents import (
    INTERCEPT_PRIOR,
    SLOPE_PRIOR,
    EnvironmentModel,
    PlayerParams,
    best_response_terms,
    nash_best_response,
    nash_deviation,
    respond,
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


def fit(model: EnvironmentModel, state: np.ndarray, targets) -> np.ndarray:
    """One step of a model: weigh the state once, predict there and update
    toward the targets; returns the predictions."""
    weights = model.weigh(state)
    predictions = model.predict(weights)
    model.update(weights, np.asarray(targets) - predictions)
    return predictions


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

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_common_shift_of_the_equilibrium_is_an_equilibrium(self, n):
        # with p proportional to t, every profile nash + 1 (x) c (one vector c
        # added to every player's lie) is a best-response fixed point: a line
        # of equilibria, along which nothing pulls c back to 0
        rng = np.random.default_rng(307 + n)
        w = rng.uniform(0.1, 1.0, size=(n, n))
        inf = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
        rows = shapley_linear_form(n).rows
        theta, p = 0.1, 2.0 * inf.t
        nash = equilibrium_profile(rows, theta, p)
        for _ in range(5):
            profile = nash + 1e-3 * rng.normal(size=rows.shape[1])
            for i in range(n):
                others = inf.t @ profile - inf.t[i] * profile[i]
                response = nash_best_response(rows[i], theta, p[i], float(inf.t[i]), others)
                np.testing.assert_allclose(response, profile[i], rtol=0, atol=1e-15)
        # a shift of one player's lie alone is not: the others respond to it
        profile = nash.copy()
        profile[0] += 1e-3
        others = inf.t @ profile - inf.t[1] * profile[1]
        response = nash_best_response(rows[1], theta, p[1], float(inf.t[1]), others)
        assert np.max(np.abs(response - profile[1])) > 1e-6

    def test_null_player_with_idle_opponents_stays_honest(self):
        u = nash_best_response(np.zeros(2), 0.1, 1.0, 0.3, np.zeros(2))
        np.testing.assert_array_equal(u, 0.0)

    def test_full_influence_rejected(self):
        with pytest.raises(SetFunctionError):
            nash_best_response(D2[0], 0.1, 1.0, 1.0, np.zeros(2))

    @pytest.mark.parametrize("p_i", [0.0, -1.0])
    def test_requires_positive_risk_aversion(self, p_i):
        with pytest.raises(SetFunctionError, match="^risk aversion must be positive$"):
            nash_best_response(D2[0], 0.1, p_i, 0.3, np.zeros(2))

    def test_a_stacked_lineup_is_its_row_calls_bit_for_bit(self):
        # (L, m) rows with (L, 1) columns p and t answer for L players at
        # once, each row the bits of its own call
        rng = np.random.default_rng(223)
        rows = shapley_linear_form(4).rows
        p, t = rng.uniform(0.1, 5.0, size=4), rng.dirichlet(np.ones(4))
        others = rng.normal(0.0, 0.1, size=rows.shape)
        stacked = nash_best_response(rows, 0.3, p[:, None], t[:, None], others)
        assert stacked.shape == rows.shape
        for i in range(4):
            row = nash_best_response(rows[i], 0.3, float(p[i]), float(t[i]), others[i])
            assert np.array_equal(stacked[i], row)

    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize(
        "name, bad, message",
        [
            ("p", 0.0, "^risk aversion must be positive$"),
            ("p", -1.0, "^risk aversion must be positive$"),
            ("t", 1.0, r"^best response requires t_i < 1, got 1\.0$"),
            ("t", -0.25, r"^best response requires t_i < 1, got -0\.25$"),
        ],
    )
    def test_a_bad_row_of_a_lineup_is_refused(self, row, name, bad, message):
        rows = shapley_linear_form(2).rows[[0, 1, 0]]
        columns = {"p": np.full((3, 1), 0.5), "t": np.full((3, 1), 0.3)}
        columns[name][row] = bad
        with pytest.raises(SetFunctionError, match=message):
            nash_best_response(rows, 0.1, columns["p"], columns["t"], np.zeros((3, 2)))


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


    def test_all_players_at_once_match_one_at_a_time(self):
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            rows = shapley_linear_form(n).rows
            u = rng.normal(0, 0.1, size=rows.shape)
            t = rng.dirichlet(np.ones(n))
            p = rng.uniform(0.5, 3.0, size=n)
            together = step_reward(u, t, p, 0.3, rows)
            given = step_reward(u, t, p, 0.3, rows, deviation_disutility(u, t))
            np.testing.assert_array_equal(given, together)
            for i in range(n):
                assert together[i] == step_reward(u, t, p[i], 0.3, rows[i])

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_stack_of_profiles_matches_one_call_per_profile(self, n):
        rng = np.random.default_rng([29, n])
        rows = shapley_linear_form(n).rows
        t = rng.dirichlet(np.ones(n))
        p = rng.uniform(0.5, 3.0, size=n)
        stack = rng.normal(0, 0.1, size=(6, *rows.shape))
        together = step_reward(stack, t, p, 0.3, rows)
        assert together.shape == (6, n)
        assert np.array_equal(together, [step_reward(u, t, p, 0.3, rows) for u in stack])
        given = step_reward(stack, t, p, 0.3, rows, deviation_disutility(stack, t))
        assert np.array_equal(given, together)
        one = step_reward(stack, t, p[0], 0.3, rows[0])
        assert one.shape == (6,)
        assert np.array_equal(one, [step_reward(u, t, p[0], 0.3, rows[0]) for u in stack])
        assert type(step_reward(stack[0], t, p[0], 0.3, rows[0])) is float
        assert step_reward(stack[:0], t, p, 0.3, rows).shape == (0, n)


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


class DenseRLS:
    """The oracle: the lineup's RLS fit in its textbook dense form, one
    (m + 1)^2 gain matrix downdated once per update and one coefficient
    matrix per learner, moved along the gain vector by its own error."""

    def __init__(self, dim, learners):
        self.gain = np.diag(np.concatenate([[INTERCEPT_PRIOR], np.full(dim, SLOPE_PRIOR)]))
        self.coeffs = [np.zeros((dim + 1, dim)) for _ in range(learners)]
        self.residual_var = np.zeros(learners)
        self.observations = 0

    def predict(self, state):
        phi = np.concatenate([[1.0], state])
        return np.array([coeffs.T @ phi for coeffs in self.coeffs])

    def update(self, state, errors):
        phi = np.concatenate([[1.0], state])
        denom = 1.0 + phi @ self.gain @ phi
        k = (self.gain @ phi) / denom
        self.gain -= np.outer(k, phi @ self.gain)
        self.observations += 1
        for j, (coeffs, error) in enumerate(zip(self.coeffs, errors)):
            coeffs += np.outer(k, error)
            sq = float(error @ error)
            self.residual_var[j] += (sq - self.residual_var[j]) / self.observations


class TestEnvironmentModel:
    def test_rejects_empty_states(self):
        with pytest.raises(SetFunctionError, match="needs dimension >= 1"):
            EnvironmentModel(dim=0, learners=1, horizon=5)

    def test_untrained_model_predicts_zero(self):
        model = EnvironmentModel(3, 2, 5)
        np.testing.assert_array_equal(model.predict(model.weigh(np.ones(3))), np.zeros((2, 3)))

    def test_repeated_observation_converges_to_target(self):
        model = EnvironmentModel(2, 1, 200)
        model.prior = np.array([1e4, 1e-3, 1e-3])  # a loose intercept prior
        s = np.array([0.3, 0.7])
        y = np.array([0.05, -0.02])
        for _ in range(200):
            fit(model, s, [y])
        np.testing.assert_allclose(model.predict(model.weigh(s))[0], y, atol=1e-6)

    def test_recovers_affine_map_from_noiseless_data(self):
        # with a flat prior, m + 1 affinely independent states identify the
        # map exactly
        rng = np.random.default_rng(17)
        dim = 3
        intercept = rng.normal(size=dim)
        slope = rng.normal(size=(dim, dim))
        model = EnvironmentModel(dim, 1, dim + 1)
        model.prior = np.full(dim + 1, 1e8)
        for _ in range(dim + 1):
            s = rng.normal(size=dim)
            fit(model, s, [intercept + slope @ s])
        for _ in range(5):
            s = rng.normal(size=dim)
            np.testing.assert_allclose(
                model.predict(model.weigh(s))[0], intercept + slope @ s, atol=1e-5
            )

    def test_default_prior_still_learns_with_enough_data(self):
        # the tight slope prior shrinks estimates, so convergence is slow by
        # design; the prediction error must still fall by an order of
        # magnitude once data swamps the prior
        rng = np.random.default_rng(19)
        dim, updates = 2, 20000
        intercept = np.array([0.03, -0.01])
        slope = 0.1 * rng.normal(size=(dim, dim))
        model = EnvironmentModel(dim, 1, updates)
        probe = rng.normal(size=dim)

        def error(s):
            return intercept + slope @ s - model.predict(model.weigh(s))[0]

        initial_err = float(np.max(np.abs(error(probe))))
        for _ in range(updates):
            s = rng.normal(size=dim)
            fit(model, s, [intercept + slope @ s])
        final_err = float(np.max(np.abs(error(probe))))
        assert final_err < initial_err / 10

    def test_residual_variance_tracks_noise(self):
        rng = np.random.default_rng(23)
        model = EnvironmentModel(1, 1, 500)
        for _ in range(500):
            fit(model, rng.normal(size=1), [rng.normal(0, 0.1, size=1)])
        assert 0.001 < model.residual_var[0] < 0.1

    def test_gain_depends_on_the_states_alone(self):
        # one lineup of 3 learners against 3 private one-learner models fed
        # the same states and targets: the gain vectors the lineup shares,
        # their denominators and every learner's prediction and residual
        # variance agree bit for bit, whatever the targets
        rng = np.random.default_rng(29)
        dim, updates = 6, 200
        lineup = EnvironmentModel(dim, 3, updates)
        private = [EnvironmentModel(dim, 1, updates) for _ in range(3)]
        for _ in range(updates):
            s = rng.normal(size=dim)
            targets = rng.normal(size=(3, dim))
            predictions = fit(lineup, s, targets)
            for model, target, prediction in zip(private, targets, predictions):
                assert np.array_equal(fit(model, s, [target])[0], prediction)
        assert not np.array_equal(predictions[0], predictions[1])
        for j, model in enumerate(private):
            assert np.array_equal(model.gains, lineup.gains)
            assert np.array_equal(model.denoms, lineup.denoms)
            assert model.residual_var[0] == lineup.residual_var[j]

    @pytest.mark.parametrize("dim", [2, 6, 14, 30, 62, 126, 254])
    def test_stacked_predictions_are_bit_equal_to_private_models(self, dim):
        # every state width m = 2^n - 2 of n = 2..8: each row of the lineup's
        # stacked product is bit for bit its learner's private prediction
        rng = np.random.default_rng([41, dim])
        learners, updates = 4, 40
        lineup = EnvironmentModel(dim, learners, updates)
        private = [EnvironmentModel(dim, 1, updates) for _ in range(learners)]
        for _ in range(updates):
            s = rng.uniform(size=dim)
            targets = rng.normal(0.0, 1e-3, size=(learners, dim))
            predictions = fit(lineup, s, targets)
            for model, target, prediction in zip(private, targets, predictions):
                assert np.array_equal(fit(model, s, [target])[0], prediction)
        assert lineup.observations == updates

    @pytest.mark.parametrize(
        "dim, learners",
        [(254, 8), (62, 6)],
        ids=["learn", "trace"],
    )
    def test_agrees_with_the_dense_form_at_the_benchmark_shapes(self, dim, learners):
        # 100 updates at the learn and trace benchmarks' shapes, each form
        # fed its own errors against the same random states and targets
        rng = np.random.default_rng(31)
        updates = 100
        dense = DenseRLS(dim, learners)
        sample = EnvironmentModel(dim, learners, updates)
        for _ in range(updates):
            s = rng.uniform(size=dim)
            targets = rng.normal(0.0, 1e-3, size=(learners, dim))
            want = dense.predict(s)
            got = fit(sample, s, targets)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            dense.update(s, targets - want)
        np.testing.assert_allclose(sample.residual_var, dense.residual_var, rtol=1e-12)
        assert sample.observations == dense.observations == updates

    def test_weighing_another_state_leaves_the_model_unchanged(self):
        # weighing and predicting at another state leave the model as it was:
        # an update learns from the weights it is given alone
        rng = np.random.default_rng(37)
        dim, learners = 5, 2
        fresh, reused = (EnvironmentModel(dim, learners, 4) for _ in range(2))
        for _ in range(4):
            s, other = rng.normal(size=(2, dim))
            errors = rng.normal(size=(learners, dim))
            reused.predict(reused.weigh(other))
            fresh.update(fresh.weigh(s), errors)
            reused.update(reused.weigh(s), errors)
        assert np.array_equal(fresh.gains, reused.gains)
        np.testing.assert_array_equal(
            fresh.predict(fresh.weigh(s)), reused.predict(reused.weigh(s))
        )


class TestRLearningAgent:
    """The "rlearning" kind: ``respond`` of a one-row lineup to a one-learner
    model's prediction."""

    PARAMS = dict(risk_aversion=0.4, kind="rlearning")

    def _respond(self, prediction, step, rng, **kw):
        params = PlayerParams(**self.PARAMS, **kw)
        terms = best_response_terms(D2[:1], 0.1, [[params.risk_aversion]], [[4.0 / 11.0]])
        return respond(terms, prediction[None], [params], step, rng)[0]

    def test_pure_exploitation_with_blank_model_is_unopposed_response(self):
        model = EnvironmentModel(2, 1, 1)
        state = np.array([0.4, 0.3])
        expected = nash_best_response(D2[0], 0.1, 0.4, 4.0 / 11.0, np.zeros(2))
        prediction = model.predict(model.weigh(state))[0]
        for step in range(5):
            action = self._respond(prediction, step, np.random.default_rng(0), exploit_prob=1.0)
            np.testing.assert_allclose(action, expected)

    def test_pure_exploration_perturbs_the_response(self):
        prediction = np.array([0.01, -0.02])
        base = self._respond(prediction, 0, np.random.default_rng(0), exploit_prob=1.0)
        rng = np.random.default_rng(1)
        actions = np.stack(
            [
                self._respond(prediction, step, rng, exploit_prob=0.0, explore_std=0.05)
                for step in range(20)
            ]
        )
        assert np.all(np.any(actions != base, axis=1))

    def test_exploration_scale_follows_the_step_index(self):
        # every learner acts once per step, so the step index k sets the
        # exploration scale explore_std * explore_decay**k
        prediction = np.array([0.01, -0.02])
        base = self._respond(prediction, 0, np.random.default_rng(0), exploit_prob=1.0)
        kw = dict(exploit_prob=0.0, explore_std=0.05, explore_decay=0.5)
        for step in (0, 3, 7):
            rng = np.random.default_rng(4)
            rng.uniform()
            noise = rng.normal(0.0, 0.05 * 0.5**step, size=2)
            action = self._respond(prediction, step, np.random.default_rng(4), **kw)
            np.testing.assert_array_equal(action, base + noise)

    def test_observation_feeds_opponent_model(self):
        model = EnvironmentModel(2, 1, 2000)
        state = np.array([0.4, 0.3])
        target = np.array([0.02, -0.01])
        for _ in range(2000):
            fit(model, state, [target])
        prediction = model.predict(model.weigh(state))[0]
        np.testing.assert_allclose(prediction, target, atol=1e-3)
        # the response now leans against the learned opponent deviation
        lean = self._respond(prediction, 0, np.random.default_rng(0), exploit_prob=1.0)
        expected = nash_best_response(
            D2[0], 0.1, 0.4, 4.0 / 11.0, (1 - 4.0 / 11.0) * prediction
        )
        np.testing.assert_allclose(lean, expected, atol=1e-12)

    def test_player_params_validation(self):
        with pytest.raises(SetFunctionError):
            PlayerParams(risk_aversion=-1.0)
        with pytest.raises(SetFunctionError):
            PlayerParams(risk_aversion=1.0, kind="bandit")
        with pytest.raises(SetFunctionError):
            PlayerParams(risk_aversion=1.0, exploit_prob=1.5)
        for bad in ({"explore_std": -0.1}, {"explore_decay": 0.0}, {"explore_decay": 1.5}):
            with pytest.raises(SetFunctionError, match="^bad exploration parameters$"):
                PlayerParams(risk_aversion=1.0, **bad)
        for name in ("risk_aversion", "exploit_prob", "explore_std", "explore_decay"):
            with pytest.raises(SetFunctionError, match=name):
                PlayerParams(**{"risk_aversion": 1.0, name: float("nan")})
