"""Influence weights, the update law on value stacks, averaging, and the
drift identity."""

from fractions import Fraction

import numpy as np
import pytest

from consensusgame.consensus import (
    ConsensusError,
    InfluenceMatrix,
    deviation_disutility,
    influence_weights,
    strategic_update,
)
from consensusgame.setfn import (
    SetFunction,
    SetFunctionError,
    is_supermodular,
    random_supermodular,
    weighted_average,
)

DEMO_W = np.array([[0.3, 0.7], [0.4, 0.6]])


def two_player_opinions() -> list[SetFunction]:
    return [
        SetFunction.from_restricted(2, [0.7, 0.1], 1.0),
        SetFunction.from_restricted(2, [0.3, 0.5], 1.0),
    ]


def stack(opinions) -> np.ndarray:
    """The value stack of a profile: one row of coalition values per player."""
    return np.stack([f.values for f in opinions])


def random_stack(n: int, rng: np.random.Generator) -> np.ndarray:
    return stack(random_supermodular(n, rng) for _ in range(n))


def truthful_update(v: np.ndarray, inf: InfluenceMatrix) -> np.ndarray:
    """Truthful mixing: the update law at theta = 1 with honest reveals."""
    return strategic_update(v, v, inf.w, 1.0)


def lie(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Revealed stack: lies u added to the restricted columns of v."""
    x = v.copy()
    x[:, 1:-1] += u
    return x


def random_influence(n: int, rng: np.random.Generator) -> InfluenceMatrix:
    w = rng.uniform(0.1, 1.0, size=(n, n))
    return InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))


class TestInfluenceWeights:
    def test_two_player_matrix_solved_by_hand(self):
        # stationarity: 0.7 t1 = 0.4 t2 with t1 + t2 = 1 gives (4/11, 7/11)
        t = influence_weights(DEMO_W)
        np.testing.assert_allclose(t, [4.0 / 11.0, 7.0 / 11.0], atol=1e-14)
        np.testing.assert_allclose(t @ DEMO_W, t, atol=1e-14)

    def test_doubly_stochastic_gives_uniform(self):
        w = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        np.testing.assert_allclose(influence_weights(w), 1.0 / 3.0, atol=1e-12)

    def test_identity_matrix_rejected(self):
        with pytest.raises(ConsensusError, match="rows disagree"):
            influence_weights(np.eye(2))

    def test_periodic_matrix_rejected(self):
        with pytest.raises(ConsensusError):
            influence_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_non_stochastic_rejected(self):
        with pytest.raises(ConsensusError):
            influence_weights(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ConsensusError):
            influence_weights(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_single_player(self):
        np.testing.assert_array_equal(influence_weights(np.ones((1, 1))), [1.0])

    def test_stationarity_residual_tight_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8):
            inf = random_influence(n, rng)
            assert np.max(np.abs(inf.t @ inf.w - inf.t)) < 1e-10
            assert abs(inf.t.sum() - 1.0) < 1e-12
            assert np.all(inf.t >= 0)


class TestStepTruthful:
    def test_one_step_matches_matrix_multiply(self):
        inf = InfluenceMatrix.from_matrix(DEMO_W)
        v = stack(two_player_opinions())
        nxt = truthful_update(v, inf)
        np.testing.assert_allclose(nxt[0, 1:-1], [0.42, 0.38], atol=1e-15)
        np.testing.assert_allclose(nxt[1, 1:-1], [0.46, 0.34], atol=1e-15)
        np.testing.assert_array_equal(nxt, inf.w @ v)

    def test_shared_opinion_is_fixed_point(self):
        f = random_supermodular(3, np.random.default_rng(5))
        inf = random_influence(3, np.random.default_rng(6))
        nxt = truthful_update(stack([f, f, f]), inf)
        for row in nxt:
            np.testing.assert_allclose(row, f.values, atol=1e-15)

    def test_supermodularity_preserved_stepwise(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            inf = random_influence(n, rng)
            v = random_stack(n, rng)
            for _ in range(20):
                v = truthful_update(v, inf)
                for row in v:
                    assert is_supermodular(SetFunction(n, row), tol=1e-12)

    def test_consensus_limit_is_weighted_initial_average(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 6):
            inf = random_influence(n, rng)
            v = random_stack(n, rng)
            target = inf.t @ v
            for _ in range(2000):
                nxt = truthful_update(v, inf)
                done = float(np.max(np.abs(nxt - v))) < 1e-14
                v = nxt
                if done:
                    break
            assert float(np.max(np.abs(v - target))) < 1e-8


class TestStepStrategic:
    def test_truthful_reveals_match_hand_arithmetic(self):
        # with x = v and theta = 0.1 the first player moves to
        # 0.1 * (0.42, 0.38) + 0.9 * (0.7, 0.1)
        v = stack(two_player_opinions())
        nxt = strategic_update(v, v, DEMO_W, theta=0.1)
        np.testing.assert_allclose(nxt[0, 1:-1], [0.672, 0.128], atol=1e-15)

    def test_theta_one_with_truthful_reveals_equals_truthful_step(self):
        rng = np.random.default_rng(10)
        for n in range(2, 7):
            inf = random_influence(n, rng)
            v = random_stack(n, rng)
            np.testing.assert_array_equal(strategic_update(v, v, inf.w, 1.0), inf.w @ v)

    def test_weighted_zero_sum_lies_leave_average_untouched(self):
        rng = np.random.default_rng(11)
        inf = random_influence(3, rng)
        t = inf.t
        v = random_stack(3, rng)
        before = t @ v
        u = rng.normal(0, 0.1, size=(3, 6))
        u[2] = -(t[0] * u[0] + t[1] * u[1]) / t[2]  # forces sum_i t_i u_i = 0
        after = t @ strategic_update(v, lie(v, u), inf.w, theta=0.3)
        np.testing.assert_allclose(after, before, atol=1e-12)


class TestAverageOpinion:
    def test_two_player_weighted_average(self):
        t = np.array([4.0 / 11.0, 7.0 / 11.0])
        avg = weighted_average(two_player_opinions(), t)
        np.testing.assert_allclose(avg.restricted(), [4.9 / 11.0, 3.9 / 11.0], atol=1e-15)

    def test_identical_opinions_average_to_themselves(self):
        f = random_supermodular(3, np.random.default_rng(13))
        avg = weighted_average([f, f, f], np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(avg.values, f.values, atol=1e-15)

    def test_is_the_weighted_average_of_the_opinions(self):
        # the average opinion of a value stack is t @ v, row for row the
        # weighted average of its payoff functions
        rng = np.random.default_rng(17)
        opinions = [random_supermodular(4, rng) for _ in range(4)]
        t = random_influence(4, rng).t
        np.testing.assert_array_equal(t @ stack(opinions), weighted_average(opinions, t).values)
        with pytest.raises(SetFunctionError, match="one weight per set function"):
            weighted_average(opinions, t[:3])


class TestDeviationDisutility:
    def test_equal_or_zero_lies_cost_nothing(self):
        t = np.array([0.4, 0.6])
        u = np.array([[0.3, -0.2], [0.3, -0.2]])
        assert deviation_disutility(u, t) == pytest.approx(0.0, abs=1e-15)
        assert deviation_disutility(np.zeros((2, 2)), t) == pytest.approx(0.0)

    def test_mean_zero_profile_value_recomputed_exactly(self):
        # equilibrium lies for theta = 0.1 and p_i = t_i; the weighted mean
        # vanishes so the disutility is the weighted sum of squares, worked
        # out in exact rational arithmetic
        t1, t2 = Fraction(4, 11), Fraction(7, 11)
        u1, u2 = Fraction(11, 160), Fraction(-11, 280)
        assert t1 * u1 + t2 * u2 == 0
        per_entry = t1 * u1**2 + t2 * u2**2
        expected = float(2 * per_entry)
        t = np.array([4.0 / 11.0, 7.0 / 11.0])
        u = np.array([[0.06875, -0.06875], [-float(Fraction(11, 280)), float(Fraction(11, 280))]])
        assert deviation_disutility(u, t) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.00540178571428571, abs=1e-15)

    def test_nonnegative_on_random_profiles(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            t = rng.dirichlet(np.ones(n))
            u = rng.normal(size=(n, 4))
            assert deviation_disutility(u, t) >= -1e-15


class TestDriftIdentity:
    def test_average_shift_equals_theta_times_deviation_sums(self):
        # along any strategic trajectory the average opinion moves by
        # theta times the weighted mean lie, accumulated over steps
        rng = np.random.default_rng(19)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 51))
            theta = float(rng.uniform(0.05, 0.95))
            inf = random_influence(n, rng)
            t = inf.t
            v = random_stack(n, rng)
            start = t @ v
            accumulated = np.zeros_like(start)
            for _ in range(horizon):
                u = rng.normal(0, 0.2, size=(n, (1 << n) - 2))
                accumulated[1:-1] += theta * (t @ u)
                v = strategic_update(v, lie(v, u), inf.w, theta)
            np.testing.assert_allclose(t @ v - start, accumulated, atol=1e-10)


class TestStrategicSupermodularClosure:
    def test_supermodular_reveals_keep_opinions_supermodular(self):
        # reveals are convex mixes of the current opinion and a fresh
        # supermodular function, so they stay inside the cone by design
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            theta = float(rng.uniform(0.1, 0.9))
            inf = random_influence(n, rng)
            v = random_stack(n, rng)
            for _ in range(15):
                reveals = []
                for row in v:
                    mix = float(rng.uniform(0, 0.5))
                    reveals.append(
                        weighted_average(
                            [SetFunction(n, row), random_supermodular(n, rng)], [1 - mix, mix]
                        )
                    )
                assert all(is_supermodular(x, tol=1e-12) for x in reveals)
                v = strategic_update(v, stack(reveals), inf.w, theta)
                for row in v:
                    assert is_supermodular(SetFunction(n, row), tol=1e-12)
