"""Influence weights, both update laws, averaging, and the drift identity."""

from fractions import Fraction

import numpy as np
import pytest

from consensusgame.consensus import (
    ConsensusError,
    InfluenceMatrix,
    OpinionProfile,
    average_opinion,
    deviation_disutility,
    influence_weights,
    step_strategic,
    step_truthful,
)
from consensusgame.setfn import (
    SetFunction,
    SetFunctionError,
    is_supermodular,
    random_supermodular,
    weighted_average,
)

DEMO_W = np.array([[0.3, 0.7], [0.4, 0.6]])


def two_player_profile() -> OpinionProfile:
    return OpinionProfile(
        0,
        (
            SetFunction.from_restricted(2, [0.7, 0.1], 1.0),
            SetFunction.from_restricted(2, [0.3, 0.5], 1.0),
        ),
    )


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
        nxt = step_truthful(two_player_profile(), inf)
        np.testing.assert_allclose(nxt.opinions[0].restricted(), [0.42, 0.38], atol=1e-15)
        np.testing.assert_allclose(nxt.opinions[1].restricted(), [0.46, 0.34], atol=1e-15)
        assert nxt.revealed == nxt.opinions
        assert nxt.step == 1

    def test_shared_opinion_is_fixed_point(self):
        f = random_supermodular(3, np.random.default_rng(5))
        inf = random_influence(3, np.random.default_rng(6))
        profile = OpinionProfile(0, (f, f, f))
        nxt = step_truthful(profile, inf)
        for g in nxt.opinions:
            np.testing.assert_allclose(g.values, f.values, atol=1e-15)

    def test_supermodularity_preserved_stepwise(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            inf = random_influence(n, rng)
            profile = OpinionProfile(0, tuple(random_supermodular(n, rng) for _ in range(n)))
            for _ in range(20):
                profile = step_truthful(profile, inf)
                for f in profile.opinions:
                    assert is_supermodular(f, tol=1e-12)

    def test_consensus_limit_is_weighted_initial_average(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 6):
            inf = random_influence(n, rng)
            profile = OpinionProfile(0, tuple(random_supermodular(n, rng) for _ in range(n)))
            target = average_opinion(profile, inf.t)
            for _ in range(2000):
                nxt = step_truthful(profile, inf)
                done = max(
                    float(np.max(np.abs(a.values - b.values)))
                    for a, b in zip(nxt.opinions, profile.opinions)
                ) < 1e-14
                profile = nxt
                if done:
                    break
            spread = max(
                float(np.max(np.abs(f.values - target.values))) for f in profile.opinions
            )
            assert spread < 1e-8


class TestStepStrategic:
    def test_truthful_reveals_match_hand_arithmetic(self):
        # with x = v and theta = 0.1 the first player moves to
        # 0.1 * (0.42, 0.38) + 0.9 * (0.7, 0.1)
        inf = InfluenceMatrix.from_matrix(DEMO_W)
        profile = two_player_profile()
        profile = profile.with_revealed(profile.opinions)
        nxt = step_strategic(profile, inf, theta=0.1)
        np.testing.assert_allclose(nxt.opinions[0].restricted(), [0.672, 0.128], atol=1e-15)
        assert nxt.revealed is None

    def test_theta_one_with_truthful_reveals_equals_truthful_step(self):
        inf = InfluenceMatrix.from_matrix(DEMO_W)
        profile = two_player_profile()
        truthful = step_truthful(profile, inf)
        strategic = step_strategic(profile.with_revealed(profile.opinions), inf, theta=1.0)
        for a, b in zip(truthful.opinions, strategic.opinions):
            np.testing.assert_allclose(a.values, b.values, atol=1e-15)

    def test_requires_revealed_opinions(self):
        inf = InfluenceMatrix.from_matrix(DEMO_W)
        with pytest.raises(ConsensusError, match="revealed"):
            step_strategic(two_player_profile(), inf, theta=0.1)

    def test_weighted_zero_sum_lies_leave_average_untouched(self):
        rng = np.random.default_rng(11)
        inf = random_influence(3, rng)
        t = inf.t
        profile = OpinionProfile(0, tuple(random_supermodular(3, rng) for _ in range(3)))
        before = average_opinion(profile, t)
        u = rng.normal(0, 0.1, size=(3, 6))
        u[2] = -(t[0] * u[0] + t[1] * u[1]) / t[2]  # forces sum_i t_i u_i = 0
        revealed = tuple(
            SetFunction.from_restricted(3, f.restricted() + u[i], f.grand_value)
            for i, f in enumerate(profile.opinions)
        )
        nxt = step_strategic(profile.with_revealed(revealed), inf, theta=0.3)
        after = average_opinion(nxt, t)
        np.testing.assert_allclose(after.values, before.values, atol=1e-12)


class TestAverageOpinion:
    def test_two_player_weighted_average(self):
        profile = two_player_profile()
        avg = average_opinion(profile, np.array([4.0 / 11.0, 7.0 / 11.0]))
        np.testing.assert_allclose(avg.restricted(), [4.9 / 11.0, 3.9 / 11.0], atol=1e-15)

    def test_identical_opinions_average_to_themselves(self):
        f = random_supermodular(3, np.random.default_rng(13))
        profile = OpinionProfile(0, (f, f, f))
        avg = average_opinion(profile, np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(avg.values, f.values, atol=1e-15)

    def test_is_the_weighted_average_of_the_opinions(self):
        rng = np.random.default_rng(17)
        profile = OpinionProfile(0, tuple(random_supermodular(4, rng) for _ in range(4)))
        t = random_influence(4, rng).t
        avg = average_opinion(profile, t)
        np.testing.assert_array_equal(avg.values, weighted_average(list(profile.opinions), t).values)
        with pytest.raises(SetFunctionError, match="one weight per set function"):
            average_opinion(profile, t[:3])


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
            profile = OpinionProfile(
                0, tuple(random_supermodular(n, rng) for _ in range(n))
            )
            start = average_opinion(profile, t).values
            accumulated = np.zeros_like(start)
            for _ in range(horizon):
                u = rng.normal(0, 0.2, size=(n, (1 << n) - 2))
                revealed = tuple(
                    SetFunction.from_restricted(n, f.restricted() + u[i], f.grand_value)
                    for i, f in enumerate(profile.opinions)
                )
                mean_dev = t @ u
                accumulated[1:-1] += theta * mean_dev
                profile = step_strategic(profile.with_revealed(revealed), inf, theta)
            end = average_opinion(profile, t).values
            np.testing.assert_allclose(end - start, accumulated, atol=1e-10)


class TestStrategicSupermodularClosure:
    def test_supermodular_reveals_keep_opinions_supermodular(self):
        # reveals are convex mixes of the current opinion and a fresh
        # supermodular function, so they stay inside the cone by design
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(2, 6))
            theta = float(rng.uniform(0.1, 0.9))
            inf = random_influence(n, rng)
            profile = OpinionProfile(
                0, tuple(random_supermodular(n, rng) for _ in range(n))
            )
            for _ in range(15):
                reveals = []
                for f in profile.opinions:
                    mix = float(rng.uniform(0, 0.5))
                    reveals.append(
                        weighted_average([f, random_supermodular(n, rng)], [1 - mix, mix])
                    )
                assert all(is_supermodular(x, tol=1e-12) for x in reveals)
                profile = step_strategic(profile.with_revealed(tuple(reveals)), inf, theta)
                for f in profile.opinions:
                    assert is_supermodular(f, tol=1e-12)


class TestParamsAndProfiles:
    def test_profile_requires_one_opinion_per_player(self):
        f = random_supermodular(3, np.random.default_rng(29))
        with pytest.raises(ConsensusError):
            OpinionProfile(0, (f, f))
