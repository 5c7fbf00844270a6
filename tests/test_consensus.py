"""Influence weights, the update law on value stacks, averaging, and the
drift identity."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import consensusgame
from consensusgame.consensus import (
    ConsensusError,
    InfluenceMatrix,
    _is_primitive,
    deviation_disutility,
    influence_weights,
    strategic_update,
)
from consensusgame.harness import random_primitive_influence
from consensusgame.setfn import (
    SetFunction,
    SetFunctionError,
    is_supermodular,
    random_supermodular,
    weighted_average,
)

# the directory the package is imported from, for a subprocess to import it too
SOURCE = str(Path(consensusgame.__file__).resolve().parent.parent)

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


def exact_stationary(w: np.ndarray) -> list[Fraction]:
    """The stationary vector of the chain W's off-diagonal entries define, by
    exact Gauss-Jordan elimination on its balance equations
    t_j sum_{l != j} w_jl = sum_{i != j} t_i w_ij, the last replaced by sum t = 1.
    A float W's rows rarely sum to exactly 1, so W itself has no exact one."""
    n = len(w)
    f = [[Fraction(x) for x in row] for row in w.tolist()]
    rows = []
    for j in range(n - 1):
        row = [-f[i][j] for i in range(n)]
        row[j] = sum(f[j][l] for l in range(n) if l != j)
        rows.append([*row, Fraction(0)])
    rows.append([Fraction(1)] * (n + 1))
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                m = rows[r][c] / rows[c][c]
                rows[r] = [a - m * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def stochastic(w: np.ndarray) -> np.ndarray:
    return w / w.sum(axis=1, keepdims=True)


def random_primitive(rng: np.random.Generator):
    while True:
        yield random_primitive_influence(int(rng.integers(2, 13)), rng)


def slowly_mixing(rng: np.random.Generator):
    """Rows of uniform^8 + 1e-6: a few large entries, the rest near 1e-6."""
    while True:
        n = int(rng.integers(2, 9))
        yield stochastic(rng.uniform(size=(n, n)) ** 8 + 1e-6)


def two_blocks(rng: np.random.Generator):
    """Two dense blocks coupled at 1e-3 down to 1e-12."""
    for eps in np.geomspace(1e-3, 1e-12, 200):
        n = int(rng.integers(3, 9))
        cut = int(rng.integers(1, n))
        w = rng.uniform(0.1, 1.0, size=(n, n))
        w[:cut, cut:] *= eps
        w[cut:, :cut] *= eps
        yield stochastic(w)


INFLUENCE_FAMILIES = {
    "random_primitive": random_primitive,
    "uniform**8": slowly_mixing,
    "two_blocks": two_blocks,
}


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
        # two closed classes: neither player's opinion reaches the other
        with pytest.raises(ConsensusError, match="W is not primitive"):
            influence_weights(np.eye(2))

    def test_periodic_matrix_rejected(self):
        # W^2 = I: irreducible, but no power of W is positive
        with pytest.raises(ConsensusError, match="W is not primitive"):
            influence_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("eps", [1e-6, 1e-13])
    def test_slowly_mixing_matrix_solved(self, eps):
        # W^(2^20) is still far from rank one, but the balance eps t0 = 3 eps t1
        # holds at any eps: t = (3/4, 1/4)
        w = np.array([[1.0 - eps, eps], [3.0 * eps, 1.0 - 3.0 * eps]])
        np.testing.assert_allclose(influence_weights(w), [0.75, 0.25], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n, seed", [(3, 600), (5, 1418)])
    def test_polish_brings_the_residual_below_1e_15(self, n, seed):
        # rows of uniform^8 + 1e-6 mix slowly enough that repeated squaring
        # of W, stopped once a squaring moves no entry by 1e-12 and the
        # columns vary by no more than 1e-8, leaves t @ W - t above 1e-15;
        # the elimination needs no polish steps t W to land below it
        w = np.random.default_rng(seed).uniform(size=(n, n)) ** 8 + 1e-6
        w /= w.sum(axis=1, keepdims=True)
        power = w
        while True:
            nxt = power @ power
            settled = np.max(np.abs(nxt - power)) < 1e-12
            power = nxt
            if settled and np.max(np.ptp(power, axis=0)) <= 1e-8:
                break
        squared = power.mean(axis=0) / power.mean(axis=0).sum()
        assert np.max(np.abs(squared @ w - squared)) > 1e-15
        t = influence_weights(w)
        assert np.max(np.abs(t @ w - t)) < 1e-15

    @pytest.mark.parametrize("family", ["random_primitive", "uniform**8", "two_blocks"])
    def test_within_8_ulp_of_the_exact_solve(self, family):
        # every weight, small ones included, against the exact stationary
        # vector of the chain W's off-diagonal entries define
        rng = np.random.default_rng(0)
        for w in islice(INFLUENCE_FAMILIES[family](rng), 200):
            t, exact = influence_weights(w), exact_stationary(w)
            for got, want in zip(t.tolist(), exact):
                assert abs(Fraction(got) - want) <= 8 * Fraction(np.spacing(float(want))), w

    @pytest.mark.parametrize(
        "w",
        [
            # t0 / t1 = 1e-323: dividing by the 5e-324 entry overflows
            [[0.5, 0.5], [5e-324, 1.0]],
            # t1 / t0 is about 3e-324: the update of w_01 underflows to 0
            [[1.0, 0.0, 5e-324], [0.8, 0.2, 0.0], [0.5, 0.5, 0.0]],
        ],
    )
    def test_weights_beyond_the_float_range_rejected(self, w):
        # stochastic and primitive, but no float t is both finite and positive
        with pytest.raises(ConsensusError, match="span more than the float range"):
            influence_weights(np.array(w))

    def test_bits_do_not_depend_on_the_blas_kernel(self):
        # OpenBLAS kernels round W @ W differently; the elimination calls none
        code = (
            "import numpy as np\n"
            "from consensusgame.consensus import influence_weights\n"
            "from consensusgame.harness import random_primitive_influence\n"
            "w = random_primitive_influence(9, np.random.default_rng(0))\n"
            "print(influence_weights(w).tobytes().hex())\n"
        )
        pythonpath = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))
        outputs = set()
        for kernel in ("Haswell", "Sandybridge", "Prescott"):
            env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": pythonpath}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            outputs.add(run.stdout)
        assert len(outputs) == 1

    def test_reducible_matrix_with_one_closed_class_rejected(self):
        # W^k settles on identical rows (1, 0), but player 1's opinion never
        # reaches player 0: its weight would be a rounding residue, not 0
        for w in ([[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]):
            with pytest.raises(ConsensusError, match="W is not primitive"):
                InfluenceMatrix.from_matrix(w)

    def test_primitivity_against_powers_up_to_wielandts_bound(self):
        # a nonnegative matrix is primitive when some power is positive, and
        # Wielandt's (n - 1)^2 + 1 bounds the first such power
        rng = np.random.default_rng(17)
        seen = {True: 0, False: 0}
        for _ in range(300):
            n = int(rng.integers(1, 6))
            support = rng.random((n, n)) < rng.uniform(0.15, 0.6)
            power, positive = np.eye(n, dtype=int), False
            for _ in range((n - 1) ** 2 + 1):
                power = np.minimum(power @ support.astype(int), 1)
                positive |= bool(power.all())
            w = support * rng.uniform(0.1, 1.0, size=(n, n))
            assert _is_primitive(w) == positive
            seen[positive] += 1
        # Wielandt's own matrix: a cycle plus one chord, first positive at
        # power (n - 1)^2 + 1
        n = 5
        wielandt = np.roll(np.eye(n), 1, axis=1)
        wielandt[-1, 1] = 1.0
        assert _is_primitive(wielandt)
        assert np.linalg.matrix_power(wielandt, (n - 1) ** 2).min() == 0
        assert seen[True] > 30 and seen[False] > 30

    def test_non_stochastic_rejected(self):
        with pytest.raises(ConsensusError):
            influence_weights(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ConsensusError):
            influence_weights(np.array([[1.5, -0.5], [0.5, 0.5]]))
        for w in (np.ones(2), np.full((2, 3), 1.0 / 3.0)):
            with pytest.raises(ConsensusError, match="must be square"):
                influence_weights(w)

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

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9, 1.0])
    def test_update_written_into_out_has_the_bits_of_the_returned_one(self, theta):
        rng = np.random.default_rng(12)
        for n, m in [(2, 2), (3, 6), (5, 30), (9, 510)]:
            inf = random_influence(n, rng)
            v, x = rng.normal(size=(n, m)), rng.normal(size=(n, m))
            want = strategic_update(v, x, inf.w, theta)
            out = np.empty((n, m))
            assert strategic_update(v, x, inf.w, theta, out=out) is out
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
            # a row of a larger stack, as the dynamics write the next step
            stack = np.full((3, n, m), np.nan)
            strategic_update(v, x, inf.w, theta, out=stack[1])
            assert np.array_equal(stack[1].view(np.uint64), want.view(np.uint64))
            assert np.isnan(stack[[0, 2]]).all()

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

    def test_one_weight_per_player_required(self):
        with pytest.raises(ConsensusError, match="one weight per player"):
            deviation_disutility(np.zeros((3, 6)), np.array([0.5, 0.5]))

    def test_nonnegative_on_random_profiles(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            t = rng.dirichlet(np.ones(n))
            u = rng.normal(size=(n, 4))
            assert deviation_disutility(u, t) >= -1e-15

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_stack_of_profiles_matches_one_call_per_profile(self, n):
        rng = np.random.default_rng([23, n])
        t = rng.dirichlet(np.ones(n))
        stack = rng.normal(0, 0.1, size=(7, n, (1 << n) - 2))
        stacked = deviation_disutility(stack, t)
        assert stacked.shape == (7,)
        assert np.array_equal(stacked, [deviation_disutility(u, t) for u in stack])
        assert type(deviation_disutility(stack[0], t)) is float
        assert deviation_disutility(stack[:0], t).shape == (0,)


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
