"""Shapley allocation against the permutation oracle, plus the linear form."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensusgame.core import core_contains
from consensusgame.setfn import SetFunction, SetFunctionError, membership_matrix, random_supermodular
from consensusgame.shapley import (
    Allocation,
    ShapleyLinearForm,
    shapley_linear_form,
    shapley_payoffs,
    shapley_value,
    shapley_weights,
)


def shapley_by_permutations(f: SetFunction) -> np.ndarray:
    """Oracle: average marginal contribution over every player ordering."""
    n = f.n
    totals = np.zeros(n)
    count = 0
    for order in itertools.permutations(range(n)):
        mask = 0
        for player in order:
            totals[player] += f(mask | (1 << player)) - f(mask)
            mask |= 1 << player
        count += 1
    return totals / count


def shapley_by_coalition_sums(f: SetFunction) -> np.ndarray:
    """Oracle: the direct coalition-sum formula with its index arrays and
    weights rebuilt on every call, one np.sum per player."""
    n = f.n
    masks = np.arange(1 << n)
    sizes = np.bitwise_count(masks)
    weight_by_size = shapley_weights(n)
    payoffs = np.empty(n)
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        payoffs[i] = np.sum(
            weight_by_size[sizes[without]] * (f.values[without | bit] - f.values[without])
        )
    return payoffs


def linear_form_by_indicators(n: int) -> np.ndarray:
    """Oracle: linear-form rows by differencing coalition-sum Shapley values
    of indicators.

    The function worth 1 only at the grand coalition allocates the base
    payoffs; adding a unit indicator at one proper coalition and
    differencing recovers that coalition's coefficient column.
    """
    base_vals = np.zeros(1 << n)
    base_vals[-1] = 1.0
    base = shapley_by_coalition_sums(SetFunction(n, base_vals))
    rows = np.empty((n, (1 << n) - 2))
    for col in range(rows.shape[1]):
        vals = base_vals.copy()
        vals[col + 1] += 1.0
        rows[:, col] = shapley_by_coalition_sums(SetFunction(n, vals)) - base
    return rows


def random_normalized(n: int, rng: np.random.Generator) -> SetFunction:
    vals = np.concatenate([[0.0], rng.uniform(-1, 1, size=(1 << n) - 2), [1.0]])
    return SetFunction(n, vals)


class TestShapleyValue:
    def test_two_player_initial_opinion(self):
        f = SetFunction.from_restricted(2, [0.7, 0.1], 1.0)
        np.testing.assert_allclose(shapley_value(f).payoffs, [0.8, 0.2], atol=1e-15)
        np.testing.assert_allclose(shapley_by_permutations(f), [0.8, 0.2], atol=1e-15)

    def test_null_player_gets_nothing(self):
        # player 2 never adds value: f depends only on membership of {0, 1}
        vals = np.zeros(8)
        for mask in range(8):
            vals[mask] = 0.25 * bin(mask & 0b011).count("1") ** 2
        f = SetFunction(3, vals)
        assert abs(shapley_value(f).payoffs[2]) < 1e-15

    def test_symmetric_players_paid_equally(self):
        sizes = np.bitwise_count(np.arange(16)).astype(float)
        f = SetFunction(4, sizes**2)
        pay = shapley_value(f).payoffs
        np.testing.assert_allclose(pay, pay[0], atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_permutation_oracle(self, n):
        rng = np.random.default_rng(17 + n)
        for _ in range(10):
            vals = np.concatenate([[0.0], rng.normal(0, 1, size=(1 << n) - 1)])
            f = SetFunction(n, vals)
            np.testing.assert_allclose(
                shapley_value(f).payoffs, shapley_by_permutations(f), atol=1e-12
            )

    @pytest.mark.parametrize("n", [*range(1, 13), 15, 16])
    def test_agrees_with_rebuilt_coalition_sums(self, n):
        rng = np.random.default_rng(29 + n)
        for _ in range(5):
            vals = np.concatenate([[0.0], rng.normal(0, 1, size=(1 << n) - 1)])
            f = SetFunction(n, vals)
            np.testing.assert_allclose(
                shapley_value(f).payoffs, shapley_by_coalition_sums(f), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("n", [*range(1, 13), 15, 16])
    def test_stack_gives_the_bits_of_one_call_per_vector(self, n):
        # the Bayesian-core fast path decides a batch of profiles at once
        rng = np.random.default_rng([41, n])
        for count in (1, 2, 7, 64):
            stack = np.concatenate(
                [np.zeros((count, 1)), rng.normal(0, 1, size=(count, (1 << n) - 1))], axis=1
            )
            stacked = shapley_payoffs(stack, n)
            assert stacked.shape == (count, n)
            assert np.array_equal(stacked, [shapley_payoffs(vals, n) for vals in stack])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_efficiency(self, n):
        rng = np.random.default_rng(23 + n)
        vals = np.concatenate([[0.0], rng.normal(0, 1, size=(1 << n) - 1)])
        f = SetFunction(n, vals)
        assert abs(shapley_value(f).payoffs.sum() - f.grand_value) < 1e-12

    @given(
        n=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
        alpha=st.floats(min_value=-2, max_value=2),
        beta=st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, n, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        fv = np.concatenate([[0.0], rng.normal(0, 1, size=(1 << n) - 1)])
        gv = np.concatenate([[0.0], rng.normal(0, 1, size=(1 << n) - 1)])
        combo = SetFunction(n, alpha * fv + beta * gv)
        expected = alpha * shapley_value(SetFunction(n, fv)).payoffs + beta * shapley_value(
            SetFunction(n, gv)
        ).payoffs
        np.testing.assert_allclose(shapley_value(combo).payoffs, expected, atol=1e-10)

    def test_supermodular_shapley_lands_in_core(self):
        rng = np.random.default_rng(29)
        for n in range(2, 7):
            f = random_supermodular(n, rng)
            assert core_contains(f, shapley_value(f).payoffs, tol=1e-9)


class TestLinearForm:
    def test_two_player_rows_are_half_antisymmetric(self):
        form = shapley_linear_form(2)
        np.testing.assert_allclose(form.rows[0], [0.5, -0.5], atol=1e-15)
        np.testing.assert_allclose(form.rows[1], [-0.5, 0.5], atol=1e-15)
        assert form.offset == 0.5

    @pytest.mark.parametrize("n", range(2, 10))
    def test_rows_bitwise_equal_indicator_oracle(self, n):
        # traces are a byte-for-byte contract, so agreement must be exact
        assert np.array_equal(shapley_linear_form(n).rows, linear_form_by_indicators(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_sum_to_zero(self, n):
        form = shapley_linear_form(n)
        np.testing.assert_allclose(form.rows.sum(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_agrees_with_direct_formula_on_normalized_functions(self, n):
        form = shapley_linear_form(n)
        rng = np.random.default_rng(31 + n)
        for _ in range(100 if n == 2 else 10):
            f = random_normalized(n, rng)
            np.testing.assert_allclose(
                form.apply(f).payoffs, shapley_value(f).payoffs, atol=1e-12
            )

    def test_agrees_on_random_supermodular_three_player(self):
        form = shapley_linear_form(3)
        rng = np.random.default_rng(37)
        for _ in range(50):
            f = random_supermodular(3, rng)
            np.testing.assert_allclose(
                1.0 / 3.0 + form.rows @ f.restricted(),
                shapley_value(f).payoffs,
                atol=1e-12,
            )

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_stack_of_vectors_matches_one_call_per_vector(self, n):
        form = shapley_linear_form(n)
        stack = np.random.default_rng([31, n]).uniform(size=(5, (1 << n) - 2))
        stacked = form.apply_restricted(stack)
        assert stacked.shape == (5, n)
        assert np.array_equal(stacked, [form.apply_restricted(r) for r in stack])
        # one vector: a matrix-vector product, as it always was
        assert np.array_equal(form.apply_restricted(stack[0]), form.offset + form.rows @ stack[0])

    def test_rejects_unnormalized_function(self):
        form = shapley_linear_form(2)
        with pytest.raises(SetFunctionError):
            form.apply(SetFunction.from_restricted(2, [0.1, 0.1], grand=2.0))

    def test_rejects_a_function_of_another_player_count(self):
        with pytest.raises(SetFunctionError, match="^player count mismatch$"):
            shapley_linear_form(2).apply(random_supermodular(3, np.random.default_rng(0)))

    def test_rows_must_be_one_per_player_and_proper_coalition(self):
        with pytest.raises(SetFunctionError, match=r"^expected rows of shape \(2, 2\)$"):
            ShapleyLinearForm(2, np.zeros((2, 3)))

    def test_rows_a_caller_can_write_are_copied(self):
        rows = shapley_linear_form(3).rows
        assert ShapleyLinearForm(3, rows).rows is rows
        writable = rows.copy()
        form = ShapleyLinearForm(3, writable)
        assert form.rows is not writable and not form.rows.flags.writeable
        view = writable[:]
        view.setflags(write=False)
        assert ShapleyLinearForm(3, view).rows.base is None

    def test_building_the_form_at_sixteen_players_keeps_one_copy_of_the_rows(self):
        membership_matrix(16)  # cached once per n, and read here
        tracemalloc.start()
        try:
            form = shapley_linear_form.__wrapped__(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert form.rows.flags.c_contiguous and not form.rows.flags.writeable
        assert peak < 1.5 * form.rows.nbytes, (peak, form.rows.nbytes)

    def test_allocation_needs_one_payoff_per_player(self):
        with pytest.raises(SetFunctionError, match=r"^expected 3 payoffs, got shape \(2,\)$"):
            Allocation(3, [0.5, 0.5])

    def test_player_count_bounds(self):
        for n in (0, 21):
            with pytest.raises(SetFunctionError, match=f"^linear form .* 1 <= n <= 20, got {n}$"):
                shapley_linear_form(n)
        for n in (1, 13):
            assert shapley_linear_form(n).rows.shape == (n, (1 << n) - 2)
