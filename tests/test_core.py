"""Core emptiness on the balancedness dual, the core / Bayesian-core
predicates, and the tableau oracle they are checked against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensusgame import cli, core
from consensusgame.core import (
    DualCyclingError,
    _balanced_dual,
    _pivot_cap,
    bayesian_core_contains,
    bayesian_core_is_empty,
    bayesian_core_verdicts,
    core_contains,
    core_is_empty,
    core_witness,
)
from consensusgame.harness import TRUTH_FAMILIES
from consensusgame.setfn import (
    SetFunction,
    SetFunctionError,
    dump_setfn,
    grand_mask,
    membership_matrix,
    random_supermodular,
)
from consensusgame.shapley import shapley_value


def player_order_sums(g) -> list[float]:
    """Oracle: every coalition's payoff sum in python floats, its members
    added in player order."""
    n = len(g)
    sums = []
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            if mask >> i & 1:
                total += float(g[i])
        sums.append(total)
    return sums


def grid_core_nonempty(f: SetFunction, resolution: float = 1e-3) -> bool:
    """Oracle for n = 3: scan allocations on the budget plane.

    g3 is eliminated through the budget; the grid covers g1, g2 in
    [0, grand].  Constraints are relaxed by twice the grid pitch so an
    interior core point never slips between grid nodes.
    """
    assert f.n == 3
    grand = f.grand_value
    axis = np.arange(0.0, grand + resolution / 2, resolution)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    g3 = grand - g1 - g2
    slack = 2 * resolution
    ok = g3 >= f(0b100) - slack
    ok &= g1 >= f(0b001) - slack
    ok &= g2 >= f(0b010) - slack
    ok &= g1 + g2 >= f(0b011) - slack
    ok &= g1 + g3 >= f(0b101) - slack
    ok &= g2 + g3 >= f(0b110) - slack
    return bool(np.any(ok))


def equality_core_is_empty(f: SetFunction) -> bool:
    """Oracle: the textbook classical-core system.

    Every proper coalition is covered and the grand value is split exactly,
    the equality written as a pair of opposite rows.
    """
    n = f.n
    proper = np.arange(1, grand_mask(n))
    a = np.vstack([membership_matrix(n)[proper], np.ones((1, n)), -np.ones((1, n))])
    b = np.concatenate([f.values[proper], [f.grand_value, -f.grand_value]])
    return not dense_lp_feasible(a, b)[0]


def core_system(opinions):
    """The Bayesian core as ``A x >= b``: every proper coalition covers its
    per-player maximum, and the negated total covers the negated smallest
    grand value."""
    n = opinions[0].n
    stack = np.stack([f.values for f in opinions])
    a = np.vstack([membership_matrix(n)[1:-1], -np.ones((1, n))])
    b = np.concatenate([stack[:, 1:-1].max(axis=0), [-stack[:, -1].min()]])
    return a, b


def dual_of(opinions, tol: float = 1e-9):
    """The balancedness dual of a Bayesian-core system, without the Shapley
    shortcut in front: (witness or None, pivots)."""
    stack = np.stack([f.values for f in opinions])
    return _balanced_dual(opinions[0].n, stack[:, 1:-1].max(axis=0), stack[:, -1].min() + tol)


def dense_lp_feasible(a, b, tol: float = 1e-9):
    """Phase 1 of the simplex on the whole ``A x >= b`` tableau with Bland's
    rule: free variables split into positive parts, one surplus and one
    artificial variable per row.  Returns (feasible, witness or None)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, nvars = a.shape
    struct = np.hstack([a, -a, 0.0 - np.eye(rows)])
    rhs = b.copy()
    flip = rhs < 0
    struct[flip] *= -1.0
    rhs[flip] *= -1.0
    n_struct = struct.shape[1]
    tableau = np.hstack([struct, rhs[:, None]])
    basis = np.arange(n_struct, n_struct + rows)
    cost = -tableau.sum(axis=0)
    while True:
        eligible = np.nonzero(cost[:n_struct] < -1e-10)[0]
        if eligible.size == 0:
            break
        entering = int(eligible[0])
        coefs = tableau[:, entering]
        positive = coefs > 1e-10
        ratios = np.full(rows, np.inf)
        ratios[positive] = tableau[positive, -1] / coefs[positive]
        ties = np.nonzero(ratios <= ratios.min() + 1e-10)[0]
        leaving = int(ties[np.argmin(basis[ties])])
        pivot_row = tableau[leaving] / tableau[leaving, entering]
        col = tableau[:, entering].copy()
        col[leaving] = 0.0
        tableau -= np.outer(col, pivot_row)
        tableau[leaving] = pivot_row
        cost -= cost[entering] * pivot_row
        basis[leaving] = entering
        np.clip(tableau[:, -1], 0.0, None, out=tableau[:, -1])
    artificial_rows = basis >= n_struct
    if float(tableau[artificial_rows, -1].sum()) > tol:
        return False, None
    solution = np.zeros(n_struct)
    structural_rows = ~artificial_rows
    solution[basis[structural_rows]] = tableau[structural_rows, -1]
    return True, solution[:nvars] - solution[nvars : 2 * nvars]


def _noisy_opinions(n: int, rng, noise: float) -> list[SetFunction]:
    opinions = []
    for _ in range(n):
        vals = random_supermodular(n, rng).values.copy()
        vals[1:-1] += rng.normal(0, noise, size=vals.size - 2)
        opinions.append(SetFunction(n, vals))
    return opinions


def _degenerate_core_systems():
    """Core systems with many ties and zeros: additive games with zero
    singletons, unanimity games, majority games, and integer-valued
    opinion profiles."""
    rng = np.random.default_rng(89)
    for n in range(2, 8):
        members = membership_matrix(n).astype(float)
        singles = rng.integers(0, 3, size=n).astype(float)
        singles[rng.permutation(n)[: max(1, n // 2)]] = 0.0
        yield f"additive-n{n}", [SetFunction(n, members @ singles)] * n
        carrier = int(rng.integers(1, 1 << n))
        unanimity = ((np.arange(1 << n) & carrier) == carrier).astype(float)
        yield f"unanimity-n{n}", [SetFunction(n, unanimity)] * n
        majority = (members.sum(axis=1) > n / 2).astype(float)
        yield f"majority-n{n}", [SetFunction(n, majority)] * n
        for k in range(3):
            opinions = []
            for _ in range(n):
                vals = rng.integers(0, 3, size=1 << n).astype(float)
                vals[0] = 0.0
                vals[-1] = float(rng.integers(1, 2 * n))
                opinions.append(SetFunction(n, vals))
            yield f"integer-n{n}-{k}", opinions


def _oracle_problems():
    """Noisy Bayesian-core profiles at n = 2..9, then the degenerate ones."""
    rng = np.random.default_rng(97)
    for n in range(2, 10):
        for k in range(2 if n >= 8 else 6):
            noise = (0.01, 0.1, 0.3)[k % 3]
            yield f"bayesian-n{n}-{k}", _noisy_opinions(n, rng, noise)
    yield from _degenerate_core_systems()


class TestBalancednessDual:
    def test_verdicts_match_the_tableau_oracle(self):
        verdicts = {True: 0, False: 0}
        pivoted = 0
        for name, opinions in _oracle_problems():
            feasible, _ = dense_lp_feasible(*core_system(opinions))
            witness, pivots = dual_of(opinions)
            assert (witness is not None) == feasible, name
            assert bayesian_core_is_empty(opinions).empty == (not feasible), name
            if feasible:
                assert bayesian_core_contains(opinions, witness, tol=1e-9), name
            verdicts[feasible] += 1
            pivoted += pivots > 0
        assert verdicts[True] > 20 and verdicts[False] > 20
        assert pivoted > 20

    # the truths' surplus at n players is this coefficient over n
    @pytest.mark.parametrize("family, surplus", [("quadratic", 1.0), ("mixed", 0.3)])
    def test_truth_optimum_is_attained_by_the_coalitions_of_all_but_one(self, family, surplus):
        # an independent oracle: on one noiseless truth the optimum is
        # 1 - surplus / n, and the n coalitions of n - 1 players, weight
        # 1 / (n - 1) each, are a balanced collection that attains it
        for n in range(2, 13):
            bounds = TRUTH_FAMILIES[family](n).values[1:-1]
            members = membership_matrix(n)[1:-1]
            y, _ = _balanced_dual(n, bounds, np.inf)
            assert y.sum() == pytest.approx(1 - surplus / n, rel=0, abs=1e-12)
            assert np.all(members @ y >= bounds - 1e-12)
            weights = (members.sum(axis=1) == n - 1) / (n - 1)
            np.testing.assert_allclose(weights @ members, 1.0, rtol=0, atol=1e-12)
            assert weights @ bounds == pytest.approx(y.sum(), rel=0, abs=1e-12)

    def test_stops_before_a_pivot_when_the_singletons_overrun_the_budget(self):
        # nine singletons worth 0.2 each: the singleton basis alone is
        # worth 1.8 against a budget of 1, also where the pair {0, 1},
        # worth 0.5, would raise the objective on a pivot
        singletons = (membership_matrix(9)[1:-1].sum(axis=1) == 1) * 0.2
        paired = singletons.copy()
        paired[0b11 - 1] = 0.5
        for bounds in (singletons, paired):
            witness, pivots = _balanced_dual(9, bounds, 1.0 + 1e-9)
            assert witness is None and pivots == 0
        assert _balanced_dual(9, paired, np.inf)[1] >= 1

    def test_stops_once_the_objective_passes_the_budget(self):
        # four players, every pair worth 0.7: two disjoint pairs already
        # reach 1.4 > 1, before the simplex has proven the optimum
        sizes = membership_matrix(4)[1:-1].sum(axis=1)
        bounds = (sizes == 2) * 0.7
        witness, pivots = _balanced_dual(4, bounds, 1.0 + 1e-9)
        optimum, optimal_pivots = _balanced_dual(4, bounds, np.inf)
        assert witness is None
        assert 1 <= pivots < optimal_pivots
        assert optimum.sum() == pytest.approx(1.4)
        assert np.all(membership_matrix(4)[1:-1] @ optimum >= bounds - 1e-9)

    def test_cli_exits_two_when_the_dual_reaches_its_pivot_cap(self, tmp_path, capsys, monkeypatch):
        # the Shapley value of this game leaves player 0's coalitions short,
        # so the dual decides, and it takes two pivots; capped at one, it
        # stops there as if cycling: an input it cannot decide, not a verdict
        values = np.zeros(16)
        sizes = membership_matrix(4).sum(axis=1)
        values[(sizes == 2) & (np.arange(16) & 1 == 1)] = 0.55
        values[(sizes == 3) & (np.arange(16) & 1 == 1)] = 0.9
        values[15] = 1.0
        f = SetFunction(4, values)
        assert _pivot_cap(4) == 10 * 4 * (2**4 - 2)
        witness, pivots = _balanced_dual(4, f.values[1:-1], 1.0 + 1e-9)
        assert witness is not None and pivots == 2
        path = tmp_path / "game.setfn"
        path.write_text(dump_setfn(f))
        monkeypatch.setattr(core, "_pivot_cap", lambda n: pivots - 1)
        with pytest.raises(DualCyclingError, match="within 1 pivots"):
            _balanced_dual(4, f.values[1:-1], 1.0 + 1e-9)
        assert cli.main(["core-check", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: the balancedness dual did not terminate within 1 pivots\n"
        )

    def test_core_check_prints_empty_for_nine_costly_singletons(self, tmp_path, capsys):
        # nine singletons worth 0.2 each against a grand value of 1: the
        # Shapley shortcut fails, so the dual decides
        f = SetFunction(9, (membership_matrix(9).sum(axis=1) == 1) * 0.2 + (np.arange(512) == 511))
        path = tmp_path / "game.setfn"
        path.write_text(dump_setfn(f))
        assert cli.main(["core-check", str(path)]) == 0
        assert capsys.readouterr().out == "empty\n"


class TestLpFeasible:
    """The tableau oracle on hand-checked systems, and the engine against
    HiGHS."""

    def test_overlapping_lower_bounds_infeasible(self):
        a = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        feasible, witness = dense_lp_feasible(a, np.array([1.0, -1.0, 0.6, 0.6]))
        assert not feasible and witness is None

    def test_compatible_bounds_feasible_with_valid_witness(self):
        a = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        feasible, witness = dense_lp_feasible(a, np.array([1.0, -1.0, 0.3, 0.3]))
        assert feasible
        assert abs(witness.sum() - 1.0) <= 1e-9
        assert witness[0] >= 0.3 - 1e-9 and witness[1] >= 0.3 - 1e-9

    def test_negative_rhs_and_free_variables(self):
        # single constraint g1 >= -2 has witness with a negative coordinate
        feasible, witness = dense_lp_feasible(np.array([[1.0], [-1.0]]), np.array([-2.0, 1.5]))
        assert feasible
        assert -2.0 - 1e-9 <= witness[0] <= -1.5 + 1e-9

    def test_deterministic_witness(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=6)
        first = dense_lp_feasible(a, b)
        for _ in range(5):
            again = dense_lp_feasible(a, b)
            assert again[0] == first[0]
            np.testing.assert_array_equal(again[1], first[1])

    def test_supermodular_core_system_feasible_with_shapley_witness(self):
        from consensusgame.shapley import shapley_value

        rng = np.random.default_rng(47)
        f = random_supermodular(4, rng)
        witness = core_witness(f)
        assert witness is not None
        assert core_contains(f, witness, tol=1e-9)
        assert core_contains(f, shapley_value(f).payoffs)

    def test_verdicts_agree_with_highs_on_bayesian_core_systems(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(79)
        verdicts = {n: {True: 0, False: 0} for n in range(2, 11)}
        for n in verdicts:
            for _ in range(8):
                # noise shrinks with n, so both verdicts occur at every n
                opinions = _noisy_opinions(n, rng, 0.6 / n)
                a, b = core_system(opinions)
                rows, nvars = a.shape
                # largest uniform slack s with A x >= b + s; skip near-ties,
                # where the two solvers' tolerances may legitimately differ
                margin = optimize.linprog(
                    c=np.concatenate([np.zeros(nvars), [-1.0]]),
                    A_ub=np.hstack([-a, np.ones((rows, 1))]),
                    b_ub=-b,
                    bounds=[(None, None)] * nvars + [(-1.0, 1.0)],
                    method="highs",
                )
                assert margin.status == 0
                if abs(margin.x[-1]) < 1e-6:
                    continue
                highs = optimize.linprog(
                    c=np.zeros(nvars),
                    A_ub=-a,
                    b_ub=-b,
                    bounds=[(None, None)] * nvars,
                    method="highs",
                )
                assert highs.status in (0, 2)
                feasible = highs.status == 0
                empty, witness = bayesian_core_is_empty(opinions)
                dual_witness, _ = dual_of(opinions)
                assert empty == (not feasible)
                assert (dual_witness is not None) == feasible
                if feasible:
                    assert bayesian_core_contains(opinions, witness, tol=1e-9)
                    assert bayesian_core_contains(opinions, dual_witness, tol=1e-9)
                verdicts[n][feasible] += 1
        for n, seen in verdicts.items():
            assert seen[True] > 0 and seen[False] > 0, n


class TestCoreContains:
    def test_modular_game_uniform_allocation(self):
        sizes = np.bitwise_count(np.arange(8)).astype(float)
        f = SetFunction(3, sizes / 3)
        assert core_contains(f, np.full(3, 1.0 / 3.0))

    def test_two_player_worked_example(self):
        f = SetFunction.from_restricted(2, [0.7, 0.1], 1.0)
        assert core_contains(f, [0.8, 0.2])
        assert not core_contains(f, [0.6, 0.4])

    def test_budget_must_be_exact(self):
        f = SetFunction.from_restricted(2, [0.1, 0.1], 1.0)
        assert not core_contains(f, [0.6, 0.6])

    def test_one_payoff_per_player_required(self):
        f = SetFunction.from_restricted(2, [0.1, 0.1], 1.0)
        with pytest.raises(SetFunctionError, match="^allocation must have length 2$"):
            core_contains(f, [0.3, 0.3, 0.4])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_allocation_meeting_its_player_order_sums_exactly_is_a_member(self, n):
        # both checks sum a coalition as the verdicts do, so an allocation
        # is a member of the game its own coalition sums define, at tol 0
        rng = np.random.default_rng([89, n])
        for _ in range(5):
            g = rng.uniform(0.0, 1.0, size=n)
            f = SetFunction(n, player_order_sums(g))
            assert bayesian_core_contains([f] * n, g, tol=0.0)
            assert core_contains(f, g, tol=0.0)


class TestCoreIsEmpty:
    def test_incompatible_singletons_empty(self):
        f = SetFunction.from_restricted(2, [0.6, 0.6], 1.0)
        assert core_is_empty(f)

    @given(n=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_supermodular_never_empty(self, n, seed):
        f = random_supermodular(n, np.random.default_rng(seed))
        assert not core_is_empty(f)

    def test_agrees_with_grid_oracle_on_random_three_player_games(self):
        rng = np.random.default_rng(53)
        verdicts = {True: 0, False: 0}
        for _ in range(100):
            vals = np.concatenate([[0.0], rng.uniform(0, 1, size=6), [1.0]])
            f = SetFunction(3, vals)
            lp_empty = core_is_empty(f)
            grid_nonempty = grid_core_nonempty(f)
            verdicts[lp_empty] += 1
            # relaxed grid may accept near-boundary points the LP calls empty
            if not lp_empty:
                assert grid_nonempty
            if not grid_nonempty:
                assert lp_empty
        assert verdicts[True] > 5 and verdicts[False] > 5

    def test_agrees_with_equality_form_oracle(self):
        rng = np.random.default_rng(83)
        verdicts = {True: 0, False: 0}
        for n in range(1, 8):
            for _ in range(40):
                vals = np.concatenate([[0.0], rng.uniform(0, 1, size=(1 << n) - 2), [1.0]])
                f = SetFunction(n, vals)
                empty = core_is_empty(f)
                assert empty == equality_core_is_empty(f)
                if not empty:
                    assert core_contains(f, core_witness(f), tol=1e-9)
                verdicts[empty] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20


class TestBayesianCore:
    def test_batched_verdicts_are_those_of_each_profile_alone(self, monkeypatch):
        # fast-path hits, dual-decided nonempty cores and empty ones share a
        # batch; each row is the one-profile call's, bit for bit, and each
        # verdict the tableau oracle's
        duals = []

        def counted(*args):
            duals.append(args)
            return _balanced_dual(*args)

        monkeypatch.setattr(core, "_balanced_dual", counted)
        rng = np.random.default_rng(79)
        checked = {True: 0, False: 0}
        for n in range(2, 7):
            profiles = [_noisy_opinions(n, rng, noise) for noise in (0.01, 0.1, 0.3) for _ in range(6)]
            batch_duals = len(duals)
            empty, witnesses = bayesian_core_verdicts(np.array([[f.values for f in p] for p in profiles]))
            batch_duals = len(duals) - batch_duals
            assert witnesses.shape == (len(profiles), n)
            for opinions, is_empty, witness in zip(profiles, empty, witnesses):
                alone = bayesian_core_is_empty(opinions)
                assert is_empty == alone.empty == (not dense_lp_feasible(*core_system(opinions))[0])
                if is_empty:
                    assert np.isnan(witness).all()
                else:
                    assert witness.tobytes() == alone.witness.tobytes()
                    assert bayesian_core_contains(opinions, witness, tol=1e-9)
                checked[bool(is_empty)] += 1
            # only the fast path's misses reach the dual
            assert 0 < batch_duals < len(profiles) or n == 2
        assert checked[True] > 10 and checked[False] > 10

    def test_empty_batch_and_malformed_batches(self):
        empty, witnesses = bayesian_core_verdicts(np.empty((0, 3, 8)))
        assert empty.shape == (0,) and witnesses.shape == (0, 3)
        for shape in ((3, 8), (2, 3, 7)):
            with pytest.raises(SetFunctionError, match="stack of profiles"):
                bayesian_core_verdicts(np.zeros(shape))

    def test_shared_opinion_reduces_to_classical_core(self):
        rng = np.random.default_rng(59)
        for n in (2, 3, 4):
            f = random_supermodular(n, rng)
            empty, witness = bayesian_core_is_empty([f] * n)
            assert empty == core_is_empty(f)
            assert not empty
            assert witness is not None

        tight = SetFunction.from_restricted(2, [0.6, 0.6], 1.0)
        empty, witness = bayesian_core_is_empty([tight, tight])
        assert empty == core_is_empty(tight) == True
        assert witness is None

    def test_mutually_greedy_opinions_empty(self):
        v1 = SetFunction.from_restricted(2, [0.8, 0.0], 1.0)
        v2 = SetFunction.from_restricted(2, [0.0, 0.8], 1.0)
        empty, witness = bayesian_core_is_empty([v1, v2])
        assert empty and witness is None

    def test_witness_satisfies_every_private_constraint(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(30):
            n = int(rng.integers(2, 5))
            opinions = [random_supermodular(n, rng) for _ in range(n)]
            empty, witness = bayesian_core_is_empty(opinions)
            if not empty:
                assert bayesian_core_contains(opinions, witness, tol=1e-9)
                checked += 1
        assert checked > 0

    def test_result_is_deterministic(self):
        rng = np.random.default_rng(67)
        opinions = [random_supermodular(3, rng) for _ in range(3)]
        first = bayesian_core_is_empty(opinions)
        again = bayesian_core_is_empty(opinions)
        assert first.empty == again.empty
        if first.witness is not None:
            np.testing.assert_array_equal(first.witness, again.witness)

    def test_one_opinion_per_player_required(self):
        f = random_supermodular(3, np.random.default_rng(71))
        with pytest.raises(SetFunctionError, match="one opinion per player"):
            bayesian_core_is_empty([f, f])
        with pytest.raises(SetFunctionError, match="at least one opinion"):
            bayesian_core_is_empty([])
        g = random_supermodular(2, np.random.default_rng(72))
        with pytest.raises(SetFunctionError, match="disagree on player count"):
            bayesian_core_is_empty([f, f, g])

    def test_membership_refuses_no_opinions(self):
        with pytest.raises(SetFunctionError, match="^need at least one opinion$"):
            bayesian_core_contains([], [0.5, 0.5])

    def test_membership_refuses_an_allocation_of_another_length(self):
        f = random_supermodular(3, np.random.default_rng(74))
        with pytest.raises(SetFunctionError, match="^allocation must have length 3$"):
            bayesian_core_contains([f, f, f], [0.5, 0.5])

    def test_membership_refuses_opinions_of_mixed_player_counts(self):
        f = random_supermodular(2, np.random.default_rng(75))
        g = random_supermodular(3, np.random.default_rng(76))
        with pytest.raises(SetFunctionError, match="^opinions disagree on player count$"):
            bayesian_core_contains([f, g], [0.5, 0.5])

    def test_witness_of_a_tight_game_is_a_member_at_zero_tol(self, monkeypatch):
        # every opinion is the additive game of w, so its core is the one
        # allocation w, met with no slack; the membership check must accept
        # the verdict's witness whether the fast path or the dual found it
        duals = []

        def counted(*args):
            duals.append(args)
            return _balanced_dual(*args)

        monkeypatch.setattr(core, "_balanced_dual", counted)
        rng = np.random.default_rng(97)
        trials = 0
        for n in range(4, 10):
            for _ in range(100):
                additive = SetFunction(n, player_order_sums(rng.uniform(0.0, 1.0, size=n)))
                opinion = SetFunction(n, player_order_sums(shapley_value(additive).payoffs))
                opinions = [opinion] * n
                empty, witness = bayesian_core_is_empty(opinions, tol=0.0)
                assert not empty
                assert bayesian_core_contains(opinions, witness, tol=0.0)
                trials += 1
        assert 0 < len(duals) < trials

    def test_fast_witness_path_agrees_with_pure_lp(self):
        # the allocation-candidate shortcut must never change the verdict
        rng = np.random.default_rng(73)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            n = int(rng.integers(2, 6))
            opinions = _noisy_opinions(n, rng, 0.25)
            empty, witness = bayesian_core_is_empty(opinions)
            assert empty == (not dense_lp_feasible(*core_system(opinions))[0])
            if not empty:
                assert bayesian_core_contains(opinions, witness, tol=1e-9)
            verdicts[empty] += 1
        assert verdicts[True] > 10 and verdicts[False] > 10
