"""Acceptance suite: one test per top-level claim, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) naming the claim it exercises.  Tolerances are pinned here and
nowhere else.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from consensusgame.agents import PlayerParams, nash_deviation, stage_cost
from consensusgame.consensus import InfluenceMatrix, strategic_update
from consensusgame.core import bayesian_core_is_empty, core_is_empty
from consensusgame.harness import (
    Scenario,
    dump_trace,
    experiment_core_emptiness,
    experiment_efficiency,
    experiment_po_sweep,
    load_scenario,
    nash_players,
    random_primitive_influence,
    run_simulation,
)
from consensusgame.setfn import (
    SetFunction,
    is_supermodular,
    random_supermodular,
    weighted_average,
)
from consensusgame.shapley import shapley_linear_form, shapley_value

from test_core import grid_core_nonempty
from test_shapley import shapley_by_permutations

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def report(passed: bool, label: str, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")


def random_opinions(n: int, seed: int) -> tuple[SetFunction, ...]:
    return tuple(random_supermodular(n, np.random.default_rng([seed, i])) for i in range(n))


def test_criterion_1_average_opinion_invariance_under_proportional_risk():
    """All-rational play with p_i ~ t_i keeps the average opinion fixed;
    equal risk aversion with non-uniform influence does not."""
    label = "criterion 1: invariant average opinion when risk tracks influence"
    for n in (2, 5, 8):
        start = time.perf_counter()
        scenario = Scenario(
            kind="efficiency",
            n=n,
            theta=0.1,
            horizon=200,
            seed=1000 + n,
            influence=random_primitive_influence(n, np.random.default_rng([1000, n])),
            initial_opinions=random_opinions(n, 1000 + n),
            p_o=1.0,
        )
        outcome = experiment_efficiency(scenario, tol=1e-9)
        elapsed = time.perf_counter() - start
        ok = (
            outcome["drift"] < 1e-9
            and outcome["control_drift"] > 1e-6
            and elapsed < 1.0
        )
        if not ok:
            report(False, label, f"n={n} drift={outcome['drift']:.2e} t={elapsed:.2f}s")
        assert outcome["drift"] < 1e-9, f"n={n}: drift {outcome['drift']}"
        assert outcome["control_drift"] > 1e-6, f"n={n}: control too quiet"
        assert elapsed < 1.0, f"n={n}: took {elapsed:.2f}s"
    report(True, label)


def test_criterion_2_average_opinion_shift_identity():
    """Along any strategic trajectory, the average opinion moves by exactly
    theta times the accumulated weighted mean lie."""
    label = "criterion 2: average-opinion shift identity over 100 trajectories"
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 51))
        theta = float(rng.uniform(0.05, 0.95))
        w = rng.uniform(0.05, 1.0, size=(n, n))
        influence = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
        t = influence.t
        v = np.stack([f.values for f in random_opinions(n, int(rng.integers(0, 2**31)))])
        start = t @ v
        accumulated = np.zeros_like(start)
        for _ in range(horizon):
            lies = rng.normal(0, 0.25, size=(n, (1 << n) - 2))
            revealed = v.copy()
            revealed[:, 1:-1] += lies
            accumulated[1:-1] += theta * (t @ lies)
            v = strategic_update(v, revealed, influence.w, theta)
        gap = np.max(np.abs(t @ v - start - accumulated))
        worst = max(worst, float(gap))
    ok = worst < 1e-10
    report(ok, label, f"worst gap {worst:.2e}")
    assert ok, f"identity violated by {worst}"


@pytest.mark.parametrize("n", [2, 4])
def test_criterion_3_equilibrium_lie_is_stationary(n):
    """The closed-form lie profile zeroes the finite-difference gradient of
    every player's stage cost."""
    label = f"criterion 3: stage-cost stationarity at the equilibrium profile (n={n})"
    rng = np.random.default_rng(3000 + n)
    w = rng.uniform(0.1, 1.0, size=(n, n))
    influence = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
    rows = shapley_linear_form(n).rows
    theta, delta = 0.1, 1e-3
    p = 1.0 * influence.t
    profile = np.stack([nash_deviation(rows[i], theta, p[i]) for i in range(n)])
    worst = 0.0
    for i in range(n):
        for coord in range((1 << n) - 2):
            up = profile.copy()
            up[i, coord] += delta
            down = profile.copy()
            down[i, coord] -= delta
            grad = (
                stage_cost(up, influence.t, p[i], theta, rows[i])
                - stage_cost(down, influence.t, p[i], theta, rows[i])
            ) / (2 * delta)
            worst = max(worst, abs(float(grad)))
    ok = worst < 1e-6
    report(ok, label, f"max |gradient| {worst:.2e}")
    assert ok


def test_criterion_4_supermodularity_closed_under_both_dynamics():
    """Supermodular opinions stay supermodular under truthful mixing, and
    under strategic mixing whenever the revealed opinions are supermodular;
    the limit point passes the check as well."""
    label = "criterion 4: supermodularity closure over 200 random instances"
    rng = np.random.default_rng(4004)
    for instance in range(200):
        n = int(rng.integers(2, 6))
        w = rng.uniform(0.05, 1.0, size=(n, n))
        influence = InfluenceMatrix.from_matrix(w / w.sum(axis=1, keepdims=True))
        stacked = np.stack([f.values for f in random_opinions(n, 4000 + instance)])
        strategic = instance % 2 == 1
        theta = float(rng.uniform(0.1, 0.9))
        previous = None
        for _ in range(40):
            if strategic:
                reveals = tuple(
                    weighted_average(
                        [SetFunction(n, row), random_supermodular(n, rng)],
                        [1 - (mix := float(rng.uniform(0, 0.5))), mix],
                    )
                    for row in stacked
                )
                assert all(is_supermodular(x, tol=1e-12) for x in reveals)
                x = np.stack([f.values for f in reveals])
                stacked = strategic_update(stacked, x, influence.w, theta)
            else:
                stacked = strategic_update(stacked, stacked, influence.w, 1.0)
            for row in stacked:
                f = SetFunction(n, row)
                assert is_supermodular(f, tol=1e-12), f"instance {instance} broke closure"
            if previous is not None and np.max(np.abs(stacked - previous)) < 1e-12:
                break
            previous = stacked
        for row in stacked:
            assert is_supermodular(SetFunction(n, row), tol=1e-12)
        limit = weighted_average([SetFunction(n, row) for row in stacked], influence.t)
        assert is_supermodular(limit, tol=1e-12)
    report(True, label)


def test_criterion_5_spread_shrinks_with_risk_aversion():
    """Opinion spread around the average is nonincreasing along a geometric
    risk-aversion grid, and the Bayesian core is nonempty at the top."""
    label = "criterion 5: limit spread nonincreasing in p_o, core nonempty at top"
    start = time.perf_counter()
    n = 4
    scenario = Scenario(
        kind="po-sweep",
        n=n,
        theta=0.5,
        horizon=5000,
        seed=5005,
        influence=random_primitive_influence(n, np.random.default_rng([5005, 1])),
        initial_opinions=random_opinions(n, 5005),
        po_values=(0.1, 1.0, 10.0, 100.0),
    )
    rows = experiment_po_sweep(scenario)
    elapsed = time.perf_counter() - start
    spreads = [r["spread"] for r in rows]
    ratios_ok = all(b <= a * (1 + 1e-9) for a, b in zip(spreads, spreads[1:]))
    nonempty = not rows[-1]["bayesian_core_empty"]
    ok = ratios_ok and nonempty and elapsed < 5.0
    report(ok, label, f"spreads {['%.3e' % s for s in spreads]} t={elapsed:.2f}s")
    assert ratios_ok, f"spread not monotone: {spreads}"
    assert nonempty, "Bayesian core still empty at the largest p_o"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_empty_core_frequency_trend_in_player_count():
    """Empty-Bayesian-core frequency over 500 sampled opinion profiles per
    player count, fixed noise: the stated trend is a strict increase from
    n=2 to n=8 with at most one small inversion along the way.

    Known to fail, and kept failing rather than weakened.  The exact
    rejection sampler bounds the reachable noise: accepting a sample means
    satisfying ~n^2 * 2^n cone facets, which caps sigma near the truth's
    strictness margin divided by a growing factor, while emptying the core
    requires noise comparable to a partition surplus that grows with the
    cut size.  At any sigma the sampler can serve through n=8 the measured
    frequencies are identically zero; at larger sigma the sampler exhausts
    its attempt budget from about n=4 before bigger games produce data.
    """
    label = "criterion 6: empty-core frequency rises with player count"
    start = time.perf_counter()
    scenario = Scenario(
        kind="core-emptiness",
        n=2,
        theta=0.1,
        horizon=1,
        seed=6006,
        influence=np.array([[0.3, 0.7], [0.4, 0.6]]),
        trials=500,
        n_min=2,
        n_max=8,
        sigma=0.004,
        truth_family="quadratic",
        perturb_grand=True,
    )
    rows = experiment_core_emptiness(scenario)
    elapsed = time.perf_counter() - start
    freqs = [r["frequency"] for r in rows]
    failures = sum(r["sampler_failures"] for r in rows)
    inversions = [
        max(a - b, 0.0) for a, b in zip(freqs, freqs[1:])
    ]
    big_inversions = sum(1 for gap in inversions if gap > 0.02)
    strict_rise = freqs[-1] > freqs[0]
    ok = strict_rise and big_inversions <= 1 and elapsed < 60.0 and failures == 0
    report(ok, label, f"frequencies {freqs} sampler_failures={failures} t={elapsed:.1f}s")
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert failures == 0, f"{failures} sampler failures"
    assert big_inversions <= 1, f"frequencies not nondecreasing: {freqs}"
    assert strict_rise, (
        f"frequency at n=8 ({freqs[-1]}) not strictly above n=2 ({freqs[0]}); "
        f"full row: {freqs}"
    )


@pytest.mark.parametrize(
    "scenario_name", ["two_player_learning_gamma05.json", "two_player_learning_gamma08.json"]
)
def test_criterion_7_two_player_mutual_learning_scenarios(scenario_name):
    """Both players learn each other's lie pattern online; after burn-in the
    Shapley allocation of the average opinion is steady and the opinions
    themselves converge."""
    label = f"criterion 7: mutual-learning run settles ({scenario_name})"
    trace = run_simulation(load_scenario(SCENARIO_DIR / scenario_name))
    burn_in = 50
    shapley_steps = np.abs(np.diff(trace.shapley[burn_in:], axis=0))
    max_drift = float(shapley_steps.max())
    final_step = float(np.max(np.abs(trace.opinions[-1] - trace.opinions[-2])))
    converged = trace.converged_at is not None or trace.steps == 500
    ok = max_drift < 1e-3 and final_step < 1e-6 and converged
    report(ok, label, f"shapley drift {max_drift:.2e}, final step {final_step:.2e}")
    assert max_drift < 1e-3
    assert final_step < 1e-6
    assert converged


def test_criterion_8_cross_oracle_agreement():
    """Closed-form rails agree with brute-force oracles: permutation
    enumeration for allocations, grid search for core emptiness, and two
    independent constructions of the allocation coefficients."""
    label = "criterion 8: oracle agreement (permutations, grid, linear form)"
    rng = np.random.default_rng(8008)
    for n in range(2, 7):
        for _ in range(5):
            vals = np.concatenate([[0.0], rng.normal(0, 1, size=(1 << n) - 1)])
            f = SetFunction(n, vals)
            gap = np.max(
                np.abs(shapley_value(f).payoffs - shapley_by_permutations(f))
            )
            assert gap < 1e-12, f"n={n}: permutation oracle gap {gap}"

    disagreements = 0
    for _ in range(100):
        vals = np.concatenate([[0.0], rng.uniform(0, 1, size=6), [1.0]])
        f = SetFunction(3, vals)
        lp_empty = core_is_empty(f)
        grid_nonempty = grid_core_nonempty(f, resolution=1e-3)
        if not lp_empty and not grid_nonempty:
            disagreements += 1
        elif lp_empty and grid_nonempty:
            # the grid relaxes every bound by twice its pitch, so it may
            # keep a game that misses feasibility by less than that; only
            # a game still empty after the same relaxation is a true clash
            relaxed_vals = f.values.copy()
            relaxed_vals[1:-1] -= 3e-3
            disagreements += core_is_empty(SetFunction(3, relaxed_vals))
    assert disagreements == 0, f"{disagreements} grid disagreements"

    for n in range(2, 7):
        form = shapley_linear_form(n)
        for _ in range(20):
            restricted = rng.uniform(-1, 1, size=(1 << n) - 2)
            f = SetFunction.from_restricted(n, restricted, 1.0)
            gap = np.max(np.abs(form.apply(f).payoffs - shapley_value(f).payoffs))
            assert gap < 1e-12, f"n={n}: linear-form gap {gap}"
    report(True, label)


def test_criterion_9_reruns_are_byte_identical():
    """Any experiment rerun with the same seed reproduces its output file
    byte for byte."""
    label = "criterion 9: seeded reruns emit byte-identical CSVs"
    influence = np.array([[0.3, 0.7], [0.4, 0.6]])
    players = tuple(
        PlayerParams(
            risk_aversion=1.0, kind="rlearning", exploit_prob=0.5, explore_std=0.02
        )
        for _ in range(2)
    )
    scenario = Scenario(
        kind="simulate",
        n=2,
        theta=0.1,
        horizon=60,
        seed=9009,
        influence=influence,
        initial_opinions=(
            SetFunction.from_restricted(2, [0.7, 0.1], 1.0),
            SetFunction.from_restricted(2, [0.3, 0.5], 1.0),
        ),
        players=players,
    )
    first = dump_trace(run_simulation(scenario))
    second = dump_trace(run_simulation(scenario))
    assert first == second

    emptiness = Scenario(
        kind="core-emptiness",
        n=2,
        theta=0.1,
        horizon=1,
        seed=9009,
        influence=influence,
        trials=40,
        n_min=2,
        n_max=4,
        sigma=0.01,
    )
    assert experiment_core_emptiness(emptiness) == experiment_core_emptiness(emptiness)
    report(True, label)
