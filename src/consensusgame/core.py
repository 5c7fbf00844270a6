"""Core membership and (Bayesian) core emptiness.

Every proper coalition's payoff sum (its members added in player order,
one rule for the verdicts and both membership checks) must cover its bound
b_S, the largest value any player's opinion gives S, and the payoff total
must fit under the budget, the smallest grand-coalition value.  The
classical core of f is the Bayesian core of n identical opinions f: raising
any coordinate of a feasible allocation keeps every coalition covered, so
budget slack is handed to one player to split the grand value exactly.

Emptiness is decided on the balancedness dual (Bondareva 1963; Shapley
1967), over the proper coalitions S:

    max  sum_S lam_S b_S   s.t.  sum_{S containing i} lam_S = 1 for every
    player i,  lam >= 0.

The core is nonempty exactly when the optimum is at most the budget; it is
called empty when the optimum exceeds the budget by more than tol.  The LP
has n rows and 2^n - 2 columns.  A revised simplex starts from the
singleton columns, whose basis is the identity, and keeps an explicit
n x n inverse; Bland's rule (lowest eligible column in, lowest basic
column out) makes the run deterministic and finite, and a cap of
10 n (2^n - 2) pivots stops numerical cycling.  Its memory is O(n 2^n): the
cached float membership rows, no bigger than the opinion stack they are
read against, and the reduced costs.  The objective never falls, so the
run stops as soon as it passes the budget + tol.  At the optimum the
simplex multipliers y cover every bound, y(S) >= b_S, and sum to the
optimum, so when that fits the budget y is the witness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .setfn import SetFunction, SetFunctionError, membership_matrix, num_restricted
from .shapley import shapley_payoffs

_PIVOT_EPS = 1e-10

DEFAULT_TOL = 1e-9


class DualCyclingError(SetFunctionError):
    """The balancedness dual reached its pivot cap: it cycles numerically on
    these bounds, so their verdict cannot be decided."""


class FeasibilityResult(NamedTuple):
    empty: bool
    witness: np.ndarray | None


def _allocation(g, n: int) -> np.ndarray:
    """``g`` as an array of one payoff per player; refuses any other shape."""
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise SetFunctionError(f"allocation must have length {n}")
    return g


def _player_count(opinions: list[SetFunction]) -> int:
    """The player count every opinion shares; refuses none, or a mix."""
    if not opinions:
        raise SetFunctionError("need at least one opinion")
    n = opinions[0].n
    if any(f.n != n for f in opinions):
        raise SetFunctionError("opinions disagree on player count")
    return n


def core_contains(f: SetFunction, g, tol: float = DEFAULT_TOL) -> bool:
    """Membership check: every coalition covered, budget exactly spent."""
    g = _allocation(g, f.n)
    return abs(sum(g.tolist()) - f.grand_value) <= tol and bayesian_core_contains([f], g, tol)


def core_witness(f: SetFunction, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """A classical-core allocation of f, or None when the core is empty.

    Decided as the Bayesian core of n copies of f; the budget slack of that
    witness is added to player 0 so the grand value is split exactly.
    When the Shapley value lies in the core it is the witness.
    """
    empty, witness = bayesian_core_is_empty([f] * f.n, tol=tol)
    if empty:
        return None
    witness = witness.copy()
    witness[0] += f.grand_value - witness.sum()
    return witness


def core_is_empty(f: SetFunction, tol: float = DEFAULT_TOL) -> bool:
    return core_witness(f, tol=tol) is None


@lru_cache(maxsize=64)
def _coalition_rows(n: int) -> np.ndarray:
    """Float membership rows of the proper coalitions, built once per n:
    row S - 1 is coalition S."""
    rows = membership_matrix(n)[1:-1].astype(float)
    rows.setflags(write=False)
    return rows


def bayesian_core_is_empty(
    opinions: list[SetFunction], tol: float = DEFAULT_TOL
) -> FeasibilityResult:
    """Emptiness verdict plus a witness allocation when nonempty: the
    one-profile case of ``bayesian_core_verdicts``.

    Returns ``(empty, witness)``; the witness is only present when the
    Bayesian core is nonempty.
    """
    n = _player_count(opinions)
    if len(opinions) != n:
        raise SetFunctionError(f"expected one opinion per player ({n}), got {len(opinions)}")
    (empty,), (witness,) = bayesian_core_verdicts(np.array([[f.values for f in opinions]]), tol)
    return FeasibilityResult(bool(empty), None if empty else witness)


def bayesian_core_verdicts(
    stacks: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Emptiness verdicts of a (T, n, 2^n) batch of opinion profiles, one
    value stack each, and a (T, n) array of witness allocations, NaN rows
    for the empty ones.

    A candidate witness is tried before the LP: the Shapley allocation of
    the aggregated bound function (per-coalition maxima, budget as grand
    value) splits the budget exactly, so if it also covers every coalition
    bound the core is nonempty without running the simplex.  Opinion
    profiles near a shared supermodular function almost always pass this,
    which keeps Monte-Carlo experiments cheap; the balancedness dual
    decides the rest.  Each profile's verdict and witness are those of
    checking it alone.
    """
    if stacks.ndim != 3 or stacks.shape[2] != 1 << stacks.shape[1]:
        raise SetFunctionError(f"expected a (T, n, 2^n) stack of profiles, got shape {stacks.shape}")
    n = stacks.shape[1]
    values = _bound_functions(stacks)
    witnesses = shapley_payoffs(values, n)
    empty = np.zeros(len(stacks), dtype=bool)
    for t in np.flatnonzero(~_covers(values, witnesses, tol)).tolist():
        witness, _ = _balanced_dual(n, values[t, 1:-1], values[t, -1] + tol)
        empty[t] = witness is None
        witnesses[t] = np.nan if witness is None else witness
    return empty, witnesses


def _bound_functions(stacks: np.ndarray) -> np.ndarray:
    """(T, n, 2^n) profiles' (T, 2^n) coalition bounds, the smallest grand value as budget."""
    values = stacks.max(axis=1)
    values[:, 0] = 0.0
    values[:, -1] = stacks[:, :, -1].min(axis=1)
    return values


def _covers(values: np.ndarray, allocations: np.ndarray, tol: float) -> np.ndarray:
    """Whether each row of (T, n) allocations covers its (T, 2^n) bound
    function: every proper coalition's payoff sum, members added in player
    order, at least its bound - tol, the total at most the grand value + tol."""
    sums = np.zeros_like(values)
    for i in range(allocations.shape[1]):
        sums[:, 1 << i : 2 << i] = sums[:, : 1 << i] + allocations[:, i : i + 1]
    return (sums[:, 1:-1] >= values[:, 1:-1] - tol).all(axis=1) & (sums[:, -1] <= values[:, -1] + tol)


def _pivot_cap(n: int) -> int:
    """Pivots the balancedness dual may take before it counts as cycling
    numerically: 10 per player and proper coalition."""
    return 10 * n * num_restricted(n)


def _balanced_dual(n: int, bounds: np.ndarray, limit: float) -> tuple[np.ndarray | None, int]:
    """The balancedness dual over coalition bounds ``bounds[S - 1]``.

    Returns the simplex multipliers at its optimum when that is at most
    ``limit``, else None, and the number of pivots taken.
    """
    rows = _coalition_rows(n)
    max_pivots = _pivot_cap(n)
    basis = (1 << np.arange(n)) - 1
    inverse = np.eye(n)
    weights = np.ones(n)
    for pivots in range(max_pivots):
        costs = bounds[basis]
        if costs @ weights > limit:
            return None, pivots
        reduced = bounds - rows @ (costs @ inverse)
        eligible = np.flatnonzero(reduced > _PIVOT_EPS)
        if eligible.size == 0:
            return np.linalg.solve(rows[basis], costs), pivots
        entering = int(eligible[0])
        direction = inverse @ rows[entering]
        positive = np.flatnonzero(direction > _PIVOT_EPS)
        ratios = weights[positive] / direction[positive]
        ties = positive[ratios <= ratios.min() + _PIVOT_EPS]
        leaving = int(ties[np.argmin(basis[ties])])
        step = weights[leaving] / direction[leaving]
        weights -= step * direction
        weights[leaving] = step
        np.clip(weights, 0.0, None, out=weights)
        pivot_row = inverse[leaving] / direction[leaving]
        inverse -= np.outer(direction, pivot_row)
        inverse[leaving] = pivot_row
        basis[leaving] = entering
    raise DualCyclingError(f"the balancedness dual did not terminate within {max_pivots} pivots")


def bayesian_core_contains(opinions: list[SetFunction], g, tol: float = DEFAULT_TOL) -> bool:
    """Direct membership check against every player's private constraints:
    the verdicts' coverage rule, members added in player order, against each
    coalition's largest value and the smallest grand value."""
    g = _allocation(g, _player_count(opinions))
    values = _bound_functions(np.array([[f.values for f in opinions]]))
    return bool(_covers(values, g[None], tol)[0])
