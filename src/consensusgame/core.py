"""Core membership and (Bayesian) core emptiness via LP feasibility.

There is one constraint system, ``A x >= b``: every proper coalition's
payoff sum covers its (per-player maximum) value, and the budget stays
under every player's grand-coalition value.  The classical core of f is
the Bayesian core of n identical opinions f: raising any coordinate of a
feasible allocation keeps every coalition row true, so budget slack is
handed to one player to split the grand value exactly.

The feasibility engine is a dense phase-1 simplex with Bland's anti-cycling
rule: deterministic and dependency-free.  A Bayesian-core system of n
players has 2^n - 1 rows (511 at n = 9, 1023 at n = 10) and a tableau of
rows x (2n + rows + 1) floats.  Its pivot rows are sparse, since each
coalition row has at most n nonzero structural entries, so a pivot updates
only the columns where its pivot row is nonzero, plus the right-hand side:
about n + 2 columns per pivot on noisy opinion profiles.  A tableau that
would not fit in physical memory is refused before it is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .setfn import (
    SetFunction,
    SetFunctionError,
    check_fits_in_memory,
    grand_mask,
    membership_matrix,
)

_PIVOT_EPS = 1e-10

DEFAULT_TOL = 1e-9


class SimplexError(RuntimeError):
    """Iteration cap exceeded: numerical cycling or a degenerate system."""


@dataclass(frozen=True)
class LinearFeasibilityProblem:
    """A x >= b over free allocation variables; every row is a ``>=`` row."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise SetFunctionError("constraint matrix must be 2-d with >= 1 row")
        if b.shape != (a.shape[0],):
            raise SetFunctionError("right-hand side length must match row count")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise SetFunctionError("constraint entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class FeasibilityResult(NamedTuple):
    feasible: bool
    witness: np.ndarray | None


def lp_feasible(problem: LinearFeasibilityProblem, tol: float = DEFAULT_TOL) -> FeasibilityResult:
    """Decide feasibility; return a witness allocation when feasible.

    Free variables are split into positive parts, every row gets an
    artificial variable, and phase-1 minimizes the artificial sum.  Bland's
    rule (lowest eligible index in, lowest basis index out) makes the run
    deterministic and cycle-free.  Artificial columns are never stored:
    once one leaves the basis it is retired, so only the structural block
    is pivoted.

    A pivot's rank-one update touches only the columns where the
    normalized pivot row is nonzero, and always the right-hand side, so it
    costs O(rows x touched columns) rather than O(rows x columns); the
    ratio test and the cost-row update add O(rows + columns).  Every
    nonzero tableau entry goes through the same floating-point operations
    as under a full-tableau update, so the pivot sequence and the witness
    are the same; only the sign of an untouched zero could differ, and no
    zero outside the right-hand side is ever read for its sign.
    """
    nvars = problem.a.shape[1]
    tableau, basis = _phase_one(problem)
    n_struct = tableau.shape[1] - 1
    artificial_rows = basis >= n_struct
    infeasibility = float(tableau[artificial_rows, -1].sum())
    if infeasibility > tol:
        return FeasibilityResult(False, None)

    solution = np.zeros(n_struct)
    structural_rows = ~artificial_rows
    solution[basis[structural_rows]] = tableau[structural_rows, -1]
    witness = solution[:nvars] - solution[nvars : 2 * nvars]
    return FeasibilityResult(True, witness)


def _phase_one(problem: LinearFeasibilityProblem) -> tuple[np.ndarray, np.ndarray]:
    """The pivot loop of `lp_feasible`: its final tableau and basis."""
    a, b = problem.a, problem.b
    rows, nvars = a.shape

    # Columns: x+ | x- | surplus (one per row) | rhs; artificials implicit.
    # The tableau is the one array allocated at its size, refused up front
    # when it would not fit.  Its surplus block is +0.0 off the diagonal,
    # so no -0.0 can reach a printed witness.
    n_struct = 2 * nvars + rows
    check_fits_in_memory(
        8 * rows * (n_struct + 1),
        f"the {rows} x {n_struct + 1} simplex tableau for {nvars} players",
        SetFunctionError,
    )
    tableau = np.zeros((rows, n_struct + 1))
    tableau[:, :nvars] = a
    tableau[:, nvars : 2 * nvars] = -a
    tableau[np.arange(rows), 2 * nvars + np.arange(rows)] = -1.0
    tableau[:, -1] = b
    tableau[b < 0] *= -1.0
    # basis entry n_struct + r stands for row r's artificial variable
    basis = np.arange(n_struct, n_struct + rows)

    # Phase-1 reduced costs over structural columns plus the rhs cell.
    cost = -tableau.sum(axis=0)

    max_iter = 10 * (rows + n_struct + rows) ** 2
    for _ in range(max_iter):
        eligible = np.nonzero(cost[:n_struct] < -_PIVOT_EPS)[0]
        if eligible.size == 0:
            break
        entering = int(eligible[0])
        coefs = tableau[:, entering]
        positive = coefs > _PIVOT_EPS
        if not np.any(positive):
            raise SimplexError("phase-1 objective unbounded below; malformed tableau")
        ratios = np.full(rows, np.inf)
        ratios[positive] = tableau[positive, -1] / coefs[positive]
        ties = np.nonzero(ratios <= ratios.min() + _PIVOT_EPS)[0]
        leaving = int(ties[np.argmin(basis[ties])])
        pivot_row = tableau[leaving] / tableau[leaving, entering]
        col = tableau[:, entering].copy()
        col[leaving] = 0.0
        # rank-one update on the pivot row's nonzero columns and the rhs;
        # elsewhere it would only subtract zeros
        touched = pivot_row != 0.0
        touched[-1] = True
        touched = np.flatnonzero(touched)
        tableau[:, touched] -= np.outer(col, pivot_row[touched])
        tableau[leaving] = pivot_row
        cost -= cost[entering] * pivot_row
        basis[leaving] = entering
        np.clip(tableau[:, -1], 0.0, None, out=tableau[:, -1])
    else:
        raise SimplexError(f"simplex did not terminate within {max_iter} pivots")
    return tableau, basis


def core_contains(f: SetFunction, g, tol: float = DEFAULT_TOL) -> bool:
    """Membership check: every coalition covered, budget exactly spent."""
    g = np.asarray(g, dtype=float)
    if g.shape != (f.n,):
        raise SetFunctionError(f"allocation must have length {f.n}")
    sums = membership_matrix(f.n) @ g
    if abs(sums[-1] - f.grand_value) > tol:
        return False
    return bool(np.all(sums >= f.values - tol))


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


def bayesian_core_constraints(opinions: list[SetFunction]) -> LinearFeasibilityProblem:
    """Feasibility system for private opinions.

    Rationality holds for every player's opinion on every proper nonempty
    coalition, so each coalition row binds at the per-player maximum (the
    row set is aggregated per coalition; the feasible region is identical).
    The budget must fit under every player's grand-coalition value, i.e.
    under the minimum.
    """
    if not opinions:
        raise SetFunctionError("need at least one opinion")
    n = opinions[0].n
    if any(f.n != n for f in opinions):
        raise SetFunctionError("opinions disagree on player count")
    if len(opinions) != n:
        raise SetFunctionError(f"expected one opinion per player ({n}), got {len(opinions)}")
    stack = np.stack([f.values for f in opinions])
    b = np.concatenate([stack[:, 1:-1].max(axis=0), [-stack[:, -1].min()]])
    return LinearFeasibilityProblem(_core_rows(n), b)


@lru_cache(maxsize=64)
def _core_rows(n: int) -> np.ndarray:
    """The constraint matrix of every n-player core system, built once per n:
    proper coalitions' membership rows, then the negated budget row."""
    a = np.vstack([membership_matrix(n)[1:-1], -np.ones((1, n))])
    a.setflags(write=False)
    return a


def bayesian_core_is_empty(
    opinions: list[SetFunction], tol: float = DEFAULT_TOL
) -> FeasibilityResult:
    """Emptiness verdict plus a witness allocation when nonempty.

    Returns ``(empty, witness)``; the witness is only present when the
    Bayesian core is nonempty.

    A candidate witness is tried before the LP: the Shapley allocation of
    the aggregated bound function (per-coalition maxima, budget as grand
    value) splits the budget exactly, so if it also covers every coalition
    bound the system is feasible without running the simplex.  Opinion
    profiles near a shared supermodular function almost always pass this,
    which keeps Monte-Carlo experiments cheap; the complete LP decides the
    rest.
    """
    from .shapley import shapley_value

    problem = bayesian_core_constraints(opinions)
    bound_vals = np.concatenate([[0.0], problem.b[:-1], [-problem.b[-1]]])
    candidate = shapley_value(SetFunction(opinions[0].n, bound_vals)).payoffs
    if np.all(problem.a @ candidate >= problem.b - tol):
        return FeasibilityResult(False, candidate)
    feasible, witness = lp_feasible(problem, tol=tol)
    return FeasibilityResult(not feasible, witness)


def bayesian_core_contains(
    opinions: list[SetFunction], g, tol: float = DEFAULT_TOL
) -> bool:
    """Direct membership check against every player's private constraints."""
    g = np.asarray(g, dtype=float)
    n = opinions[0].n
    sums = membership_matrix(n) @ g
    proper = np.arange(1, grand_mask(n))
    for f in opinions:
        if not np.all(sums[proper] >= f.values[proper] - tol):
            return False
        if sums[-1] > f.grand_value + tol:
            return False
    return True
