"""Shapley allocations from one linear form.

The Shapley value is linear in the payoff function.  With the empty
coalition worth 0, the payoff of player i is ``f(N)/n + d_i . restricted(f)``
with m-vector coefficient rows d_i that sum to zero across players.  In
closed form, d_i[T] is w[|T|-1] when i is in coalition T and -w[|T|]
otherwise, over the size weights w[s] = s! (n-s-1)! / n!.  One cached table
of those rows serves both dense payoff vectors (``shapley_payoffs``) and the
normalized m-vectors the strategic opinion dynamics consume
(``ShapleyLinearForm.apply_restricted``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .setfn import MAX_PLAYERS, SetFunction, SetFunctionError, membership_matrix, num_restricted


@dataclass(frozen=True)
class Allocation:
    """Per-player payoff vector."""

    n: int
    payoffs: np.ndarray

    def __post_init__(self):
        pay = np.asarray(self.payoffs, dtype=float)
        if pay.shape != (self.n,):
            raise SetFunctionError(f"expected {self.n} payoffs, got shape {pay.shape}")
        pay = pay.copy()
        pay.setflags(write=False)
        object.__setattr__(self, "payoffs", pay)


def shapley_weights(n: int) -> np.ndarray:
    """Size weights w[s] = s! (n-s-1)! / n! for s = 0..n-1."""
    fact = np.array([factorial(k) for k in range(n + 1)], dtype=float)
    return fact[:n] * fact[n - 1 :: -1] / fact[n]


def shapley_payoffs(values: np.ndarray, n: int) -> np.ndarray:
    """Shapley payoffs of dense payoff vectors of n players, the last axis
    of ``values``: by linearity, f(N)/n plus the linear form's rows applied
    to the proper coalitions' values.  A stack ``(..., 2^n)`` gives one row
    of payoffs per vector, each as for that vector alone."""
    form = shapley_linear_form(n)
    return values[..., -1:] * form.offset + (form.rows @ values[..., 1:-1, None])[..., 0]


def shapley_value(f: SetFunction) -> Allocation:
    """Exact Shapley allocation; payoffs sum to the grand-coalition value."""
    return Allocation(f.n, shapley_payoffs(f.values, f.n))


@dataclass(frozen=True)
class ShapleyLinearForm:
    """Affine representation of Shapley payoffs on normalized functions.

    ``payoff_i(f) = 1/n + rows[i] . restricted(f)`` whenever f is
    normalized.  Rows sum to the zero vector.  Rows given as a read-only
    array that owns its data are kept as they are; any others are copied.
    """

    n: int
    rows: np.ndarray  # (n, m)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (self.n, num_restricted(self.n)):
            raise SetFunctionError(
                f"expected rows of shape {(self.n, num_restricted(self.n))}"
            )
        if rows.flags.writeable or not rows.flags.owndata:
            rows = rows.copy()
            rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def offset(self) -> float:  # an equal share of the grand value 1
        return 1.0 / self.n

    def apply(self, f: SetFunction) -> Allocation:
        if f.n != self.n:
            raise SetFunctionError("player count mismatch")
        if not f.is_normalized(tol=1e-9):
            raise SetFunctionError("linear form applies to normalized functions only")
        return Allocation(self.n, self.apply_restricted(f.restricted()))

    def apply_restricted(self, restricted: np.ndarray) -> np.ndarray:
        """Payoffs for a normalized function given only its m-vector; a
        stack ``(..., m)`` gives one row of payoffs per vector, each a
        matrix-vector product as for that vector alone."""
        restricted = np.asarray(restricted, dtype=float)
        return self.offset + (self.rows @ restricted[..., None])[..., 0]


@lru_cache(maxsize=64)
def shapley_linear_form(n: int) -> ShapleyLinearForm:
    """Closed-form linear form: d_i[T] = w[|T|-1] if i in T, else -w[|T|].

    Each coefficient is rounded as the difference of two Shapley payoffs,
    ``(w[n-1] + d_i[T]) - w[n-1]``: the payoff at the grand-coalition
    indicator is w[n-1] for every player, and adding a unit indicator at T
    moves it by d_i[T].  The rows are then bit-for-bit those that indicator
    probing of the direct coalition-sum formula yields.  Built once per n.
    """
    if not 1 <= n <= MAX_PLAYERS:
        raise SetFunctionError(f"linear form supported for 1 <= n <= {MAX_PLAYERS}, got {n}")
    w = shapley_weights(n)
    # (n, m): player i in coalition T, in C order so the rows are too
    member = np.ascontiguousarray(membership_matrix(n)[1:-1].T)
    sizes = member.sum(axis=0)
    rows = np.where(member, w[sizes - 1], -w[sizes])
    rows += w[n - 1]
    rows -= w[n - 1]
    rows.setflags(write=False)  # the form keeps these rows, no copy
    return ShapleyLinearForm(n, rows)
