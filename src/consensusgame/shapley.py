"""Shapley allocations and their linear-form representation.

Both rest on one size-weight table w[s] = s! (n-s-1)! / n!, the weight a
coalition of s players avoiding player i carries in i's Shapley sum.

For a fixed player count, the Shapley payoff of each player is an affine
function of the payoff vector.  On normalized functions (empty coalition
worth 0, grand coalition worth 1) the payoff of player i is
``1/n + d_i . restricted(f)`` with m-vector coefficient rows d_i that sum
to zero across players.  In closed form, d_i[T] is w[|T|-1] when i is in
coalition T and -w[|T|] otherwise.  The strategic opinion dynamics consume
those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .setfn import (
    GATHER_CHUNK_BYTES,
    SetFunction,
    SetFunctionError,
    membership_matrix,
    num_restricted,
)

# the largest player count the linear form (and so the dynamics) is built for
LINEAR_FORM_MAX_PLAYERS = 12


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


@lru_cache(maxsize=64)
def _shapley_gathers(n: int) -> tuple:
    """Three (n, 2^(n-1)) stacks, row i for player i: the coalitions C
    avoiding i, C + i, and C's weight."""
    masks = np.arange(1 << n)
    bits = 1 << np.arange(n)
    without = np.stack([masks[(masks & bit) == 0] for bit in bits])
    arrays = (without, without | bits[:, None], shapley_weights(n)[np.bitwise_count(without)])
    for array in arrays:
        array.setflags(write=False)
    return arrays


def shapley_payoffs(values: np.ndarray, n: int) -> np.ndarray:
    """Shapley payoffs of dense payoff vectors of n players, the last axis
    of ``values``: g_i = sum over coalitions C not containing i of
    |C|! (n-|C|-1)! / n! * (f(C+i) - f(C)), as many players of every vector
    per gather as fit in GATHER_CHUNK_BYTES.  Each vector's payoffs are
    those of gathering it alone."""
    without, with_i, weights = _shapley_gathers(n)
    vectors = max(1, values.size // values.shape[-1])
    step = max(1, GATHER_CHUNK_BYTES // (8 * without.shape[1] * vectors))
    chunks = [slice(lo, lo + step) for lo in range(0, n, step)]
    sums = []
    for c in chunks:
        # take, not indexing, keeps the gathered rows contiguous, so each sum
        # runs along its row in the same order whatever the batch
        gains = values.take(with_i[c], axis=-1) - values.take(without[c], axis=-1)
        sums.append((weights[c] * gains).sum(axis=-1))
    return np.concatenate(sums, axis=-1)


def shapley_value(f: SetFunction) -> Allocation:
    """Exact Shapley allocation by the direct coalition-sum formula.

    Efficient: payoffs sum to the grand-coalition value.  The index and
    weight gathers are built once per n.
    """
    return Allocation(f.n, shapley_payoffs(f.values, f.n))


@dataclass(frozen=True)
class ShapleyLinearForm:
    """Affine representation of Shapley payoffs on normalized functions.

    ``payoff_i(f) = offset + rows[i] . restricted(f)`` whenever f is
    normalized.  Rows sum to the zero vector.
    """

    n: int
    rows: np.ndarray  # (n, m)
    offset: float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (self.n, num_restricted(self.n)):
            raise SetFunctionError(
                f"expected rows of shape {(self.n, num_restricted(self.n))}"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

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


def shapley_linear_form(n: int) -> ShapleyLinearForm:
    """Closed-form linear form: d_i[T] = w[|T|-1] if i in T, else -w[|T|].

    Each coefficient is rounded as the difference of two Shapley payoffs,
    ``(w[n-1] + d_i[T]) - w[n-1]``: the payoff at the grand-coalition
    indicator is w[n-1] for every player, and adding a unit indicator at T
    moves it by d_i[T].  The rows are then bit-for-bit those that
    indicator probing of ``shapley_value`` yields.
    """
    if not 2 <= n <= LINEAR_FORM_MAX_PLAYERS:
        raise SetFunctionError(
            f"linear form supported for 2 <= n <= {LINEAR_FORM_MAX_PLAYERS}, got {n}"
        )
    w = shapley_weights(n)
    member = membership_matrix(n)[1:-1].T  # (n, m): player i in coalition T
    sizes = member.sum(axis=0)
    signed = np.where(member, w[sizes - 1], -w[sizes])
    rows = (w[n - 1] + signed) - w[n - 1]
    return ShapleyLinearForm(n, rows, 1.0 / n)
