"""Influence matrices and the one opinion-update law.

Opinion profiles are value stacks: one row of coalition values per player.
Players reveal possibly fraudulent opinions x and mix them in through a
row-stochastic trust matrix W with trust weight theta:

    v_i[k] = theta * sum_j w_ij x_j[k-1] + (1 - theta) * v_i[k-1]

Truth-telling is the case theta = 1 with honest reveals x = v, the linear
mixing v[k] = W v[k-1].  The stationary weights t (t' W = t', sum 1),
unique and positive exactly when W is primitive, measure long-run
influence and define the weighted average opinion t' v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STOCHASTIC_TOL = 1e-12
POWER_TOL = 1e-12  # W^(2^k) has converged once a squaring moves no entry by this
POWER_MAX_ITER = 10**6  # budget on the power 2^k before W counts as mixing too slowly
ROW_SPREAD_TOL = 1e-8  # W^(2^k) is rank one once its columns vary by no more than this


class ConsensusError(ValueError):
    """Bad influence matrix or weights."""


def influence_weights(w: np.ndarray) -> np.ndarray:
    """Stationary influence weights of a row-stochastic matrix.

    The weights exist, are unique and give every player a share exactly
    when W is primitive, so that one rule decides validity: a W that is not
    (reducible, as [[1, 0], [0.5, 0.5]], or periodic, as [[0, 1], [1, 0]])
    is refused before anything is computed.  Repeated squaring then drives
    W^(2^k) to its rank-one limit 1 t'; it has arrived once its rows agree
    and a squaring moves no entry by POWER_TOL.  A primitive W that mixes
    so slowly that it has not arrived within the power budget, as
    [[1 - 1e-6, 1e-6], [1e-6, 1 - 1e-6]], is refused too.
    """
    w = _check_stochastic(w)
    if not _is_primitive(w):
        raise ConsensusError(
            "W is not primitive: some player's opinion never reaches some other "
            "player, so its stationary weight is 0"
        )
    power, steps = w, 1
    while steps < POWER_MAX_ITER:
        nxt = power @ power
        steps *= 2
        settled = np.max(np.abs(nxt - power)) < POWER_TOL
        power = nxt
        # a near-identity W settles at once, long before its rows agree
        if settled and np.max(np.ptp(power, axis=0)) <= ROW_SPREAD_TOL:
            break
    else:
        raise ConsensusError(
            f"W^k did not converge within power budget {POWER_MAX_ITER}: "
            "W mixes too slowly"
        )
    t = power.mean(axis=0)
    t = t / t.sum()
    for _ in range(100):  # polish to machine precision
        residual = np.max(np.abs(t @ w - t))
        if residual < 1e-15:
            break
        t = t @ w
        t = t / t.sum()
    return t


def _is_primitive(w: np.ndarray) -> bool:
    """Whether some power of W is positive, decided on its support pattern:
    by Wielandt's bound a primitive n x n matrix has a positive power
    (n - 1)^2 + 1 and every later one, so squaring the 0/1 pattern (exact in
    floats) until the power reaches the bound settles it."""
    n = w.shape[0]
    support = (w > 0).astype(float)
    power = 1
    while power < (n - 1) ** 2 + 1:
        support = (support @ support > 0).astype(float)
        power *= 2
    return bool(support.all())


def _check_stochastic(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConsensusError(f"influence matrix must be square, got shape {w.shape}")
    if np.any(w < -STOCHASTIC_TOL):
        raise ConsensusError("influence weights must be nonnegative")
    row_sums = w.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > STOCHASTIC_TOL:
        raise ConsensusError(f"rows must sum to 1, got sums {row_sums}")
    return w


@dataclass(frozen=True)
class InfluenceMatrix:
    """Row-stochastic trust matrix with derived stationary weights."""

    n: int
    w: np.ndarray
    t: np.ndarray

    @staticmethod
    def from_matrix(w) -> "InfluenceMatrix":
        w = _check_stochastic(w)
        t = influence_weights(w)
        w = w.copy()
        w.setflags(write=False)
        t.setflags(write=False)
        return InfluenceMatrix(w.shape[0], w, t)


def strategic_update(
    v: np.ndarray, x: np.ndarray, w: np.ndarray, theta: float
) -> np.ndarray:
    """The strategic update law on stacked opinions, one row per player.

    ``v`` holds the true and ``x`` the revealed opinions of the previous
    step (same shape, any number of coalition columns); returns
    theta * W x + (1 - theta) * v.
    """
    return theta * (w @ x) + (1.0 - theta) * v


def deviation_disutility(deviations: np.ndarray, t: np.ndarray) -> float | np.ndarray:
    """Summed per-entry weighted variance of the lie vectors.

    var[u] = sum_i t_i u_i^2 - (sum_i t_i u_i)^2 holds entrywise; the
    disutility is its sum over the restricted entries.  One ``(n, m)``
    profile gives a float; a stack ``(..., n, m)`` gives one value per
    profile, each that of its profile alone.
    """
    u = np.atleast_2d(np.asarray(deviations, dtype=float))
    t = np.asarray(t, dtype=float)
    if t.shape != (u.shape[-2],):
        raise ConsensusError("one weight per player required")
    mean = t @ u
    second = t @ (u * u)
    out = np.sum(second - mean * mean, axis=-1)
    return float(out) if u.ndim == 2 else out
