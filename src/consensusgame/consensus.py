"""Influence matrices and the one opinion-update law.

Opinion profiles are value stacks: one row of coalition values per player.
Players reveal possibly fraudulent opinions x and mix them in through a
row-stochastic trust matrix W with trust weight theta:

    v_i[k] = theta * sum_j w_ij x_j[k-1] + (1 - theta) * v_i[k-1]

Truth-telling is the case theta = 1 with honest reveals x = v, the linear
mixing v[k] = W v[k-1].  The stationary weights t (t' W = t', sum 1)
measure long-run influence and define the weighted average opinion t' v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STOCHASTIC_TOL = 1e-12
POWER_TOL = 1e-12  # W^(2^k) has converged once a squaring moves no entry by this
POWER_MAX_ITER = 10**6  # budget on the power 2^k before W counts as periodic


class ConsensusError(ValueError):
    """Bad influence matrix or weights."""


def influence_weights(w: np.ndarray) -> np.ndarray:
    """Stationary influence weights of a row-stochastic matrix.

    Power iteration by repeated squaring: W^(2^k) must converge to a
    rank-one matrix with identical rows, which requires a single eigenvalue
    at 1 and the rest strictly inside the unit disk.  Reducible matrices
    (rows never agree) and periodic ones (no convergence within the power
    budget) are rejected.
    """
    w = _check_stochastic(w)
    n = w.shape[0]
    if n == 1:
        return np.ones(1)
    power = w.copy()
    steps = 1
    converged = False
    while steps < POWER_MAX_ITER:
        nxt = power @ power
        steps *= 2
        if np.max(np.abs(nxt - power)) < POWER_TOL:
            power = nxt
            converged = True
            break
        power = nxt
    if not converged:
        raise ConsensusError(
            f"W^k did not converge within power budget {POWER_MAX_ITER} (periodic W?)"
        )
    spread = power.max(axis=0) - power.min(axis=0)
    if np.max(spread) > 1e-8:
        raise ConsensusError(
            "W^k converged but rows disagree: eigenvalue 1 is not simple, "
            "no consensus is reached"
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


def deviation_disutility(deviations: np.ndarray, t: np.ndarray) -> float:
    """Summed per-entry weighted variance of the lie vectors.

    var[u] = sum_i t_i u_i^2 - (sum_i t_i u_i)^2 holds entrywise; the
    disutility is its sum over the restricted entries.
    """
    u = np.atleast_2d(np.asarray(deviations, dtype=float))
    t = np.asarray(t, dtype=float)
    if t.shape != (u.shape[0],):
        raise ConsensusError("one weight per player required")
    mean = t @ u
    second = t @ (u * u)
    return float(np.sum(second - mean * mean))

