"""Influence matrices and the two opinion-update laws.

Truth-telling players mix opinions linearly through a row-stochastic trust
matrix W.  Strategic players reveal possibly fraudulent opinions x and mix
those in with trust weight theta:

    v_i[k] = theta * sum_j w_ij x_j[k-1] + (1 - theta) * v_i[k-1]

The stationary weights t (t' W = t', sum 1) measure long-run influence and
define the weighted average opinion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .setfn import SetFunction, weighted_average

STOCHASTIC_TOL = 1e-12


class ConsensusError(ValueError):
    """Bad influence matrix or inconsistent opinion profile."""


def influence_weights(
    w: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6
) -> np.ndarray:
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
    while steps < max_iter:
        nxt = power @ power
        steps *= 2
        if np.max(np.abs(nxt - power)) < tol:
            power = nxt
            converged = True
            break
        power = nxt
    if not converged:
        raise ConsensusError(
            f"W^k did not converge within power budget {max_iter} (periodic W?)"
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


@dataclass(frozen=True)
class OpinionProfile:
    """True opinions v_i and revealed opinions x_i at one time step.

    ``revealed`` is None until the players act.
    """

    step: int
    opinions: tuple[SetFunction, ...]
    revealed: tuple[SetFunction, ...] | None = None

    def __post_init__(self):
        if not self.opinions:
            raise ConsensusError("profile needs at least one player")
        n = self.opinions[0].n
        if any(f.n != n for f in self.opinions):
            raise ConsensusError("opinions disagree on player count")
        if len(self.opinions) != n:
            raise ConsensusError(
                f"expected one opinion per player ({n}), got {len(self.opinions)}"
            )
        if self.revealed is not None:
            if len(self.revealed) != n or any(f.n != n for f in self.revealed):
                raise ConsensusError("revealed opinions malformed")

    @property
    def n(self) -> int:
        return self.opinions[0].n

    def with_revealed(self, revealed: tuple[SetFunction, ...]) -> "OpinionProfile":
        return OpinionProfile(self.step, self.opinions, tuple(revealed))


def step_truthful(profile: OpinionProfile, influence: InfluenceMatrix) -> OpinionProfile:
    """One truthful update: each new opinion is the trust-weighted mix of
    the previous true opinions; revealed equals true."""
    _check_dims(profile, influence)
    stack = np.stack([f.values for f in profile.opinions])
    mixed = influence.w @ stack
    opinions = tuple(SetFunction(profile.n, row) for row in mixed)
    return OpinionProfile(profile.step + 1, opinions, opinions)


def strategic_update(
    v: np.ndarray, x: np.ndarray, w: np.ndarray, theta: float
) -> np.ndarray:
    """The strategic update law on stacked opinions, one row per player.

    ``v`` holds the true and ``x`` the revealed opinions of the previous
    step (same shape, any number of coalition columns); returns
    theta * W x + (1 - theta) * v.
    """
    return theta * (w @ x) + (1.0 - theta) * v


def step_strategic(
    profile: OpinionProfile, influence: InfluenceMatrix, theta: float
) -> OpinionProfile:
    """One strategic update from already-revealed opinions.

    New true opinions mix the revealed ones with weight theta and keep the
    old private opinion with weight 1 - theta.  The revealed slots of the
    returned profile are unset; agents fill them next.
    """
    if not 0.0 < theta <= 1.0:
        raise ConsensusError(f"theta must lie in (0, 1], got {theta}")
    if profile.revealed is None:
        raise ConsensusError("strategic step needs revealed opinions for the previous step")
    _check_dims(profile, influence)
    v = np.stack([f.values for f in profile.opinions])
    x = np.stack([f.values for f in profile.revealed])
    mixed = strategic_update(v, x, influence.w, theta)
    opinions = tuple(SetFunction(profile.n, row) for row in mixed)
    return OpinionProfile(profile.step + 1, opinions, None)


def average_opinion(profile: OpinionProfile, t: np.ndarray) -> SetFunction:
    """Influence-weighted average of the true opinions."""
    return weighted_average(profile.opinions, t)


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


def _check_dims(profile: OpinionProfile, influence: InfluenceMatrix) -> None:
    if influence.n != profile.n:
        raise ConsensusError(
            f"influence matrix is {influence.n}x{influence.n} but profile has "
            f"{profile.n} players"
        )
