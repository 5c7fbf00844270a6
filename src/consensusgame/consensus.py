"""Influence matrices and the one opinion-update law.

Opinion profiles are value stacks: one row of coalition values per player.
Players reveal possibly fraudulent opinions x and mix them in through a
row-stochastic trust matrix W with trust weight theta:

    v_i[k] = theta * sum_j w_ij x_j[k-1] + (1 - theta) * v_i[k-1]

Truth-telling is the case theta = 1 with honest reveals x = v, the linear
mixing v[k] = W v[k-1].  The stationary weights t (t' W = t', sum 1),
unique and positive exactly when W is irreducible, measure long-run
influence and define the weighted average opinion t' v, which truthful
mixing reaches when W is also aperiodic (primitive).  One exact elimination
(Grassmann, Taksar & Heyman 1985) gives them, with no iteration or tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STOCHASTIC_TOL = 1e-12


class ConsensusError(ValueError):
    """Bad influence matrix or weights."""


def influence_weights(w: np.ndarray) -> np.ndarray:
    """Stationary influence weights of a row-stochastic matrix.

    The weights are unique and give every player a share exactly when W is
    irreducible, and truthful mixing converges to consensus exactly when W
    is also aperiodic, that is primitive; so one rule decides validity: a W
    that is not is refused before anything is computed, as reducible
    ([[1, 0], [0.5, 0.5]]) or as periodic ([[0, 1], [1, 0]], whose weights
    exist but whose powers never converge).  The Grassmann-Taksar-Heyman
    elimination then solves t' W = t' from W's off-diagonal entries alone,
    with no subtraction, so each weight is accurate relative to its own
    size however slowly W mixes.  It uses sums, products and outer products
    only, no BLAS call, so t's bits do not depend on the BLAS kernel.  A W
    whose weights span more than the float range, as
    [[0.5, 0.5], [5e-324, 1]], is refused too.
    """
    w = _check_stochastic(w)
    if not _is_primitive(w):
        if _is_primitive(w + np.eye(len(w))):  # W is irreducible exactly when I + W is primitive
            reason = "it is periodic, so the powers W^k of truthful mixing never converge"
        else:
            reason = (
                "some player's opinion never reaches some other player, so its "
                "stationary weight is 0"
            )
        raise ConsensusError(f"W is not primitive: {reason}")
    a, n = w.copy(), w.shape[0]
    with np.errstate(all="ignore"):  # an overflow leaves t infinite or nan, refused below
        for k in range(n - 1, 0, -1):  # censor the chain to players 0..k-1
            a[:k, k] /= a[k, :k].sum()
            a[:k, :k] += np.outer(a[:k, k], a[k, :k])
        t = np.ones(n)
        for k in range(1, n):
            t[k] = (t[:k] * a[:k, k]).sum()
        t /= t.sum()
    if not (np.isfinite(t).all() and (t > 0).all()):
        raise ConsensusError(
            "W's stationary weights span more than the float range, so some "
            "player's weight cannot be computed"
        )
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

    w: np.ndarray
    t: np.ndarray

    @property
    def n(self) -> int:
        return len(self.w)

    @staticmethod
    def from_matrix(w) -> "InfluenceMatrix":
        w = np.array(w, dtype=float)  # a copy, so no caller's array aliases the frozen one
        t = influence_weights(w)
        w.setflags(write=False)
        t.setflags(write=False)
        return InfluenceMatrix(w, t)


def strategic_update(
    v: np.ndarray, x: np.ndarray, w: np.ndarray, theta: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The strategic update law on stacked opinions, one row per player.

    ``v`` holds the true and ``x`` the revealed opinions of the previous
    step (same shape, any number of coalition columns); returns
    theta * W x + (1 - theta) * v, in ``out`` if given (not ``v`` or ``x``).
    """
    wx = np.matmul(w, x, out=out)
    return np.add(np.multiply(wx, theta, out=wx), (1.0 - theta) * v, out=wx)


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
