"""Player strategies: truthful, risk-averse Nash, best response, R-learning.

Stage payoff for player i given the joint lie profile u:

    reward_i = -p_i * disutility(u) + theta * d_i . A[u]

where d_i is the player's Shapley linear-form row, A[.] the influence-
weighted average, and p_i the risk-aversion weight.  The closed-form
risk-averse equilibrium deviation is d_i * theta / (2 p_i); the best
response to a known opponent aggregate solves the same first-order
condition with the aggregate held fixed.

The two fixed strategies ignore the state, so a lineup plays them as
constant rows of lies: zeros for a truthful player and the closed-form
``nash_deviation`` for a Nash player.

The R-learner cannot assume rational opponents.  It fits an affine model
of the opponents' mean deviation as a function of the broadcast mean
revealed opinion (recursive least squares), plays the best response against
the model's prediction with probability gamma, and otherwise explores with
a zero-mean Gaussian perturbation.  ``respond`` answers for a lineup's L
learners at once, one (L, m) expression plus each learner's own draws.  The
L learners share one ``EnvironmentModel``, since the gain depends on the
states alone.  The model has one form, RLS in sample space, and update k
costs O(k L m).  Its buffers, H (m + 2) + L H m floats for horizon H, are
allocated before step 1.  They are never larger than the trace's own
opinion and lie blocks, so the memory refusal in ``SimulationTrace.empty``
bounds a run at about twice the figure it checks.  The cost grows with the
horizon: at n = 6 (m = 62, L = 6; one thread, 2-vCPU x86-64 VM) a
``run_simulation`` takes a median of about 6 ms at horizon 100, 0.14-0.16 s
at 1000, 0.50-0.51 s at 2000 and 2.7-3.7 s at 5000.  No average-reward
estimate is kept, since nothing read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .consensus import deviation_disutility
from .setfn import SetFunctionError

AGENT_KINDS = ("truthful", "nash", "rlearning")


@dataclass(frozen=True)
class PlayerParams:
    """Per-player strategy configuration.

    ``risk_aversion`` is the disutility weight p_i > 0.  The remaining
    fields only matter for the "rlearning" kind: ``exploit_prob`` is the
    probability gamma of playing the model-based best response, and
    ``explore_std``/``explore_decay`` shape the Gaussian exploration
    perturbation.
    """

    risk_aversion: float
    kind: str = "truthful"
    exploit_prob: float = 0.5
    explore_std: float = 0.05
    explore_decay: float = 1.0

    def __post_init__(self):
        for name in FLOAT_PARAMS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SetFunctionError(f"{name} must be finite, got {value!r}")
        if self.risk_aversion <= 0:
            raise SetFunctionError(f"risk aversion must be > 0, got {self.risk_aversion}")
        if self.kind not in AGENT_KINDS:
            raise SetFunctionError(f"unknown agent kind {self.kind!r}")
        if not 0.0 <= self.exploit_prob <= 1.0:
            raise SetFunctionError("exploit probability must lie in [0, 1]")
        if self.explore_std < 0 or not 0.0 < self.explore_decay <= 1.0:
            raise SetFunctionError("bad exploration parameters")


# the numeric fields of PlayerParams, the keys a scenario reads as numbers
FLOAT_PARAMS = tuple(f.name for f in fields(PlayerParams) if f.type == "float")


def nash_deviation(d_i: np.ndarray, theta: float, p_i: float) -> np.ndarray:
    """Closed-form risk-averse equilibrium lie: d_i * theta / (2 p_i).

    Constant over time.  When p_i is proportional to the influence weight
    t_i across all players, the profile's weighted mean deviation vanishes
    because the d rows sum to zero.
    """
    if p_i <= 0:
        raise SetFunctionError("risk aversion must be positive")
    return np.asarray(d_i, dtype=float) * (theta / (2.0 * p_i))


def best_response_terms(d, theta: float, p, t) -> tuple[np.ndarray, np.ndarray]:
    """The constants of a best response, d theta / (2 p) and 1 - t, once
    p > 0 and 0 <= t < 1 are checked.  (L, m) rows d with (L, 1) columns p
    and t give a lineup's, each row bit for bit its own call's."""
    p, t = np.asarray(p, dtype=float), np.asarray(t, dtype=float)
    if not (p > 0).all():
        raise SetFunctionError("risk aversion must be positive")
    for t_i in t.flat:
        if not 0.0 <= t_i < 1.0:
            raise SetFunctionError(f"best response requires t_i < 1, got {t_i}")
    return np.asarray(d, dtype=float) * theta / (2.0 * p), 1.0 - t


def nash_best_response(
    d_i: np.ndarray,
    theta: float,
    p_i: float | np.ndarray,
    t_i: float | np.ndarray,
    others_weighted_deviation: np.ndarray,
) -> np.ndarray:
    """Best response given the opponents' weighted deviation sum.

    Solves 2 p_i (u_i - t_i u_i - S) = d_i theta for u_i, where
    S = sum_{j != i} t_j u_j:

        u_i = (d_i theta / (2 p_i) + S) / (1 - t_i)

    Broadcasts over a lineup as ``best_response_terms`` does.
    """
    lean, keep = best_response_terms(d_i, theta, p_i, t_i)
    return (lean + np.asarray(others_weighted_deviation, dtype=float)) / keep


def step_reward(
    deviations: np.ndarray,
    t: np.ndarray,
    p: float | np.ndarray,
    theta: float,
    d: np.ndarray,
    disutility: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Stage reward: fraud disutility traded against the Shapley-shift gain.

    One player (scalar risk aversion ``p``, linear-form row ``d``) gets a
    float; all players (vector ``p``, the ``(n, m)`` rows ``d``) get a
    vector.  A stack of lie profiles ``(..., n, m)`` adds its leading axes
    to either, each step's rewards those of its profile alone.
    ``disutility`` is the ``deviation_disutility`` of ``deviations`` when
    the caller has it already.
    """
    u = np.asarray(deviations, dtype=float)
    t = np.asarray(t, dtype=float)
    if disutility is None:
        disutility = deviation_disutility(u, t)
    mean_dev = t @ u
    d = np.asarray(d, dtype=float)
    if d.ndim == 1:
        reward = -p * disutility + theta * np.vecdot(d, mean_dev)
        return float(reward) if u.ndim <= 2 else reward
    # one dot product per row: a matrix-vector product rounds differently
    shift = np.vecdot(d, mean_dev[..., None, :])
    return -np.asarray(p, dtype=float) * np.asarray(disutility)[..., None] + theta * shift


def stage_cost(
    deviations: np.ndarray,
    t: np.ndarray,
    p_i: float,
    theta: float,
    d_i: np.ndarray,
) -> float:
    """Negated stage reward; the quantity each player myopically minimizes."""
    return -step_reward(deviations, t, p_i, theta, d_i)


INTERCEPT_PRIOR, SLOPE_PRIOR = 1e-2, 1e-3  # the gain's initial diagonal: the ridge prior


class EnvironmentModel:
    """Affine opponent models of a lineup's learners, fitted by recursive
    least squares in sample space, for at most ``horizon`` updates.

    Each of the ``learners`` maps the broadcast state s (mean revealed
    opinion, an m-vector with m = ``dim``) to its opponents' mean
    deviation.  Features are phi = [1, s]; every coefficient starts at
    zero, so the initial prediction is the zero map.

    The diagonal ``prior`` P0 is the initial gain and doubles as a ridge
    prior.  The slope prior must stay tight: when every player fits every
    other player, any mutually consistent slope assignment is
    self-reinforcing, so slopes are left to earn their way out of zero
    from data rather than from early noise.

    The fit is the dual form of RLS, as in kernel RLS (Engel, Mannor &
    Meir 2004).  With g_s = P_{s-1} phi_s and c_s = 1 + phi_s . g_s, the
    gain after k updates is P0 - sum_s g_s g_s^T / c_s and learner j's
    coefficients are sum_s (g_s / c_s) e_{j,s}^T.  The gain reads the
    features alone, and every learner starts from the same prior and sees
    the same states, so the lineup keeps one set of g_s and c_s and each
    learner's errors e.  All three live in buffers allocated up front,
    horizon * (m + 2) + learners * horizon * m floats.  A state phi is
    weighed once, as a = (G phi) / c; every learner predicts a . E_j in one
    stacked product, bit for bit what a private one-learner model gives,
    and the next gain vector is P0 phi - G^T a.  So update k costs
    O(k * learners * m).
    """

    def __init__(self, dim: int, learners: int, horizon: int):
        if dim < 1:
            raise SetFunctionError("environment model needs dimension >= 1")
        self.prior = np.concatenate([[INTERCEPT_PRIOR], np.full(dim, SLOPE_PRIOR)])
        self.gains = np.empty((horizon, dim + 1))
        self.denoms = np.empty(horizon)
        self.errors = np.empty((learners, horizon, dim))  # learner-major, for one stacked product
        self.residual_var = np.zeros(learners)
        self.observations = 0

    def weigh(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi = [1, state] and its weights a = (G phi) / c: what ``predict``
        and ``update`` at the state take."""
        phi = np.concatenate([[1.0], state])
        k = self.observations
        return phi, (self.gains[:k] @ phi) / self.denoms[:k]

    def predict(self, weights: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Each learner's predicted opponent mean deviation at the state the
        ``weigh`` weights are of, one row per learner."""
        _, a = weights
        return np.matmul(a, self.errors[:, : self.observations])

    def update(self, weights: tuple[np.ndarray, np.ndarray], errors) -> None:
        """Learn from the state of the ``weigh`` weights, taken since the
        last update.  ``errors`` holds one error per learner, in order: its
        target minus its prediction at the state."""
        phi, a = weights
        k = self.observations
        np.subtract(self.prior * phi, a @ self.gains[:k], out=self.gains[k])
        self.denoms[k] = 1.0 + phi @ self.gains[k]
        self.errors[:, k] = errors
        self.observations = k + 1
        sq = np.vecdot(self.errors[:, k], self.errors[:, k])
        self.residual_var += (sq - self.residual_var) / self.observations


def respond(
    terms: tuple[np.ndarray, np.ndarray],
    predictions: np.ndarray,
    players: list[PlayerParams],
    step: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """A lineup's R-learner lies at step ``step`` against their (L, m)
    predicted opponent mean deviations, one row per learner.

    ``terms`` are the learners' ``best_response_terms``.  With probability
    gamma (``exploit_prob``) a learner plays the best response to its
    prediction; otherwise that response perturbed by zero-mean Gaussian
    noise of scale ``explore_std * explore_decay**step``.  The learners
    draw in lineup order, each one uniform and then, when exploring, its
    noise row.
    """
    lean, keep = terms
    lies = (lean + keep * predictions) / keep
    for row, params in zip(lies, players):
        if rng.random() >= params.exploit_prob and params.explore_std > 0:
            row += rng.normal(0.0, params.explore_std * params.explore_decay**step, size=row.size)
    return lies
