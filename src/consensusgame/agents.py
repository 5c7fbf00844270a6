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
a zero-mean Gaussian perturbation (``respond``).  A lineup's learners share
one model, since the gain depends on the states alone.  ``opponent_model``
picks its form once per run: ``SampleSpaceModel``, O(k L m) at update k,
when 2 * horizon <= m, else the dense ``EnvironmentModel``, O(L m^2) per
step.  Timed on the model alone (one thread, 2-vCPU x86-64 VM), the
sample-space form is faster up to horizon ~1000 at m = 62 (L = 6) and
~2200 at m = 254 (L = 8).  The rule sits far lower because the forms round
differently: it keeps every pinned output dense (the shipped learning
scenarios, m = 2 at horizon 500; the byte-contract trace, m = 62 at horizon
100).  No average-reward estimate is kept, since nothing read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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


def nash_best_response(
    d_i: np.ndarray,
    theta: float,
    p_i: float,
    t_i: float,
    others_weighted_deviation: np.ndarray,
) -> np.ndarray:
    """Best response given the opponents' weighted deviation sum.

    Solves 2 p_i (u_i - t_i u_i - S) = d_i theta for u_i, where
    S = sum_{j != i} t_j u_j:

        u_i = (d_i theta / (2 p_i) + S) / (1 - t_i)
    """
    if p_i <= 0:
        raise SetFunctionError("risk aversion must be positive")
    if not 0.0 <= t_i < 1.0:
        raise SetFunctionError(f"best response requires t_i < 1, got {t_i}")
    d_i = np.asarray(d_i, dtype=float)
    s = np.asarray(others_weighted_deviation, dtype=float)
    return (d_i * theta / (2.0 * p_i) + s) / (1.0 - t_i)


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


@dataclass
class EnvironmentModel:
    """Affine opponent models of a lineup's learners, fitted by recursive
    least squares.

    Each of the ``learners`` maps the broadcast state s (mean revealed
    opinion, an m-vector with m = ``dim``) to its opponents' mean
    deviation.  Features are [1, s]; every coefficient matrix starts at
    zero, so the initial prediction is the zero map.

    The gain matrix doubles as a ridge prior.  The slope prior must stay
    tight: when every player fits every other player, any mutually
    consistent slope assignment is self-reinforcing, so slopes are left to
    earn their way out of zero from data rather than from early noise.

    The gain update reads the features alone, never a coefficient or a
    target, and every learner starts from the same prior and sees the same
    states; so one gain serves the lineup, downdated once per update, and
    each learner's coefficients move along its gain vector by that learner's
    own prediction error.  This is the dense form; a run of at most m/2
    steps uses ``SampleSpaceModel`` (see the module docstring).
    """

    dim: int
    learners: int
    coeffs: list[np.ndarray] = field(init=False)
    gain: np.ndarray = field(init=False)
    residual_var: np.ndarray = field(init=False)
    observations: int = field(init=False, default=0)

    def __post_init__(self):
        if self.dim < 1:
            raise SetFunctionError("environment model needs dimension >= 1")
        # one matrix per learner: a stacked (learners, dim + 1, dim) update
        # measured slower
        self.coeffs = [np.zeros((self.dim + 1, self.dim)) for _ in range(self.learners)]
        self.gain = np.diag(np.concatenate([[INTERCEPT_PRIOR], np.full(self.dim, SLOPE_PRIOR)]))
        self.residual_var = np.zeros(self.learners)

    def predict(self, state: np.ndarray) -> np.ndarray:
        """Each learner's predicted opponent mean deviation at the state, one
        row per learner."""
        phi = np.concatenate([[1.0], state])
        return np.array([coeffs.T @ phi for coeffs in self.coeffs])

    def update(self, state: np.ndarray, errors) -> None:
        """Learn from one state.  ``errors`` holds one error per learner, in
        order: its target minus its prediction at the state before this
        update."""
        phi = np.concatenate([[1.0], state])
        denom = 1.0 + phi @ self.gain @ phi
        k = (self.gain @ phi) / denom
        self.gain -= np.outer(k, phi @ self.gain)
        self.observations += 1
        for j, (coeffs, error) in enumerate(zip(self.coeffs, errors)):
            coeffs += np.outer(k, error)
            sq = float(error @ error)
            self.residual_var[j] += (sq - self.residual_var[j]) / self.observations


class SampleSpaceModel:
    """``EnvironmentModel``'s fit in sample space, for at most ``horizon``
    updates: the dual form of RLS, as in kernel RLS (Engel, Mannor & Meir
    2004).  With g_s = P_{s-1} phi_s and c_s = 1 + phi_s . g_s, the gain is
    P0 - sum_s g_s g_s^T / c_s and learner j's coefficients sum_s (g_s / c_s)
    e_{j,s}^T.  So the model keeps the g_s, the c_s and the errors e, in
    buffers allocated up front: a step takes a = (G phi) / c once, each
    learner predicts a . E_j, and the next gain vector is P0 phi - G^T a.
    Predictions and ``residual_var`` match the dense form's up to rounding.
    """

    def __init__(self, dim: int, learners: int, horizon: int):
        if dim < 1:
            raise SetFunctionError("environment model needs dimension >= 1")
        self.prior = np.concatenate([[INTERCEPT_PRIOR], np.full(dim, SLOPE_PRIOR)])
        self.gains = np.empty((horizon, dim + 1))
        self.denoms = np.empty(horizon)
        self.errors = np.empty((horizon, learners, dim))  # one (k, L m) product per step
        self.residual_var = np.zeros(learners)
        self.observations = 0
        self._phi = self._weights = None  # features of the last state predicted at

    def _weigh(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi = [1, state] and a = (G phi) / c, reused by an update at the
        state last predicted at."""
        phi = np.concatenate([[1.0], state])
        if self._phi is None or not np.array_equal(phi, self._phi):
            k = self.observations
            self._phi, self._weights = phi, (self.gains[:k] @ phi) / self.denoms[:k]
        return self._phi, self._weights

    def predict(self, state: np.ndarray) -> np.ndarray:
        """Each learner's predicted opponent mean deviation at the state, one
        row per learner."""
        _, a = self._weigh(state)
        k, (learners, dim) = self.observations, self.errors.shape[1:]
        return (a @ self.errors[:k].reshape(k, learners * dim)).reshape(learners, dim)

    def update(self, state: np.ndarray, errors) -> None:
        """Learn from one state, as ``EnvironmentModel.update``."""
        phi, a = self._weigh(state)
        k = self.observations
        np.subtract(self.prior * phi, a @ self.gains[:k], out=self.gains[k])
        self.denoms[k] = 1.0 + phi @ self.gains[k]
        self.errors[k] = errors
        self.observations = k + 1
        self._phi = None
        sq = np.vecdot(self.errors[k], self.errors[k])
        self.residual_var += (sq - self.residual_var) / self.observations


def opponent_model(dim: int, learners: int, horizon: int) -> EnvironmentModel | SampleSpaceModel:
    """The opponent model of a lineup's learners for a run of ``horizon``
    steps: ``SampleSpaceModel`` when 2 * horizon <= dim, else the dense
    ``EnvironmentModel`` (see the module docstring for the rule)."""
    if 2 * horizon <= dim:
        return SampleSpaceModel(dim, learners, horizon)
    return EnvironmentModel(dim, learners)


def respond(
    d_i: np.ndarray,
    theta: float,
    t_i: float,
    params: PlayerParams,
    prediction: np.ndarray,
    step: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """R-learner's lie at step ``step`` against a predicted opponent mean
    deviation.

    With probability gamma (``exploit_prob``) the best response to the
    prediction; otherwise that response perturbed by zero-mean Gaussian
    noise of scale ``explore_std * explore_decay**step``.
    """
    action = nash_best_response(
        d_i, theta, params.risk_aversion, t_i, (1.0 - t_i) * prediction
    )
    explore = rng.uniform() >= params.exploit_prob
    if explore and params.explore_std > 0:
        scale = params.explore_std * params.explore_decay**step
        action = action + rng.normal(0.0, scale, size=action.size)
    return action
