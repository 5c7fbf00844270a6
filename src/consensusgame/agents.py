"""Player strategies: truthful, risk-averse Nash, best response, R-learning.

Stage payoff for player i given the joint lie profile u:

    reward_i = -p_i * disutility(u) + theta * d_i . A[u]

where d_i is the player's Shapley linear-form row, A[.] the influence-
weighted average, and p_i the risk-aversion weight.  The closed-form
risk-averse equilibrium deviation is d_i * theta / (2 p_i); the best
response to a known opponent aggregate solves the same first-order
condition with the aggregate held fixed.

The R-learning agent cannot assume rational opponents.  It fits an affine
model of the opponents' mean deviation as a function of the broadcast mean
revealed opinion (recursive least squares), plays the best response against
the model's prediction with probability gamma, and otherwise explores with
a zero-mean Gaussian perturbation.  A running average-reward estimate and
average-adjusted value are maintained on the side.

The RLS update is two steps: a gain step that depends only on the
features [1, s], and a coefficient step that applies the resulting gain
vector to the learner's own prediction error.  Every learner in a lineup
starts from the same prior and sees the same broadcast state, so their
gain matrices agree bit for bit at every step; the simulation keeps one
gain per lineup, downdates it once per step, and runs only the
coefficient step per learner.
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
    probability gamma of playing the model-based best response,
    ``explore_std``/``explore_decay`` shape the Gaussian exploration
    perturbation, and ``value_rate``/``avg_reward_rate`` are the
    average-adjusted value and average-reward learning rates.
    """

    risk_aversion: float
    kind: str = "truthful"
    exploit_prob: float = 0.5
    explore_std: float = 0.05
    explore_decay: float = 1.0
    value_rate: float = 0.1
    avg_reward_rate: float = 0.01

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
    p_i: float,
    theta: float,
    d_i: np.ndarray,
) -> float:
    """Stage reward: fraud disutility traded against the Shapley-shift gain."""
    u = np.asarray(deviations, dtype=float)
    t = np.asarray(t, dtype=float)
    mean_dev = t @ u
    return float(-p_i * deviation_disutility(u, t) + theta * (np.asarray(d_i) @ mean_dev))


def stage_cost(
    deviations: np.ndarray,
    t: np.ndarray,
    p_i: float,
    theta: float,
    d_i: np.ndarray,
) -> float:
    """Negated stage reward; the quantity each player myopically minimizes."""
    return -step_reward(deviations, t, p_i, theta, d_i)


@dataclass
class EnvironmentModel:
    """Affine opponent model fitted by recursive least squares.

    Maps the broadcast state s (mean revealed opinion, an m-vector) to the
    opponents' mean deviation.  Features are [1, s]; the coefficient matrix
    starts at zero, so the initial prediction is the zero map.

    The gain matrix doubles as a ridge prior.  The slope prior must stay
    tight: when every player fits every other player, any mutually
    consistent slope assignment is self-reinforcing, so slopes are left to
    earn their way out of zero from data rather than from early noise.

    ``update`` is ``gain_step`` followed by ``coeff_step``.  The gain step
    reads and writes the gain alone, never the coefficients or the target,
    so models with the same ``dim`` and prior scales that are fed the same
    state sequence hold identical gains and may share one, each running only
    its own coefficient step with the shared gain vector.
    """

    dim: int
    intercept_scale: float = 1e-2
    slope_scale: float = 1e-3
    coeffs: np.ndarray = field(init=False)
    gain: np.ndarray = field(init=False)
    residual_var: float = field(init=False, default=0.0)
    observations: int = field(init=False, default=0)

    def __post_init__(self):
        if self.dim < 1:
            raise SetFunctionError("environment model needs dimension >= 1")
        if self.intercept_scale <= 0 or self.slope_scale <= 0:
            raise SetFunctionError("prior scales must be positive")
        self.coeffs = np.zeros((self.dim + 1, self.dim))
        self.gain = np.diag(
            np.concatenate([[self.intercept_scale], np.full(self.dim, self.slope_scale)])
        )

    def features(self, state: np.ndarray) -> np.ndarray:
        """Regressor [1, s] of a broadcast state."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise SetFunctionError(f"state must have length {self.dim}")
        return np.concatenate([[1.0], state])

    def predict(self, state: np.ndarray) -> np.ndarray:
        return self.coeffs.T @ self.features(state)

    def gain_step(self, phi: np.ndarray) -> np.ndarray:
        """Downdate the gain on features phi; return the gain vector k."""
        denom = 1.0 + phi @ self.gain @ phi
        k = (self.gain @ phi) / denom
        self.gain -= np.outer(k, phi @ self.gain)
        return k

    def coeff_step(self, k: np.ndarray, error: np.ndarray) -> None:
        """Move the coefficients along gain vector k by the prediction error
        (target minus the prediction made before the gain step)."""
        self.coeffs += np.outer(k, error)
        self.observations += 1
        sq = float(error @ error)
        self.residual_var += (sq - self.residual_var) / self.observations

    def update(self, state: np.ndarray, target: np.ndarray) -> None:
        phi = self.features(state)
        error = np.asarray(target, dtype=float) - self.coeffs.T @ phi
        self.coeff_step(self.gain_step(phi), error)


@dataclass
class TruthfulAgent:
    """Always reveals the true opinion."""

    dim: int

    def act(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)


@dataclass
class NashAgent:
    """Plays the constant closed-form equilibrium deviation."""

    d_i: np.ndarray
    theta: float
    params: PlayerParams

    def act(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return nash_deviation(self.d_i, self.theta, self.params.risk_aversion)


@dataclass
class RLearningAgent:
    """Model-based average-reward learner.

    ``respond`` plays ``best_response`` to a prediction of the opponents'
    mean deviation with probability gamma (exploitation) and otherwise
    perturbs that action with decaying zero-mean Gaussian noise
    (exploration); ``act`` is ``respond`` to the fitted opponent model's
    prediction at the state.  ``observe`` updates the
    opponent model on the observed (state, opponent mean deviation) pair
    and the average-reward bookkeeping (``record_reward``).
    """

    d_i: np.ndarray
    theta: float
    t_i: float
    params: PlayerParams
    model: EnvironmentModel = field(init=False)
    avg_reward: float = field(init=False, default=0.0)
    value: float = field(init=False, default=0.0)
    steps_acted: int = field(init=False, default=0)

    def __post_init__(self):
        self.d_i = np.asarray(self.d_i, dtype=float)
        self.model = EnvironmentModel(self.d_i.size)

    def best_response(self, prediction: np.ndarray) -> np.ndarray:
        """Best response to a predicted opponent mean deviation."""
        others = (1.0 - self.t_i) * prediction
        return nash_best_response(
            self.d_i, self.theta, self.params.risk_aversion, self.t_i, others
        )

    def act(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.respond(self.model.predict(state), rng)

    def respond(self, prediction: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Act against a given prediction of the opponents' mean deviation."""
        action = self.best_response(prediction)
        explore = rng.uniform() >= self.params.exploit_prob
        if explore and self.params.explore_std > 0:
            scale = self.params.explore_std * self.params.explore_decay**self.steps_acted
            action = action + rng.normal(0.0, scale, size=action.size)
        self.steps_acted += 1
        return action

    def observe(
        self, state: np.ndarray, opponent_mean_deviation: np.ndarray, reward: float
    ) -> None:
        self.model.update(state, opponent_mean_deviation)
        self.record_reward(reward)

    def record_reward(self, reward: float) -> None:
        """Average-reward and average-adjusted value bookkeeping."""
        beta = self.params.avg_reward_rate
        alpha = self.params.value_rate
        self.avg_reward += beta * (reward - self.avg_reward)
        self.value += alpha * (reward - self.avg_reward - self.value)


def make_agent(params: PlayerParams, d_i: np.ndarray, theta: float, t_i: float):
    """Instantiate the agent matching a player's configuration."""
    if params.kind == "truthful":
        return TruthfulAgent(np.asarray(d_i).size)
    if params.kind == "nash":
        return NashAgent(np.asarray(d_i, dtype=float), theta, params)
    return RLearningAgent(np.asarray(d_i, dtype=float), theta, t_i, params)

