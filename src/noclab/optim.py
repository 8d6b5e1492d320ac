"""Training regimes: linear-decay SGD (1LR), RMSProp (2LR), and
covariance-preconditioned per-partition training with a final parameter
average (3LR).

`train` is the one entry point from (features, labels, regime,
partitions) to a trained model: it deals the samples into partitions
and chains (1LR, 2LR) or averages (3LR) the per-partition runs of
`train_epoch`. Parameters and gradients are plain float64 arrays (a
model's `params`, and what `nets.loss_and_grads` returns); every step
rule returns new arrays and never writes into the ones it is given.

All preconditioning is elementwise (diagonal). The covariance
accumulator uses the literal gamma*(1-gamma) variance factor; pass
standard_ewma=True for the conventional (1-gamma) weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ArchMismatch, InvalidPlan, InvalidValue, SizeMismatch

DEFAULT_BETA = 0.9
DEFAULT_GAMMA = 0.9
DEFAULT_EPSILON = 1e-8

REGIMES = ("1LR", "2LR", "3LR")


@dataclass(frozen=True)
class Schedule:
    alpha_start: float
    alpha_end: float
    total_steps: int

    def __post_init__(self):
        if not (self.alpha_start >= self.alpha_end > 0):
            raise InvalidValue("need alpha_start >= alpha_end > 0")
        if self.total_steps <= 0:
            raise InvalidValue("total_steps must be positive")


def schedule_alpha(s: Schedule, t: int) -> float:
    """Linear interpolation from alpha_start at t=0 to alpha_end at t=total_steps."""
    if not (0 <= t <= s.total_steps):
        raise InvalidValue(f"step {t} outside [0, {s.total_steps}]")
    return s.alpha_start + (s.alpha_end - s.alpha_start) * t / s.total_steps


@dataclass
class PreconditionerState:
    """Per-parameter accumulators for the adaptive step rules."""

    psi: np.ndarray  # running mean of squared gradients
    mu: np.ndarray  # running gradient mean
    c2: np.ndarray  # running gradient variance
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    epsilon: float = DEFAULT_EPSILON
    standard_ewma: bool = False

    @classmethod
    def zeros_like(cls, theta, beta=DEFAULT_BETA, gamma=DEFAULT_GAMMA,
                   epsilon=DEFAULT_EPSILON, standard_ewma=False):
        z = np.zeros_like(theta, dtype=np.float64)
        return cls(psi=z.copy(), mu=z.copy(), c2=z.copy(), beta=beta,
                   gamma=gamma, epsilon=epsilon, standard_ewma=standard_ewma)


def _check_shapes(theta, grad, *accs):
    t = np.asarray(theta)
    g = np.asarray(grad)
    if t.shape != g.shape:
        raise SizeMismatch(f"theta {t.shape} vs grad {g.shape}")
    for a in accs:
        if a.shape != t.shape:
            raise SizeMismatch(f"accumulator {a.shape} vs theta {t.shape}")
    return t, g


def _is_count(value):
    """Whether `value` is an integer >= 1 (a bool is no count)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= 1)


def _check_alpha(alpha):
    # a plain comparison, no numpy call: the rules run once per parameter
    # per step; NaN fails it too
    if not 0 < alpha < math.inf:
        raise InvalidValue(f"alpha must be positive and finite, got {alpha}")


def sgd_step(theta, grad, alpha):
    """theta - alpha * grad."""
    t, g = _check_shapes(theta, grad)
    _check_alpha(alpha)
    return t - alpha * g


def rmsprop_step(theta, grad, state: PreconditionerState, alpha):
    """psi <- beta*psi + (1-beta)*g^2; theta <- theta - alpha*g/(sqrt(psi)+eps)."""
    t, g = _check_shapes(theta, grad, state.psi)
    _check_alpha(alpha)
    psi = state.beta * state.psi + (1 - state.beta) * g * g
    out = t - alpha * g / (np.sqrt(psi) + state.epsilon)
    state.psi = psi
    return out, state


def covprecond_step(theta, grad, state: PreconditionerState, alpha):
    """Covariance-preconditioned update.

    c2 <- gamma*c2 + gamma*(1-gamma)*(g - mu)^2   (previous mu)
    mu <- gamma*mu + (1-gamma)*g
    theta <- theta - alpha*g/(sqrt(c2)+eps)
    """
    t, g = _check_shapes(theta, grad, state.mu, state.c2)
    _check_alpha(alpha)
    var_w = (1 - state.gamma) if state.standard_ewma else state.gamma * (1 - state.gamma)
    c2 = state.gamma * state.c2 + var_w * (g - state.mu) ** 2
    mu = state.gamma * state.mu + (1 - state.gamma) * g
    out = t - alpha * g / (np.sqrt(c2) + state.epsilon)
    state.c2 = c2
    state.mu = mu
    return out, state


def average_params(models):
    """Parameter-wise arithmetic mean of structurally identical models."""
    if not models:
        raise InvalidValue("no models to average")
    ref = models[0]
    out = ref.clone()
    for name in ref.params:
        stack = []
        for m in models:
            if m.arch_id != ref.arch_id or set(m.params) != set(ref.params):
                raise ArchMismatch("models differ in architecture")
            if m.params[name].shape != ref.params[name].shape:
                raise ArchMismatch(f"shape mismatch for {name!r}")
            stack.append(m.params[name])
        out.params[name] = np.mean(stack, axis=0)
    return out


@dataclass
class Hyper:
    """Regime hyperparameters; alpha_start/alpha_end drive 1LR's schedule,
    alpha is the fixed rate of the adaptive regimes."""

    alpha: float = 0.001
    alpha_start: float = 0.01
    alpha_end: float = 0.005
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    epsilon: float = DEFAULT_EPSILON
    iterations: int = 100
    batch_size: int = 32
    standard_ewma: bool = False


def _sgd_rule(theta, grad, state, alpha):
    return sgd_step(theta, grad, alpha), state


def train_epoch(model, batches, regime: str, hyper: Hyper, num_steps=None):
    """Train for `num_steps` minibatch steps (default hyper.iterations)
    under one regime; returns (model, loss trace rows).

    Each minibatch is checked and prepared once (`nets.prepare_batch`)
    and every step runs the graph-free `nets.loss_and_grads` on working
    copies of the parameters, which replace the model's at the end.
    Raises InvalidValue as soon as a minibatch loss is not finite; numpy's
    overflow and invalid-value warnings are silenced so that this check
    is the one report of a diverging run.
    """
    rule = {"1LR": _sgd_rule, "2LR": rmsprop_step, "3LR": covprecond_step}.get(regime)
    if rule is None:
        raise InvalidValue(f"unknown regime {regime!r}")
    if not batches:
        raise InvalidValue("no batches")
    steps = hyper.iterations if num_steps is None else num_steps
    if not _is_count(steps):
        raise InvalidValue(f"{'iterations' if num_steps is None else 'num_steps'} "
                           f"must be an integer >= 1, got {steps!r}")
    sched = None
    if regime == "1LR":
        sched = Schedule(hyper.alpha_start, hyper.alpha_end, steps)
    prepared = [nets.prepare_batch(model, X, labels) for X, labels in batches]
    params = dict(model.params)
    states = {n: PreconditionerState.zeros_like(p, beta=hyper.beta, gamma=hyper.gamma,
                                                epsilon=hyper.epsilon,
                                                standard_ewma=hyper.standard_ewma)
              for n, p in params.items()}
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            value, grads = nets.loss_and_grads(model, params, prepared[t % len(prepared)])
            if not np.isfinite(value):
                raise InvalidValue(f"{regime} diverged at step {t}: loss {value}")
            alpha = hyper.alpha if sched is None else schedule_alpha(sched, t)
            for name, g in grads.items():
                params[name], states[name] = rule(params[name], g, states[name], alpha)
            trace.append((t, 0, alpha, value))
    model.params.update(params)
    return model, trace


def make_batches(X, labels, batch_size, seed=0):
    """Shuffle once and split into minibatches (last one may be short)."""
    if not _is_count(batch_size):
        raise InvalidValue(f"batch_size must be an integer >= 1, got {batch_size!r}")
    X = np.asarray(X)
    if len(X) != len(labels):
        raise SizeMismatch(f"{len(X)} samples vs {len(labels)} labels")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labels))
    X = X[order]
    labels = np.asarray(labels)[order]
    return [(X[i:i + batch_size], labels[i:i + batch_size])
            for i in range(0, len(labels), batch_size)]


def train(init, X, labels, regime: str, hyper: Hyper, partitions, seed=0,
          loss_trace=None):
    """Train a model from `init` under one regime and return it.

    Samples are dealt round-robin (sample i to partition i % partitions);
    partition j is shuffled into minibatches with seed `seed + j` and
    trained for hyper.iterations steps. 1LR and 2LR chain one model
    through the partitions and number trace steps on across them; 3LR
    trains a clone of `init` per partition, restarting the step count,
    and returns the parameter average of the clones. `init` itself is
    left untouched. Trace rows (step, partition, alpha, loss) are
    appended to `loss_trace`. Raises InvalidValue, naming the partition,
    when a loss or a trained parameter is not finite.
    """
    X = np.asarray(X)
    labels = np.asarray(labels)
    if len(X) != len(labels):
        raise SizeMismatch(f"{len(X)} samples vs {len(labels)} labels")
    if not (_is_count(partitions) and partitions <= len(labels)):
        raise InvalidPlan(f"cannot deal {len(labels)} samples into "
                          f"{partitions} partitions")
    averaged = regime == "3LR"
    chained = init.clone()
    models = []
    for j in range(partitions):
        batches = make_batches(X[j::partitions], labels[j::partitions],
                               hyper.batch_size, seed=seed + j)
        model = init.clone() if averaged else chained
        try:
            _, rows = train_epoch(model, batches, regime, hyper)
        except InvalidValue as exc:
            raise InvalidValue(f"partition {j}: {exc}") from exc
        # the loss guard cannot see an update that turns a parameter
        # non-finite at the partition's last step
        for name, p in model.params.items():
            if not np.all(np.isfinite(p)):
                raise InvalidValue(f"partition {j}: {regime} left parameter "
                                   f"{name!r} non-finite")
        offset = 0 if averaged else j * hyper.iterations
        if loss_trace is not None:
            loss_trace.extend((t + offset, j, a, l) for t, _, a, l in rows)
        models.append(model)
    return average_params(models) if averaged else chained
