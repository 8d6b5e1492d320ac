"""Training regimes: linear-decay SGD (1LR), RMSProp (2LR), and
covariance-preconditioned per-partition training with a final parameter
average (3LR).

`train` is the one entry point from (features, labels, regime,
partitions) to a trained model: it deals the samples into partitions
and chains (1LR, 2LR) or averages (3LR) the per-partition runs of
`train_epoch`. Parameters and gradients are plain float64 arrays (a
model's `params`, and what `nets.loss_and_grads` returns). Each rule's
formula is one private in-place kernel: `train_epoch` runs it once per
step over one flat vector of all the parameters, and the public step
rules run it on copies, so they return new arrays and never write into
the ones they are given.

All preconditioning is elementwise (diagonal). The covariance
accumulator uses the literal gamma*(1-gamma) variance factor; pass
standard_ewma=True for the conventional (1-gamma) weighting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ArchMismatch, InvalidPlan, InvalidValue, SizeMismatch, is_count

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


def _check_alpha(alpha):
    # NaN fails the comparison too
    if not (isinstance(alpha, numbers.Real) and 0 < alpha < math.inf):
        raise InvalidValue(f"alpha must be positive and finite, got {alpha!r}")


def _check_constants(**constants):
    """beta and gamma in the open unit interval, epsilon positive and
    finite; NaN fails every comparison."""
    for name, value in constants.items():
        top = math.inf if name == "epsilon" else 1
        if not (isinstance(value, numbers.Real) and 0 < value < top):
            raise InvalidValue(f"{name} must be in (0, {top}), got {value!r}")


# The in-place kernels: each rule's formula, written once. They update
# theta and the accumulators in place from grad, through the scratch
# arrays s1 and s2 (all of one shape). The expressions and their order
# are those of the formulas in the public rules' docstrings, and every
# operation is elementwise, so one flat run gives the same bits as the
# public rules applied array by array.


def _sgd_kernel(theta, grad, alpha, s1):
    # theta <- theta - alpha*g
    np.multiply(alpha, grad, out=s1)
    theta -= s1


def _precond_kernel(theta, grad, acc, alpha, epsilon, s1, s2):
    # theta <- theta - alpha*g / (sqrt(acc) + eps)
    np.sqrt(acc, out=s2)
    s2 += epsilon
    np.multiply(alpha, grad, out=s1)
    s1 /= s2
    theta -= s1


def _rmsprop_kernel(theta, grad, psi, alpha, beta, epsilon, s1, s2):
    # psi <- beta*psi + (1-beta)*g*g
    np.multiply(1 - beta, grad, out=s1)
    s1 *= grad
    psi *= beta
    psi += s1
    _precond_kernel(theta, grad, psi, alpha, epsilon, s1, s2)


def _covprecond_kernel(theta, grad, mu, c2, alpha, gamma, epsilon,
                       standard_ewma, s1, s2):
    # c2 <- gamma*c2 + var_w*(g - mu)^2 with the previous mu
    # mu <- gamma*mu + (1-gamma)*g
    var_w = (1 - gamma) if standard_ewma else gamma * (1 - gamma)
    np.subtract(grad, mu, out=s1)
    np.square(s1, out=s1)
    s1 *= var_w
    c2 *= gamma
    c2 += s1
    np.multiply(1 - gamma, grad, out=s1)
    mu *= gamma
    mu += s1
    _precond_kernel(theta, grad, c2, alpha, epsilon, s1, s2)


def _fresh(array):
    """A float64 copy to update in place, leaving the caller's array as it was."""
    return np.array(array, dtype=np.float64)


def sgd_step(theta, grad, alpha):
    """theta - alpha * grad."""
    t, g = _check_shapes(theta, grad)
    _check_alpha(alpha)
    out = _fresh(t)
    _sgd_kernel(out, g, alpha, np.empty_like(out))
    return out


def rmsprop_step(theta, grad, state: PreconditionerState, alpha):
    """psi <- beta*psi + (1-beta)*g^2; theta <- theta - alpha*g/(sqrt(psi)+eps)."""
    t, g = _check_shapes(theta, grad, state.psi)
    _check_alpha(alpha)
    _check_constants(beta=state.beta, epsilon=state.epsilon)
    out, psi = _fresh(t), _fresh(state.psi)
    _rmsprop_kernel(out, g, psi, alpha, state.beta, state.epsilon,
                    np.empty_like(out), np.empty_like(out))
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
    _check_constants(gamma=state.gamma, epsilon=state.epsilon)
    out, mu, c2 = _fresh(t), _fresh(state.mu), _fresh(state.c2)
    _covprecond_kernel(out, g, mu, c2, alpha, state.gamma, state.epsilon,
                       state.standard_ewma, np.empty_like(out), np.empty_like(out))
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


def _flatten(params):
    """A float64 copy of `params` (name -> array) as one flat vector, and
    name -> views into it, shaped like the arrays they copy."""
    theta = np.concatenate(list(params.values()), axis=None, dtype=np.float64)
    views, start = {}, 0
    for name, p in params.items():
        end = start + np.size(p)
        views[name] = theta[start:end].reshape(np.shape(p))
        start = end
    return theta, views


def _flat_step(regime, hyper: Hyper, theta, names):
    """One training step's update, `step(grads, alpha)`: it gathers
    `grads` (name -> array, for each of `names` in the order `theta`
    holds them) into one flat gradient vector and runs the regime's rule
    over the flat parameter vector `theta` in place. The gradient vector,
    the flat optimizer state and two scratch vectors are allocated here
    once."""
    grad, s1, s2 = (np.empty_like(theta) for _ in range(3))
    if regime == "1LR":
        def rule(alpha):
            _sgd_kernel(theta, grad, alpha, s1)
    elif regime == "2LR":
        psi = np.zeros_like(theta)

        def rule(alpha):
            _rmsprop_kernel(theta, grad, psi, alpha, hyper.beta, hyper.epsilon, s1, s2)
    else:
        mu, c2 = np.zeros_like(theta), np.zeros_like(theta)

        def rule(alpha):
            _covprecond_kernel(theta, grad, mu, c2, alpha, hyper.gamma, hyper.epsilon,
                               hyper.standard_ewma, s1, s2)

    def step(grads, alpha):
        np.concatenate([grads[n] for n in names], axis=None, out=grad)
        rule(alpha)
    return step


def train_epoch(model, batches, regime: str, hyper: Hyper, num_steps=None):
    """Train for `num_steps` minibatch steps (default hyper.iterations)
    under one regime; returns (model, loss trace rows).

    Each minibatch is checked and prepared once (`nets.prepare_batch`).
    The parameters are copied once into one flat float64 vector, and
    `nets.loss_and_grads` reads them through name -> views into it; each
    step gathers the gradients into one flat vector and runs the
    regime's rule once, in place, over all of them. At the end the
    model's params are replaced by those views. Raises InvalidValue as
    soon as a minibatch loss is not finite; numpy's overflow and
    invalid-value warnings are silenced so that this check is the one
    report of a diverging run.
    """
    if regime not in REGIMES:
        raise InvalidValue(f"unknown regime {regime!r}")
    if not batches:
        raise InvalidValue("no batches")
    steps = hyper.iterations if num_steps is None else num_steps
    if not is_count(steps):
        raise InvalidValue(f"{'iterations' if num_steps is None else 'num_steps'} "
                           f"must be an integer >= 1, got {steps!r}")
    _check_constants(beta=hyper.beta, gamma=hyper.gamma, epsilon=hyper.epsilon)
    sched = None
    if regime == "1LR":
        sched = Schedule(hyper.alpha_start, hyper.alpha_end, steps)
    prepared = [nets.prepare_batch(model, X, labels) for X, labels in batches]
    theta, params = _flatten(model.params)
    update = _flat_step(regime, hyper, theta, list(params))
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            value, grads = nets.loss_and_grads(model, params, prepared[t % len(prepared)])
            if not np.isfinite(value):
                raise InvalidValue(f"{regime} diverged at step {t}: loss {value}")
            alpha = hyper.alpha if sched is None else schedule_alpha(sched, t)
            _check_alpha(alpha)
            update(grads, alpha)
            trace.append((t, 0, alpha, value))
    model.params.update(params)
    return model, trace


def make_batches(X, labels, batch_size, seed=0):
    """Shuffle once and split into minibatches (last one may be short)."""
    if not is_count(batch_size):
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
    if not (is_count(partitions) and partitions <= len(labels)):
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
