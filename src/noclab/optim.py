"""Training regimes: linear-decay SGD (1LR), RMSProp (2LR), and
covariance-preconditioned per-partition training with a final parameter
average (3LR).

`train` is the one entry point from (features, labels, regime,
partitions) to a trained model: it deals the samples into partitions
and chains (1LR, 2LR) or averages (3LR) the per-partition runs of
`train_epoch`. Parameters and gradients are plain float64 arrays (a
model's `params`, and what `nets.loss_and_grads` returns). `Rule` is
the one update of each regime: it holds the regime's accumulators and
updates a float64 array in place, and `train_epoch` runs one `Rule`
over one flat vector of all the parameters. `Hyper` holds every
regime default, which `harness.SCHEMA` reads.

All preconditioning is elementwise (diagonal). The covariance
accumulator uses the literal gamma*(1-gamma) variance factor; pass
standard_ewma=True for the conventional (1-gamma) weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ArchMismatch, InvalidPlan, InvalidValue, SizeMismatch, is_count, is_real

REGIMES = ("1LR", "2LR", "3LR")


@dataclass(frozen=True)
class Hyper:
    """Regime hyperparameters, the one home of their defaults: alpha_start
    and alpha_end drive 1LR's schedule, alpha is the adaptive regimes' rate."""

    alpha: float = 0.001
    alpha_start: float = 0.01
    alpha_end: float = 0.005
    beta: float = 0.9
    gamma: float = 0.9
    epsilon: float = 1e-8
    iterations: int = 150
    batch_size: int = 32
    standard_ewma: bool = False


@dataclass(frozen=True)
class Schedule:
    alpha_start: float
    alpha_end: float
    total_steps: int

    def __post_init__(self):
        if not (is_real(self.alpha_start) and is_real(self.alpha_end)
                and self.alpha_start >= self.alpha_end > 0):
            raise InvalidValue(f"need finite alpha_start >= alpha_end > 0, got {self!r}")
        if not is_count(self.total_steps):
            raise InvalidValue(f"total_steps must be an integer >= 1, got {self.total_steps!r}")


def schedule_alpha(s: Schedule, t: int) -> float:
    """Linear interpolation from alpha_start at t=0 to alpha_end at t=total_steps."""
    if not (is_count(t, least=0) and t <= s.total_steps):
        raise InvalidValue(f"step {t!r} is no integer in [0, {s.total_steps}]")
    return s.alpha_start + (s.alpha_end - s.alpha_start) * t / s.total_steps


# The in-place kernels, each formula of `Rule`'s docstring written once
# in its order of operations: they update theta and the accumulators from
# grad through the scratch arrays s1 and s2 (all of one shape). Every
# operation is elementwise: one flat run gives the bits of one per array.


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


class Rule:
    """The update of one regime, which `step(grad, alpha)` makes in place
    on the float64 array `theta`:

    1LR  theta <- theta - alpha*g
    2LR  psi <- beta*psi + (1-beta)*g^2
         theta <- theta - alpha*g/(sqrt(psi)+eps)
    3LR  c2 <- gamma*c2 + gamma*(1-gamma)*(g - mu)^2   (previous mu)
         mu <- gamma*mu + (1-gamma)*g
         theta <- theta - alpha*g/(sqrt(c2)+eps)

    with hyper's beta, gamma and eps; hyper.standard_ewma weighs c2's
    (g - mu)^2 by (1-gamma). The accumulators `psi` (2LR) and `mu`, `c2`
    (3LR) start at zero, the others are None; they and two scratch
    arrays are allocated here, so a step allocates nothing.
    """

    def __init__(self, regime, hyper: Hyper, theta):
        if regime not in REGIMES:
            raise InvalidValue(f"unknown regime {regime!r}")
        for name, top in (("beta", 1), ("gamma", 1), ("epsilon", math.inf)):
            value = getattr(hyper, name)
            if not (is_real(value) and 0 < value < top):
                raise InvalidValue(f"{name} must be in (0, {top}), got {value!r}")
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64):
            raise InvalidValue(f"theta must be a float64 array, got {type(theta).__name__}")
        self.regime, self.hyper, self.theta = regime, hyper, theta
        self.psi = np.zeros_like(theta) if regime == "2LR" else None
        self.mu, self.c2 = ((np.zeros_like(theta), np.zeros_like(theta))
                            if regime == "3LR" else (None, None))
        self._s1, self._s2 = np.empty_like(theta), np.empty_like(theta)

    def step(self, grad, alpha):
        """Update theta in place from `grad` (theta's shape) at rate `alpha`."""
        if not (is_real(alpha) and alpha > 0):
            raise InvalidValue(f"alpha must be positive and finite, got {alpha!r}")
        grad = np.asarray(grad)
        if grad.shape != self.theta.shape:
            raise SizeMismatch(f"theta {self.theta.shape} vs grad {grad.shape}")
        h, s1, s2 = self.hyper, self._s1, self._s2
        if self.regime == "1LR":
            _sgd_kernel(self.theta, grad, alpha, s1)
        elif self.regime == "2LR":
            _rmsprop_kernel(self.theta, grad, self.psi, alpha, h.beta, h.epsilon, s1, s2)
        else:
            _covprecond_kernel(self.theta, grad, self.mu, self.c2, alpha, h.gamma,
                               h.epsilon, h.standard_ewma, s1, s2)


def average_params(models):
    """Parameter-wise arithmetic mean of structurally identical models."""
    if not models:
        raise InvalidValue("no models to average")
    ref = models[0]
    shapes = {n: p.shape for n, p in ref.params.items()}
    for m in models:
        if m.arch_id != ref.arch_id or {n: p.shape for n, p in m.params.items()} != shapes:
            raise ArchMismatch("models differ in architecture or parameter shapes")
    out = ref.clone()
    for name in ref.params:
        out.params[name] = np.mean([m.params[name] for m in models], axis=0)
    return out


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


def train_epoch(model, batches, regime: str, hyper: Hyper, num_steps=None):
    """Train for `num_steps` minibatch steps (default hyper.iterations)
    under one regime; returns (model, loss trace rows).

    Each minibatch is checked and prepared once (`nets.prepare_batch`).
    The parameters are copied once into one flat float64 vector, and
    `nets.loss_and_grads` reads them through name -> views into it; each
    step gathers the gradients into one flat vector and runs the
    regime's `Rule` once, in place, over all of them. At the end the
    model's params are replaced by those views. Raises InvalidValue as
    soon as a minibatch loss is not finite; numpy's overflow and
    invalid-value warnings are silenced so that this check is the one
    report of a diverging run.
    """
    theta, params = _flatten(model.params)
    rule = Rule(regime, hyper, theta)
    if not batches:
        raise InvalidValue("no batches")
    steps = hyper.iterations if num_steps is None else num_steps
    if not is_count(steps):
        raise InvalidValue(f"{'iterations' if num_steps is None else 'num_steps'} "
                           f"must be an integer >= 1, got {steps!r}")
    sched = Schedule(hyper.alpha_start, hyper.alpha_end, steps) if regime == "1LR" else None
    prepared = [nets.prepare_batch(model, X, labels) for X, labels in batches]
    names, grad = list(params), np.empty_like(theta)
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            value, grads = nets.loss_and_grads(model, params, prepared[t % len(prepared)])
            if not np.isfinite(value):
                raise InvalidValue(f"{regime} diverged at step {t}: loss {value}")
            alpha = hyper.alpha if sched is None else schedule_alpha(sched, t)
            np.concatenate([grads[n] for n in names], axis=None, out=grad)
            rule.step(grad, alpha)
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
    if not is_count(seed, least=0):
        raise InvalidValue(f"seed must be an integer >= 0, got {seed!r}")
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
