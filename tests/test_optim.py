"""Unit tests for schedules, update rules, parameter averaging and the
three training regimes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noclab import autodiff as ad
from noclab import nets, optim
from noclab.errors import ArchMismatch, InvalidPlan, InvalidValue, SizeMismatch


# ---------------------------------------------------------------------------
# schedule


def test_schedule_endpoints_exact():
    s = optim.Schedule(0.01, 0.005, 100)
    assert optim.schedule_alpha(s, 0) == 0.01
    assert optim.schedule_alpha(s, 100) == 0.005
    assert np.isclose(optim.schedule_alpha(s, 50), 0.0075)


def test_schedule_validation():
    with pytest.raises(InvalidValue):
        optim.Schedule(0.005, 0.01, 100)  # increasing
    with pytest.raises(InvalidValue):
        optim.Schedule(0.01, 0.005, 0)
    s = optim.Schedule(0.01, 0.005, 10)
    with pytest.raises(InvalidValue):
        optim.schedule_alpha(s, 11)


@pytest.mark.parametrize("args", [
    (np.inf, 0.005, 10),  # was accepted, and schedule_alpha returned NaN
    (0.01, np.nan, 10),
    ("a", 0.005, 10),  # raised a bare TypeError
    (0.01, 0.005, 2.5),  # was accepted
    (0.01, 0.005, True),
    (0.01, 0.005, None),
], ids=["inf_start", "nan_end", "str_start", "fractional_steps", "bool_steps",
        "no_steps"])
def test_schedule_rejects_bad_arguments(args):
    with pytest.raises(InvalidValue):
        optim.Schedule(*args)


@pytest.mark.parametrize("t", [0.5, -1, True, "1", None])
def test_schedule_alpha_rejects_non_integer_step(t):
    # t=0.5 used to return an interpolated rate
    with pytest.raises(InvalidValue):
        optim.schedule_alpha(optim.Schedule(0.01, 0.005, 10), t)


# ---------------------------------------------------------------------------
# update rules against scalar recurrences


def test_sgd_rule_value_and_errors():
    theta = np.array([1.0, 2.0])
    optim.Rule("1LR", optim.Hyper(), theta).step(np.array([0.5, -0.5]), 0.1)
    assert np.allclose(theta, [0.95, 2.05])
    with pytest.raises(InvalidValue):
        optim.Rule("1LR", optim.Hyper(), np.array([1.0])).step(np.array([1.0]), 0.0)
    with pytest.raises(SizeMismatch):
        optim.Rule("1LR", optim.Hyper(), np.array([1.0])).step(np.array([1.0, 2.0]), 0.1)


@pytest.mark.parametrize("regime", optim.REGIMES)
def test_rule_rejects_bad_grad_shape_before_updating(regime):
    theta = np.ones((2, 3))
    rule = optim.Rule(regime, optim.Hyper(), theta)
    for grad in (np.ones(6), np.ones((3, 2)), np.ones((2, 3, 1)), 1.0):
        with pytest.raises(SizeMismatch):
            rule.step(grad, 0.1)
    assert np.array_equal(theta, np.ones((2, 3)))
    assert all(acc is None or not acc.any() for acc in (rule.psi, rule.mu, rule.c2))


@pytest.mark.parametrize("theta", [[1.0, 2.0], np.ones(3, dtype=np.float32),
                                   np.arange(3), 1.0])
def test_rule_rejects_theta_that_is_no_float64_array(theta):
    # the rule updates theta in place: a list or another dtype would not
    # be the caller's parameters
    with pytest.raises(InvalidValue, match="theta must be a float64 array"):
        optim.Rule("2LR", optim.Hyper(), theta)


@pytest.mark.parametrize("regime", optim.REGIMES, ids=["sgd", "rmsprop", "covprecond"])
def test_step_rules_reject_bad_alpha(regime):
    rule = optim.Rule(regime, optim.Hyper(), np.array([1.0]))
    # a bool is no number: alpha=True ran as 1.0
    for alpha in (np.nan, np.inf, 0.0, -0.01, "0.1", True):
        with pytest.raises(InvalidValue, match="alpha must be positive and finite"):
            rule.step(np.array([1.0]), alpha)
    assert rule.theta[0] == 1.0


def test_rmsprop_matches_scalar_recurrence():
    beta, eps, alpha = 0.9, 1e-8, 0.01
    theta = np.array([0.3])
    rule = optim.Rule("2LR", optim.Hyper(beta=beta, epsilon=eps), theta)
    psi, th = 0.0, 0.3
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = float(rng.normal())
        rule.step(np.array([g]), alpha)
        psi = beta * psi + (1 - beta) * g * g
        assert rule.psi[0] == psi
        th = th - alpha * g / (np.sqrt(psi) + eps)
        assert abs(theta[0] - th) < 1e-12


@pytest.mark.parametrize("standard_ewma", [False, True])
def test_covprecond_matches_scalar_recurrence(standard_ewma):
    gamma, eps, alpha = 0.9, 1e-8, 0.01
    theta = np.array([0.3])
    rule = optim.Rule("3LR", optim.Hyper(gamma=gamma, epsilon=eps,
                                         standard_ewma=standard_ewma), theta)
    mu, c2, th = 0.0, 0.0, 0.3
    var_w = (1 - gamma) if standard_ewma else gamma * (1 - gamma)
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = float(rng.normal())
        rule.step(np.array([g]), alpha)
        c2 = gamma * c2 + var_w * (g - mu) ** 2  # uses the previous mean
        mu = gamma * mu + (1 - gamma) * g
        assert (rule.mu[0], rule.c2[0]) == (mu, c2)
        th = th - alpha * g / (np.sqrt(c2) + eps)
        assert abs(theta[0] - th) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.lists(st.floats(-10, 10), min_size=1, max_size=20))
def test_covprecond_accumulator_nonnegative(gamma, grads):
    theta = np.array([0.0])
    rule = optim.Rule("3LR", optim.Hyper(gamma=gamma), theta)
    for g in grads:
        rule.step(np.array([g]), 0.01)
        assert rule.c2[0] >= 0
        assert np.isfinite(theta[0])


@pytest.mark.parametrize("regime", optim.REGIMES)
def test_rule_steps_in_place_without_allocating(regime):
    # one step writes theta and the accumulators and allocates no array:
    # a temporary the size of theta would show in the traced peak
    rng = np.random.default_rng(3)
    theta, grads = rng.normal(size=20000), rng.normal(size=(3, 20000))
    start = theta.copy()
    rule = optim.Rule(regime, optim.Hyper(), theta)
    accs = [a for a in (rule.psi, rule.mu, rule.c2) if a is not None]
    rule.step(grads[0], 0.01)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for g in grads[1:]:
            rule.step(g, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < theta.nbytes // 4
    assert rule.theta is theta and not np.array_equal(theta, start)
    assert all(a.any() for a in accs)


@pytest.mark.parametrize("name,value", [
    ("beta", 1.5), ("beta", 0.0), ("beta", 1.0), ("beta", np.nan),
    ("gamma", -0.1), ("gamma", 1.0), ("gamma", np.inf), ("gamma", np.nan),
    ("epsilon", -1.0), ("epsilon", 0.0), ("epsilon", np.inf), ("epsilon", np.nan),
    ("beta", "0.9"), ("gamma", None), ("epsilon", "1e-8"),
    # a bool is no number: epsilon=True ran as 1.0
    ("epsilon", True),
])
def test_bad_rule_constants_raise(name, value):
    # beta=1.5 used to give NaN parameters with only a RuntimeWarning, a
    # negative epsilon trained, and gamma=nan read as a divergence
    constants = {name: value}
    match = f"{name} must be in"
    for regime in optim.REGIMES:
        with pytest.raises(InvalidValue, match=match):
            optim.Rule(regime, optim.Hyper(**constants), np.ones(3))
    X, y = toy_data()
    batches = optim.make_batches(X, y, 16)
    for regime in optim.REGIMES:
        model = nets.build_noc(arch(), seed=0)
        before = {n: p.copy() for n, p in model.params.items()}
        with pytest.raises(InvalidValue, match=match):
            optim.train_epoch(model, batches, regime,
                              optim.Hyper(iterations=2, **constants))
        assert all(np.array_equal(model.params[n], p) for n, p in before.items())


# ---------------------------------------------------------------------------
# averaging


def arch():
    return nets.NocArch("C0F3", (3, 6, 6), 3, 1 / 128)


def test_average_params_mean():
    models = [nets.build_noc(arch(), seed=s) for s in range(3)]
    avg = optim.average_params(models)
    for k in avg.params:
        ref = np.mean([m.params[k] for m in models], axis=0)
        assert np.allclose(avg.params[k], ref)


def test_average_params_identity_fixed_point():
    m = nets.build_noc(arch(), seed=0)
    avg = optim.average_params([m, m.clone(), m.clone()])
    for k in m.params:
        assert np.allclose(avg.params[k], m.params[k])


def test_average_params_mismatch():
    a = nets.build_noc(arch(), seed=0)
    b = nets.build_noc(nets.NocArch("C1F3", (3, 6, 6), 3, 1 / 128), seed=0)
    with pytest.raises(ArchMismatch):
        optim.average_params([a, b])
    with pytest.raises(InvalidValue):
        optim.average_params([])


# ---------------------------------------------------------------------------
# training loops


def toy_data(n=48, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3, 6, 6))
    y = rng.integers(0, 3, size=n)
    # make classes linearly detectable: bias channel mean by label
    for i in range(n):
        X[i, y[i]] += 1.5
    return X, y


@pytest.mark.parametrize("regime", ["1LR", "2LR", "3LR"])
def test_train_epoch_reduces_loss(regime):
    X, y = toy_data()
    model = nets.build_noc(arch(), seed=0)
    batches = optim.make_batches(X, y, 16, seed=0)
    hyper = optim.Hyper(iterations=60)
    _, trace = optim.train_epoch(model, batches, regime, hyper)
    losses = [l for *_, l in trace]
    assert len(losses) == 60
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_train_epoch_1lr_alpha_column_decays():
    X, y = toy_data()
    model = nets.build_noc(arch(), seed=0)
    batches = optim.make_batches(X, y, 16, seed=0)
    _, trace = optim.train_epoch(model, batches, "1LR",
                                 optim.Hyper(iterations=20))
    alphas = [a for _, _, a, _ in trace]
    assert alphas[0] == 0.01
    assert all(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:]))


def test_train_epoch_rejects_unknown_regime():
    X, y = toy_data()
    model = nets.build_noc(arch(), seed=0)
    batches = optim.make_batches(X, y, 16)
    with pytest.raises(InvalidValue, match="unknown regime"):
        optim.train_epoch(model, batches, "4LR", optim.Hyper())
    with pytest.raises(InvalidValue):
        optim.train_epoch(model, [], "1LR", optim.Hyper())


def test_train_3lr_is_average_of_partition_clones():
    X, y = toy_data()
    hyper = optim.Hyper(iterations=30)
    init = nets.build_noc(arch(), seed=0)
    trace = []
    out = optim.train(init, X, y, "3LR", hyper, 3, seed=5, loss_trace=trace)
    clones = []
    for j in range(3):
        idx = np.flatnonzero(np.arange(len(y)) % 3 == j)
        clone = init.clone()
        optim.train_epoch(clone, optim.make_batches(X[idx], y[idx], hyper.batch_size,
                                                    seed=5 + j), "3LR", hyper)
        clones.append(clone)
    ref = optim.average_params(clones)
    for k in ref.params:
        assert np.array_equal(out.params[k], ref.params[k])
    # one contiguous block per partition, each restarting at step 0
    assert [(t, p) for t, p, _, _ in trace] == [(t, j) for j in range(3)
                                                 for t in range(30)]
    # the init is left as it was
    fresh = nets.build_noc(arch(), seed=0)
    assert all(np.array_equal(init.params[k], fresh.params[k])
               for k in init.params)


@pytest.mark.parametrize("regime", ["1LR", "2LR"])
def test_train_chains_one_model_through_partitions(regime):
    X, y = toy_data()
    hyper = optim.Hyper(iterations=10)
    init = nets.build_noc(arch(), seed=0)
    trace = []
    out = optim.train(init, X, y, regime, hyper, 3, seed=5, loss_trace=trace)
    ref = init.clone()
    for j in range(3):
        idx = np.flatnonzero(np.arange(len(y)) % 3 == j)
        optim.train_epoch(ref, optim.make_batches(X[idx], y[idx], hyper.batch_size,
                                                  seed=5 + j), regime, hyper)
    for k in ref.params:
        assert np.array_equal(out.params[k], ref.params[k])
    # steps number on across partitions
    assert [t for t, _, _, _ in trace] == list(range(30))
    assert [p for _, p, _, _ in trace] == [j for j in range(3) for _ in range(10)]


@pytest.mark.parametrize("regime", optim.REGIMES)
def test_train_leaves_init_unchanged(regime):
    # training runs in place over a flat copy of the parameters
    X, y = toy_data()
    init = nets.build_noc(arch(), seed=0)
    before = {n: p.copy() for n, p in init.params.items()}
    out = optim.train(init, X, y, regime, optim.Hyper(iterations=5), 3)
    for name, p in init.params.items():
        assert np.array_equal(p, before[name]), name
        assert not np.shares_memory(out.params[name], p), name
        assert not np.array_equal(out.params[name], p), name


def test_train_rejects_more_partitions_than_samples():
    X, y = toy_data(n=4)
    init = nets.build_noc(arch(), seed=0)
    with pytest.raises(InvalidPlan):
        optim.train(init, X, y, "3LR", optim.Hyper(iterations=2), 5)
    with pytest.raises(InvalidPlan):
        optim.train(init, X, y, "1LR", optim.Hyper(iterations=2), 0)


def test_train_rejects_labels_of_another_length():
    X, y = toy_data(n=12)
    init = nets.build_noc(arch(), seed=0)
    with pytest.raises(SizeMismatch, match="^12 samples vs 11 labels$"):
        optim.train(init, X, y[:11], "1LR", optim.Hyper(iterations=2), 1)


@pytest.mark.parametrize("regime", optim.REGIMES)
@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", 2.5), ("iterations", 0), ("iterations", -1),
    ("iterations", 2.5), ("iterations", True),
])
def test_train_rejects_bad_counts(regime, field, value):
    # iterations=0 used to return an untrained copy under 2LR and 3LR
    X, y = toy_data()
    hyper = optim.Hyper(**{"iterations": 2, field: value})
    with pytest.raises(InvalidValue, match=f"{field} must be an integer >= 1"):
        optim.train(nets.build_noc(arch(), seed=0), X, y, regime, hyper, 2)


@pytest.mark.parametrize("partitions", [2.5, 2.0, True])
def test_train_rejects_non_integer_partitions(partitions):
    X, y = toy_data()
    with pytest.raises(InvalidPlan):
        optim.train(nets.build_noc(arch(), seed=0), X, y, "1LR",
                    optim.Hyper(iterations=2), partitions)


@pytest.mark.parametrize("num_steps", [0, 2.5])
def test_train_epoch_rejects_bad_num_steps(num_steps):
    X, y = toy_data()
    batches = optim.make_batches(X, y, 16)
    with pytest.raises(InvalidValue, match="num_steps must be an integer >= 1"):
        optim.train_epoch(nets.build_noc(arch(), seed=0), batches, "2LR",
                          optim.Hyper(), num_steps=num_steps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_rejects_divergence():
    X, y = toy_data()
    hyper = optim.Hyper(iterations=30, alpha_start=1e8)
    with pytest.raises(InvalidValue) as err:
        optim.train(nets.build_noc(arch(), seed=0), X, y, "1LR", hyper, 3)
    msg = str(err.value)
    assert "1LR" in msg and "partition 0" in msg and "step" in msg


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("regime", ["2LR", "3LR"])
def test_train_rejects_non_finite_parameters(regime):
    # one step at the largest float rate: the loss it sees is finite, the
    # update it makes overflows
    X, y = toy_data()
    hyper = optim.Hyper(iterations=1, alpha=1e308)
    with pytest.raises(InvalidValue) as err:
        optim.train(nets.build_noc(arch(), seed=0), X, y, regime, hyper, 2)
    msg = str(err.value)
    assert "partition 0" in msg and "parameter" in msg and "non-finite" in msg


# ---------------------------------------------------------------------------
# the layer chain against the autodiff graph


def apply_layer(layer, x, params):
    """One layer descriptor as autodiff Tensor ops: the reference
    interpreter of a model's layer chain."""
    kind = layer[0]
    if kind == "conv":
        _, wn, bn, stride, pad = layer
        return ad.conv2d(x, params[wn], params[bn], stride, pad)
    if kind == "maxpool":
        return ad.maxpool2d(x, layer[1], layer[2])
    if kind == "fc":
        _, wn, bn = layer
        return ad.add(ad.matmul(x, params[wn]), params[bn])
    if kind == "relu":
        return ad.relu(x)
    assert kind == "flatten", kind
    b = x.shape[0]
    return ad.reshape(x, (b, x.size // b))


def graph_activations(model, x, params):
    """Every layer's output Tensor for the batch Tensor x, with
    `params` (name -> Tensor)."""
    acts = []
    for layer in model.layers:
        x = apply_layer(layer, x, params)
        acts.append(x)
    return acts


def graph_loss(model, X, labels):
    """Softmax cross-entropy of one minibatch as an autodiff graph: the
    model's parameters enter as leaf Tensors (name -> leaf, also
    returned) and the batch runs through `apply_layer`."""
    leaves = {n: ad.Tensor(p, requires_grad=True) for n, p in model.params.items()}
    logits = graph_activations(model, ad.Tensor(X), leaves)[-1]
    return ad.softmax_cross_entropy(logits, labels), leaves


def reference_train_epoch(model, batches, regime, hyper, num_steps):
    """The graph-path training loop: every step builds an autodiff graph
    over leaf Tensors of the parameters and runs `ad.backward` on its
    loss, and each parameter array has its own `optim.Rule`."""
    sched = optim.Schedule(hyper.alpha_start, hyper.alpha_end, num_steps)
    rules = {n: optim.Rule(regime, hyper, p) for n, p in model.params.items()}
    trace = []
    for t in range(num_steps):
        X, labels = batches[t % len(batches)]
        loss, leaves = graph_loss(model, X, labels)
        ad.backward(loss)
        alpha = optim.schedule_alpha(sched, t) if regime == "1LR" else hyper.alpha
        for name, p in leaves.items():
            rules[name].step(p.grad, alpha)
        trace.append((t, 0, alpha, loss.item()))
    return trace


def chain_case(arch_id, n=44):
    """A head with two conv maps and a 128-wide fc stack on 4x6x6 inputs,
    and 44 samples in minibatches of 16, 16 and 12."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n, 4, 6, 6))
    y = rng.integers(0, 5, size=n)
    model = nets.build_noc(nets.NocArch(arch_id, (4, 6, 6), 5, 1 / 32), seed=2)
    return model, optim.make_batches(X, y, 16, seed=1)


CHAIN_CASES = [(a, r) for a in nets.ARCH_IDS for r in optim.REGIMES]


@pytest.mark.parametrize("arch_id,regime", CHAIN_CASES)
def test_chain_gradients_equal_graph(arch_id, regime):
    # gradients at the parameters a few steps of `regime` reach
    model, batches = chain_case(arch_id)
    optim.train_epoch(model, batches, regime, optim.Hyper(iterations=4))
    for X, labels in batches:
        loss, grads = nets.loss_and_grads(model, model.params,
                                          nets.prepare_batch(model, X, labels))
        ref, leaves = graph_loss(model, X, labels)
        leaf = ad.backward(ref)
        assert loss == ref.item()
        assert set(grads) == set(model.params)
        for name, p in leaves.items():
            assert np.array_equal(grads[name], leaf[p]), name


@pytest.mark.parametrize("arch_id,regime", CHAIN_CASES)
def test_train_epoch_equals_graph_reference(arch_id, regime):
    model, batches = chain_case(arch_id)
    ref = model.clone()
    hyper = optim.Hyper(alpha=0.01)
    steps = 3 * len(batches)  # every prepared minibatch is reused twice
    _, trace = optim.train_epoch(model, batches, regime, hyper, num_steps=steps)
    ref_trace = reference_train_epoch(ref, batches, regime, hyper, steps)
    assert trace == ref_trace
    for name in ref.params:
        assert np.array_equal(model.params[name], ref.params[name]), name


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
@pytest.mark.parametrize("regime", ["2LR", "3LR"])
@pytest.mark.parametrize("hyper", [
    optim.Hyper(alpha=0.01, standard_ewma=True),
    optim.Hyper(alpha=0.02, beta=0.75, gamma=0.6, epsilon=1e-3),
    optim.Hyper(alpha=0.005, beta=0.99, gamma=0.3, epsilon=1e-12, standard_ewma=True),
], ids=["standard_ewma", "constants", "both"])
def test_train_epoch_equals_graph_reference_at_other_constants(arch_id, regime, hyper):
    # the flat kernels read every constant of the regime they run
    model, batches = chain_case(arch_id)
    ref = model.clone()
    steps = 2 * len(batches)
    _, trace = optim.train_epoch(model, batches, regime, hyper, num_steps=steps)
    assert trace == reference_train_epoch(ref, batches, regime, hyper, steps)
    for name in ref.params:
        assert np.array_equal(model.params[name], ref.params[name]), name


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
def test_forward_equals_graph(arch_id):
    # inference and the input gradient run the training chain
    model, batches = chain_case(arch_id)
    optim.train_epoch(model, batches, "3LR", optim.Hyper(iterations=4))
    X, labels = batches[0]
    ref_x = ad.Tensor(X, requires_grad=True)
    acts = graph_activations(model, ref_x,
                             {n: ad.Tensor(p) for n, p in model.params.items()})
    ref = ad.softmax_cross_entropy(acts[-1], labels)
    ad.backward(ref)
    x = ad.Tensor(X, requires_grad=True)
    loss = ad.softmax_cross_entropy(nets.forward(model, x), labels)
    ad.backward(loss)
    assert loss.item() == ref.item()
    assert np.array_equal(x.grad, ref_x.grad)
    assert np.array_equal(nets.infer(model, X), acts[-1].data)
    assert np.array_equal(nets.infer(model, X, stop=-1), acts[-2].data)


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
def test_train_epoch_checks_batches_before_training(arch_id):
    model, batches = chain_case(arch_id)
    before = {n: p.copy() for n, p in model.params.items()}
    X, y = batches[-1]
    with pytest.raises(SizeMismatch):
        optim.train_epoch(model, batches[:-1] + [(X[:, :, :5], y)], "2LR",
                          optim.Hyper(iterations=3))
    with pytest.raises(SizeMismatch):
        optim.train_epoch(model, batches[:-1] + [(X, y[:-1])], "2LR",
                          optim.Hyper(iterations=3))
    bad = y.copy()
    bad[0] = 5
    with pytest.raises(InvalidValue, match="label out of range"):
        optim.train_epoch(model, batches[:-1] + [(X, bad)], "2LR",
                          optim.Hyper(iterations=3))
    # rejected before the first step: the model is untouched
    assert all(np.array_equal(model.params[n], v) for n, v in before.items())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("arch_id,regime,hyper", [
    ("C0F3", "1LR", optim.Hyper(iterations=30, alpha_start=1e8)),
    ("C1F3", "3LR", optim.Hyper(iterations=30, alpha=1e100)),
    ("M1", "2LR", optim.Hyper(iterations=30, alpha=1e100)),
])
def test_train_epoch_rejects_divergence(arch_id, regime, hyper):
    model, batches = chain_case(arch_id)
    with pytest.raises(InvalidValue, match=f"{regime} diverged at step"):
        optim.train_epoch(model, batches, regime, hyper)


# ---------------------------------------------------------------------------
# parameter representation


def assert_plain_params(model):
    for name, p in model.params.items():
        assert type(p) is np.ndarray and p.dtype == np.float64, name


@pytest.mark.parametrize("arch_id", nets.ARCH_IDS)
def test_parameters_are_plain_float64_arrays(tmp_path, arch_id):
    X, y = toy_data(n=24)
    head_arch = nets.NocArch(arch_id, (3, 6, 6), 3, 1 / 128)
    init = nets.build_noc(head_arch, seed=0)
    assert_plain_params(init)
    assert_plain_params(nets.build_backbone((3, 16, 16), 8, seed=0))
    heads = [optim.train(init, X, y, regime, optim.Hyper(iterations=3), 2)
             for regime in optim.REGIMES]
    for head in heads:
        assert_plain_params(head)
    assert_plain_params(optim.average_params(heads))
    path = tmp_path / "m.noc"
    nets.save_model(heads[-1], path)
    assert_plain_params(nets.load_params(path, nets.build_noc(head_arch, seed=1)))
    # inference on a trained head gives plain arrays, and the graph entry
    # builds no graph for a constant batch
    for out in (nets.infer(heads[-1], X), nets.infer(heads[-1], X, stop=-1)):
        assert type(out) is np.ndarray and out.dtype == np.float64
    out = nets.forward(heads[-1], ad.Tensor(X))
    assert out._backward_fn is None and not out.requires_grad


def test_make_batches_covers_all_samples():
    X = np.arange(10)[:, None]
    y = np.arange(10)
    batches = optim.make_batches(X, y, 3, seed=1)
    got = sorted(int(v) for _, ys in batches for v in ys)
    assert got == list(range(10))
    assert [len(b[1]) for b in batches] == [3, 3, 3, 1]


@pytest.mark.parametrize("X,labels,batch_size,error", [
    (np.zeros((20, 2)), np.arange(5), 3, SizeMismatch),  # used to keep 5 rows
    (np.zeros((5, 2)), np.arange(20), 3, SizeMismatch),
    (np.zeros((10, 2)), np.arange(10), 0, InvalidValue),
    (np.zeros((10, 2)), np.arange(10), 2.5, InvalidValue),
])
def test_make_batches_rejects_bad_input(X, labels, batch_size, error):
    with pytest.raises(error):
        optim.make_batches(X, labels, batch_size)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_make_batches_rejects_bad_seed(seed):
    # -1 and 1.5 raised a bare ValueError and TypeError from numpy
    with pytest.raises(InvalidValue, match="seed must be an integer >= 0"):
        optim.make_batches(np.zeros((10, 2)), np.arange(10), 3, seed=seed)
