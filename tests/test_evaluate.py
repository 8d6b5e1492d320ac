"""Unit tests for SVM, metrics, PCA and exact t-SNE."""

import numpy as np
import pytest

from noclab import evaluate as ev
from noclab.errors import InvalidValue, SizeMismatch

RNG = np.random.default_rng(3)


def blobs(n_per=20, centers=((0, 0), (6, 6), (0, 6)), spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for ci, c in enumerate(centers):
        X.append(rng.normal(c, spread, size=(n_per, 2)))
        y.extend([ci] * n_per)
    return np.concatenate(X), np.array(y)


# ---------------------------------------------------------------------------
# SVM


def test_svm_separable_blobs_perfect():
    X, y = blobs()
    model = ev.svm_train(X, y, epochs=20, seed=0)
    assert (ev.svm_predict(model, X) == y).all()


def test_svm_objective_tracking_decreases():
    X, y = blobs()
    _, obj = ev.svm_train(X, y, epochs=8, seed=0, track_objective=True)
    assert len(obj) == 8
    assert obj[-1] < obj[0]


def test_svm_validation():
    X, y = blobs()
    with pytest.raises(InvalidValue):
        ev.svm_train(X, np.zeros(len(y)))  # single class
    # a bool is no number: c_reg=True ran as 1.0
    for c_reg in (0.0, -1.0, np.nan, np.inf, "1", None, True):
        with pytest.raises(InvalidValue, match="c_reg"):
            ev.svm_train(X, y, c_reg=c_reg)
    for seed in (-1, 1.5, "0", None, False):
        with pytest.raises(InvalidValue, match="seed"):
            ev.svm_train(X, y, seed=seed)
    for epochs in (0, -1, 2.5, True):
        with pytest.raises(InvalidValue, match="epochs"):
            ev.svm_train(X, y, epochs=epochs)
    model = ev.svm_train(X, y, epochs=2)
    for features in (np.zeros((3, 5)), np.zeros(2), np.zeros((1, 3, 2))):
        with pytest.raises(SizeMismatch):
            ev.svm_predict(model, features)


@pytest.mark.parametrize("features,labels,error", [
    (np.zeros((60, 2)), np.arange(61) % 3, SizeMismatch),  # labels longer
    (np.zeros((60, 2)), np.arange(59) % 3, SizeMismatch),  # labels shorter
    (np.zeros((60, 2)), (np.arange(60) % 3)[:, None], SizeMismatch),
    (np.zeros(60), np.arange(60) % 3, SizeMismatch),  # 1-D features
    (np.zeros((1, 2, 60, 2)), np.arange(60) % 3, SizeMismatch),  # 4-D features
    (np.zeros((2, 60, 2)), np.arange(61) % 3, SizeMismatch),  # stack, labels longer
    (np.full((60, 2), np.nan), np.arange(60) % 3, InvalidValue),
    (np.full((60, 2), np.inf), np.arange(60) % 3, InvalidValue),
    (np.stack([np.zeros((60, 2)), np.full((60, 2), np.nan)]), np.arange(60) % 3,
     InvalidValue),
    (np.zeros((0, 60, 2)), np.arange(60) % 3, SizeMismatch),  # no fits
    (np.zeros((60, 0)), np.arange(60) % 3, SizeMismatch),  # zero-width features
    (np.zeros((2, 60, 0)), np.arange(60) % 3, SizeMismatch),
])
def test_svm_train_rejects_bad_input(features, labels, error):
    with pytest.raises(error):
        ev.svm_train(features, labels, epochs=1)


def test_svm_predict_tie_goes_to_lowest_class():
    model = ev.SvmModel(weights=np.zeros((3, 2)), biases=np.zeros(3),
                        classes=np.array([4, 7, 9]))
    assert ev.svm_predict(model, np.ones((2, 2))).tolist() == [4, 4]


def test_svm_labels_preserved():
    X, y = blobs()
    model = ev.svm_train(X, y + 10, epochs=10, seed=0)
    pred = ev.svm_predict(model, X)
    assert set(pred) <= {10, 11, 12}


def reference_svm_train(features, labels, c_reg=1.0, epochs=20, seed=0):
    """One class at a time, one sample at a time: the per-class loop the
    lock-step library version must reproduce bit for bit. Returns the
    model and the per-epoch objective trace."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    classes = np.unique(y)
    n, dim = X.shape
    rng = np.random.default_rng(seed)
    W = np.zeros((len(classes), dim))
    B = np.zeros(len(classes))
    epoch_obj = np.zeros(epochs)
    for ci, cls in enumerate(classes):
        ys = np.where(y == cls, 1.0, -1.0)
        w = np.zeros(dim)
        b = 0.0
        t = 0
        for ep in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (c_reg * t)
                margin = ys[i] * (X[i] @ w + b)
                gw = w.copy()
                gb = 0.0
                if margin < 1:
                    gw -= c_reg * ys[i] * X[i]
                    gb -= c_reg * ys[i]
                w -= eta * gw
                b -= eta * gb
            epoch_obj[ep] += ev.svm_objective(w, b, X, ys, c_reg)
        W[ci] = w
        B[ci] = b
    return ev.SvmModel(weights=W, biases=B, classes=classes), list(epoch_obj)


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("n,label_set,dim,epochs,c_reg", [
    (40, (0, 1), 2, 3, 1.0),
    (160, tuple(range(16)), 8, 3, 1.0),
    (60, (3, 7, 9), 5, 1, 0.5),
    (30, (3, 7, 9), 1, 3, 2.0),
])
def test_svm_matches_per_class_reference(seed, n, label_set, dim, epochs, c_reg):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    y = np.asarray(label_set)[rng.integers(0, len(label_set), n)]
    y[:len(label_set)] = label_set  # every class present
    ref, ref_obj = reference_svm_train(X, y, c_reg=c_reg, epochs=epochs, seed=seed)
    model, obj = ev.svm_train(X, y, c_reg=c_reg, epochs=epochs, seed=seed,
                              track_objective=True)
    assert np.array_equal(model.weights, ref.weights)
    assert np.array_equal(model.biases, ref.biases)
    assert np.array_equal(model.classes, ref.classes)
    assert obj == ref_obj
    plain = ev.svm_train(X, y, c_reg=c_reg, epochs=epochs, seed=seed)
    assert np.array_equal(plain.weights, ref.weights)


@pytest.mark.parametrize("fits", [1, 2, 3])
@pytest.mark.parametrize("track_objective", [False, True])
def test_svm_stack_equals_separate_fits(fits, track_objective):
    rng = np.random.default_rng(fits)
    n, k = 90, 5
    X = rng.normal(size=(fits, n, 6))
    y = np.arange(n) % k + 2
    stacked = ev.svm_train(X, y, c_reg=0.7, epochs=3, seed=4,
                           track_objective=track_objective)
    assert len(stacked) == fits
    for f in range(fits):
        solo = ev.svm_train(X[f], y, c_reg=0.7, epochs=3, seed=4,
                            track_objective=track_objective)
        if track_objective:
            (model, obj), (solo, solo_obj) = stacked[f], solo
            assert len(obj) == 3 and obj == solo_obj
        else:
            model = stacked[f]
        assert np.array_equal(model.weights, solo.weights)
        assert np.array_equal(model.biases, solo.biases)
        assert np.array_equal(model.classes, solo.classes)


# ---------------------------------------------------------------------------
# metrics


def test_compute_metrics_counts():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([0, 1, 1, 1, 2, 0])
    m = ev.compute_metrics(pred, truth, background_class=0, num_classes=3)
    assert np.isclose(m.accuracy, 100 * 4 / 6)
    assert m.confusion.sum() == 6
    assert m.confusion[0, 1] == 1
    # one background sample misread + one non-background read as background
    assert m.false_alarms == 2
    # class 1 is predicted twice right and once for a class 0 sample
    assert m.confusion[:, 1].tolist() == [1, 2, 0]


def test_compute_metrics_validation():
    with pytest.raises(SizeMismatch):
        ev.compute_metrics(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
    # a negative label would index the last column; a float one cannot index
    for pred, truth in (([0, -1], [0, 1]), ([0, 2], [0, 1]), ([0, 1], [-1, 1]),
                        ([0, 1], [0, 2]), ([0.0, 1.0], [0, 1]), ([], [])):
        with pytest.raises(InvalidValue, match="labels must be integers in"):
            ev.compute_metrics(np.array(pred), np.array(truth), num_classes=2)
    with pytest.raises(InvalidValue):
        ev.compute_metrics(np.array([0, -1]), np.array([0, 0]))
    empty = np.array([], dtype=int)
    assert ev.compute_metrics(empty, empty, num_classes=2).confusion.sum() == 0


def test_l2_normalize_rows():
    X = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = ev.l2_normalize_rows(X)
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.allclose(out[1], 0.0)  # zero row survives


NO_ROWS = [np.arange(30.0), np.zeros((10, 3, 2)), 1.0]


@pytest.mark.parametrize("X", NO_ROWS)
def test_l2_normalize_rows_rejects_input_that_is_no_rows(X):
    with pytest.raises(SizeMismatch, match="need rows"):
        ev.l2_normalize_rows(X)


# ---------------------------------------------------------------------------
# PCA


def test_pca_recovers_line():
    t = RNG.normal(size=200)
    d = np.array([3.0, 4.0]) / 5.0
    X = np.outer(t, d) + np.array([1.0, -2.0])
    coords, comps, mean = ev.pca_project(X, 1)
    assert np.allclose(np.abs(comps[0] @ d), 1.0, atol=1e-6)
    recon = coords @ comps + mean
    assert np.max(np.abs(recon - X)) < 1e-9


def test_pca_components_orthonormal():
    X = RNG.normal(size=(50, 6))
    _, comps, _ = ev.pca_project(X, 3)
    assert np.allclose(comps @ comps.T, np.eye(3), atol=1e-6)


def test_pca_validation():
    with pytest.raises(InvalidValue):
        ev.pca_project(RNG.normal(size=(5, 3)), 4)
    with pytest.raises(InvalidValue):
        ev.pca_project(RNG.normal(size=(2, 3)), 2)
    # one NaN or inf would make every projected point NaN
    for bad in (np.nan, np.inf):
        X = RNG.normal(size=(20, 3))
        X[4, 1] = bad
        with pytest.raises(InvalidValue, match="finite"):
            ev.pca_project(X, 2)
    with pytest.raises(InvalidValue, match="need 1 <= d"):
        ev.pca_project(RNG.normal(size=(20, 3)), 1.5)


@pytest.mark.parametrize("arg,value", [
    ("iters", 2.5), ("iters", 0), ("iters", True), ("seed", -1), ("seed", 1.5),
    ("seed", "0"),
])
def test_pca_rejects_bad_counts(arg, value):
    # iters=2.5 and seed=-1 raised a bare TypeError and ValueError
    with pytest.raises(InvalidValue, match=f"{arg} must be an integer"):
        ev.pca_project(RNG.normal(size=(20, 3)), 2, **{arg: value})


@pytest.mark.parametrize("X", NO_ROWS)
def test_pca_rejects_input_that_is_no_rows(X):
    with pytest.raises(SizeMismatch, match="must be rows"):
        ev.pca_project(X, 1)


# ---------------------------------------------------------------------------
# t-SNE


def test_tsne_separates_clusters_and_kl_nonincreasing():
    X, y = blobs(n_per=20, spread=0.2, seed=1)
    Y, kl = ev.tsne_embed(X, perplexity=8.0, iters=300, seed=0)
    assert Y.shape == (60, 2)
    post = kl[100:]  # after early exaggeration
    assert all(b <= a + 1e-12 for a, b in zip(post, post[1:]))
    # clusters separated: mean intra distance well below inter distance
    intra = np.mean([np.linalg.norm(Y[y == c] - Y[y == c].mean(axis=0), axis=1).mean()
                     for c in range(3)])
    centers = np.stack([Y[y == c].mean(axis=0) for c in range(3)])
    inter = np.mean([np.linalg.norm(centers[i] - centers[j])
                     for i in range(3) for j in range(i + 1, 3)])
    assert inter > 2 * intra


def test_tsne_distances_take_bounded_memory():
    """The squared distances are filled a block of rows at a time: one
    block of all 40 rows of 4096-dim features would make a 52 MB
    (40, 40, 4096) temporary."""
    import tracemalloc

    X = RNG.normal(size=(40, 4096))
    tracemalloc.start()
    try:
        ev.tsne_embed(X, perplexity=5.0, iters=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def test_tsne_validation():
    X = RNG.normal(size=(30, 3))
    with pytest.raises(InvalidValue):
        ev.tsne_embed(X, perplexity=4.0)
    with pytest.raises(InvalidValue):
        ev.tsne_embed(X, perplexity=20.0)  # > (n-1)/3
    with pytest.raises(InvalidValue):
        ev.tsne_embed(RNG.normal(size=(2001, 2)), perplexity=30.0)
    for bad in (np.nan, np.inf):
        X = RNG.normal(size=(30, 3))
        X[4, 1] = bad
        with pytest.raises(InvalidValue, match="finite"):
            ev.tsne_embed(X, perplexity=5.0)


@pytest.mark.parametrize("arg,value,match", [
    # learning_rate=nan returned NaN coordinates; the others raised bare
    # TypeErrors and ValueErrors
    ("learning_rate", np.nan, "learning_rate"), ("learning_rate", np.inf, "learning_rate"),
    ("learning_rate", 0.0, "learning_rate"), ("learning_rate", "1", "learning_rate"),
    ("iters", 2.5, "iters"), ("iters", 0, "iters"), ("perplexity", "a", "perplexity"),
    ("perplexity", np.nan, "perplexity"), ("seed", -1, "seed"), ("seed", 1.5, "seed"),
])
def test_tsne_rejects_bad_arguments(arg, value, match):
    args = {"perplexity": 5.0, "iters": 2, arg: value}
    with pytest.raises(InvalidValue, match=match):
        ev.tsne_embed(RNG.normal(size=(30, 3)), **args)


@pytest.mark.parametrize("X", NO_ROWS)
def test_tsne_rejects_input_that_is_no_rows(X):
    with pytest.raises(SizeMismatch, match="must be rows"):
        ev.tsne_embed(X, perplexity=5.0)
