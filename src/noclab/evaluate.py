"""Feature-space evaluation: one-vs-rest linear SVM, metrics with
false-alarm accounting, PCA, and exact t-SNE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, SizeMismatch, is_count, is_real


@dataclass
class SvmModel:
    weights: np.ndarray  # (classes, dim)
    biases: np.ndarray  # (classes,)
    classes: np.ndarray  # sorted distinct training labels


@dataclass
class Metrics:
    accuracy: float  # percent
    false_alarms: int
    confusion: np.ndarray  # (classes, classes), rows = truth


def l2_normalize_rows(X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise SizeMismatch(f"need rows (n, dim), got shape {X.shape}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    if not np.isfinite(norms).all():
        raise InvalidValue("row norms non-finite: cannot L2-normalize")
    return X / np.maximum(norms, 1e-12)


def svm_objective(w, b, X, y_signed, c_reg):
    margins = 1 - y_signed * (X @ w + b)
    return 0.5 * float(w @ w) + c_reg * float(np.maximum(0, margins).sum())


def svm_train(features, labels, c_reg=1.0, epochs=20, seed=0,
              track_objective=False):
    """One-vs-rest linear SVM by stochastic subgradient descent on
    0.5*||w||^2 + c_reg * sum hinge, learning rate 1/(c_reg * t).

    The classes advance in lock-step: at step t every class takes the
    next sample of its own per-epoch permutation, drawn class by class,
    epoch by epoch, so the RNG stream is that of one class at a time.

    `features` is one (n, dim) feature set or a (fits, n, dim) stack of
    sets that share `labels`. A stack's fits also advance in lock-step,
    on the same permutations, and each comes out equal to the fit of its
    set alone.

    With track_objective=True a fit also returns its per-epoch objective
    (summed over the one-vs-rest subproblems). A stack returns a list
    with one such result per fit.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim not in (2, 3):
        raise SizeMismatch(f"features must be (n, dim) or (fits, n, dim), "
                           f"got shape {X.shape}")
    stack = X if X.ndim == 3 else X[None]
    fits, n, dim = stack.shape
    if fits == 0 or dim == 0:
        raise SizeMismatch(f"need at least one fit and one feature, got shape "
                           f"{X.shape}")
    if y.shape != (n,):
        raise SizeMismatch(f"labels shape {y.shape} vs {n} feature rows")
    if not np.isfinite(stack).all():
        raise InvalidValue("features must be finite")
    classes = np.unique(y)
    if len(classes) < 2:
        raise InvalidValue("need at least two classes")
    if not (is_real(c_reg) and c_reg > 0):
        raise InvalidValue(f"c_reg must be finite and positive, got {c_reg!r}")
    for name, value, least in (("epochs", epochs, 1), ("seed", seed, 0)):
        if not is_count(value, least):
            raise InvalidValue(f"{name} must be an integer >= {least}, got {value!r}")
    k = len(classes)
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(n) for _ in range(k * epochs)]).reshape(
        k, epochs, n)
    Y = np.where(y == classes[:, None], 1.0, -1.0)  # (classes, n)
    Yp = np.take_along_axis(Y[:, None, :], perms, axis=2)  # signed labels, permuted
    # row i of `signed` is x_i and row n + i is -x_i, so gathering row
    # i + n*(y_i < 0) gives y_i*x_i: y = +-1 makes every sign flip exact
    signed = np.empty((fits, 2 * n, dim))
    signed[:, :n] = stack
    np.negative(stack, out=signed[:, n:])
    rows = perms + n * (Yp < 0)
    W = np.zeros((fits, k, dim))
    B = np.zeros((fits, k))
    yx = np.empty((fits, k, dim))  # y*x of each lane's sample, then c_reg*y*x
    g = np.empty((fits, k, dim))  # W minus the subgradient's sample term
    margin = np.empty((fits, k))
    yb = np.empty((fits, k))
    viol = np.empty((fits, k), dtype=bool)
    viol_rows = viol[..., None]  # viol broadcast along each weight row
    eta_cy = np.empty(k)
    epoch_obj = np.zeros((fits, epochs))
    t = 0
    for ep in range(epochs):
        # a tiny c_reg overflows the weights; the check below raises
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, yi in zip(rows[:, ep].T, Yp[:, ep].T):
                t += 1
                eta = 1.0 / (c_reg * t)
                signed.take(idx, axis=1, out=yx, mode="clip")
                # y*(x.w + b) as y*x.w + y*b
                np.einsum("fkd,fkd->fk", yx, W, out=margin)
                np.multiply(yi, B, out=yb)
                margin += yb
                np.less(margin, 1, out=viol)
                # subgradient: (W, 0) minus c_reg*y*(x, 1) where the margin is
                # violated; the other lanes keep W, as W - 0 == W
                yx *= c_reg
                np.copyto(g, W)
                np.subtract(W, yx, out=g, where=viol_rows)
                g *= eta
                W -= g
                np.multiply(eta * c_reg, yi, out=eta_cy)  # == eta*(c_reg*y), y = +-1
                np.add(B, eta_cy, out=B, where=viol)
        if not (np.isfinite(W).all() and np.isfinite(B).all()):
            raise InvalidValue(f"SVM weights non-finite after epoch {ep + 1} "
                               f"(c_reg = {c_reg})")
        if track_objective:
            for f in range(fits):
                for ci in range(k):
                    epoch_obj[f, ep] += svm_objective(W[f, ci], B[f, ci], stack[f],
                                                      Y[ci], c_reg)
    results = [SvmModel(weights=W[f], biases=B[f], classes=classes)
               for f in range(fits)]
    if track_objective:
        results = [(model, list(obj)) for model, obj in zip(results, epoch_obj)]
    return results if X.ndim == 3 else results[0]


def svm_predict(model: SvmModel, features):
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[1]:
        raise SizeMismatch(f"features of shape {X.shape} vs model dim "
                           f"{model.weights.shape[1]}")
    scores = X @ model.weights.T + model.biases
    return model.classes[scores.argmax(axis=1)]  # argmax ties -> lowest index


def compute_metrics(pred, truth, background_class=0, num_classes=None):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise SizeMismatch("pred/truth length mismatch")
    k = int(num_classes if num_classes is not None
            else max(pred.max(initial=0), truth.max(initial=0)) + 1)
    for name, labels in (("pred", pred), ("truth", truth)):
        if labels.dtype.kind not in "iu" or (
                labels.size and not 0 <= labels.min() <= labels.max() < k):
            raise InvalidValue(f"{name} labels must be integers in [0, {k})")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)
    accuracy = 100.0 * np.trace(confusion) / max(1, len(truth))
    fa = int(((truth == background_class) & (pred != background_class)).sum()
             + ((truth != background_class) & (pred == background_class)).sum())
    return Metrics(accuracy=float(accuracy), false_alarms=fa, confusion=confusion)


# ---------------------------------------------------------------------------
# embeddings


def _finite_features(X):
    """X as float64 rows (n, dim); one NaN or inf would turn every
    embedded point NaN."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise SizeMismatch(f"features to embed must be rows (n, dim), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InvalidValue("features to embed must be finite")
    return X


def pca_project(X, d, iters=200, seed=0):
    """Top-d principal directions by power iteration with deflation.

    Returns (projected coordinates, components (d, dim), mean).
    """
    X = _finite_features(X)
    n, dim = X.shape
    if not (is_count(d) and d <= dim) or n < d + 1:
        raise InvalidValue("need 1 <= d <= dim and at least d+1 samples")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc / (n - 1)
    rng = np.random.default_rng(seed)
    comps = np.zeros((d, dim))
    work = cov.copy()
    for j in range(d):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            v = work @ v
            nv = np.linalg.norm(v)
            if nv < 1e-300:
                break
            v /= nv
        lam = float(v @ work @ v)
        comps[j] = v
        work = work - lam * np.outer(v, v)
    return Xc @ comps.T, comps, mean


def _perplexity_probabilities(D2, perplexity, tol=1e-5, max_steps=100):
    """Per-row Gaussian conditional probabilities whose entropy matches
    log(perplexity), via binary search on the precision."""
    n = D2.shape[0]
    target = np.log(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        beta, lo, hi = 1.0, -np.inf, np.inf
        d = np.delete(D2[i], i)
        for _ in range(max_steps):
            p = np.exp(-d * beta)
            s = p.sum()
            if s <= 0:
                s = 1e-300
            p = p / s
            h = -np.sum(p * np.log(np.maximum(p, 1e-300)))
            diff = h - target
            if abs(diff) < tol:
                break
            if diff > 0:
                lo = beta
                beta = beta * 2 if hi == np.inf else (beta + hi) / 2
            else:
                hi = beta
                beta = beta / 2 if lo == -np.inf else (beta + lo) / 2
        row = np.insert(p, i, 0.0)
        P[i] = row
    return P


# float64 values of the (rows, n, dim) temporary behind each block of rows
# of t-SNE's squared distances: 4 MB, where one block of all 320 rows of the
# default plotdata's 128-dim features took 105 MB
_TSNE_BLOCK_VALUES = 1 << 19


def tsne_embed(X, perplexity=20.0, iters=500, seed=0, learning_rate=100.0):
    """Exact O(n^2) t-SNE.

    Early exaggeration x4 for the first 100 iterations, momentum 0.5
    switching to 0.8 at iteration 250, embedding re-centered every
    iteration. Returns (coords (n,2), KL trace).
    """
    X = _finite_features(X)
    n = X.shape[0]
    if n > 2000:
        raise InvalidValue("exact t-SNE capped at 2000 points")
    if not (5 <= perplexity <= (n - 1) / 3):
        raise InvalidValue(f"perplexity {perplexity} infeasible for n={n}")
    D2 = np.empty((n, n))
    rows = max(1, _TSNE_BLOCK_VALUES // max(1, X.size))
    for a in range(0, n, rows):
        D2[a:a + rows] = ((X[a:a + rows, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    Pc = _perplexity_probabilities(D2, perplexity)
    P = (Pc + Pc.T) / (2 * n)
    P = np.maximum(P, 1e-12)

    rng = np.random.default_rng(seed)
    Y = rng.normal(0, 1e-4, size=(n, 2))
    inc = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_trace = []
    exagg_until = 100
    step_scale = 1.0

    def kl_of(Yc):
        d2 = ((Yc[:, None, :] - Yc[None, :, :]) ** 2).sum(axis=2)
        num = 1.0 / (1.0 + d2)
        np.fill_diagonal(num, 0.0)
        Q = np.maximum(num / num.sum(), 1e-12)
        return float(np.sum(P * np.log(P / Q))), num, Q

    kl_prev, num, Q = kl_of(Y)
    for it in range(iters):
        Pe = P * 4.0 if it < exagg_until else P
        PQ = (Pe - Q) * num
        grad = 4.0 * ((np.diag(PQ.sum(axis=1)) - PQ) @ Y)
        momentum = 0.5 if it < 250 else 0.8
        gains = np.where(np.sign(grad) != np.sign(inc), gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        inc = momentum * inc - step_scale * learning_rate * gains * grad
        Y_new = Y + inc
        Y_new = Y_new - Y_new.mean(axis=0)
        kl_new, num_new, Q_new = kl_of(Y_new)
        if it >= exagg_until and kl_new > kl_prev:
            # backtrack: keep the KL trace non-increasing
            inc = np.zeros_like(Y)
            step_scale *= 0.5
            kl_trace.append(kl_prev)
            continue
        Y, num, Q, kl_prev = Y_new, num_new, Q_new, kl_new
        kl_trace.append(kl_prev)
    return Y, kl_trace
