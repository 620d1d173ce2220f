"""Three interchangeable anomaly deciders over the error series/embedding.

Fixed threshold (attack iff error > beta*delta), weighted one-class SVM with
an RBF kernel solved in the dual, and two-cluster k-means. Fitting mutates
nothing shared; detection on a fitted model is pure and thread-safe.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import FLOAT64, INT64, TOKEN, csv_text, read_csv, reject_rows
from .errorspace import ErrorEmbedding, ErrorSeries
from .rng import Rng, derive_seed

THRESHOLD = "threshold"
OCSVM = "ocsvm"
KMEANS = "kmeans"
DETECTOR_KINDS = (THRESHOLD, OCSVM, KMEANS)

VERDICT_HEADER = ("index", "flag", "score")

KKT_TOL = 1e-6
WEIGHT_EPS = 1e-6
SV_CUTOFF = 1e-12
# Entries per row block in rbf_kernel: a 256 KiB buffer, so a block's
# passes run in cache.
KERNEL_BLOCK_ENTRIES = 1 << 15


class NonConvergence(RuntimeError):
    """Dual solver hit its iteration cap before reaching the KKT tolerance."""


@dataclass(frozen=True)
class VerdictSeries:
    """Per-timestep attack flags and detector-specific scores.

    Score meaning: the raw error for the threshold detector, the signed
    decision value for the SVM (negative = attack), and the centroid
    distance margin for k-means (positive = attack).
    """

    indices: np.ndarray
    flags: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "flags", np.asarray(self.flags, dtype=bool))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        if not len(self.indices) == len(self.flags) == len(self.scores):
            raise ValueError("verdict arrays must share one length")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ThresholdModel:
    delta: float
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @property
    def alpha(self) -> float:
        return self.beta * self.delta


def threshold_fit(train_errors: ErrorSeries, beta: float) -> ThresholdModel:
    if len(train_errors) == 0:
        raise ValueError("empty error series")
    return ThresholdModel(delta=train_errors.delta, beta=beta)


def threshold_detect(model: ThresholdModel, errors: ErrorSeries) -> VerdictSeries:
    """Attack iff error strictly exceeds alpha; beta = 1 never flags train data."""
    return VerdictSeries(
        indices=errors.target_indices,
        flags=errors.errors > model.alpha,
        scores=errors.errors,
    )


@dataclass(frozen=True)
class OcsvmModel:
    nu: float
    gamma: float
    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    sample_weights: np.ndarray

    def __post_init__(self):
        n = len(self.alphas)
        if n == 0 or np.shape(self.support_vectors) != (n, 2) or np.shape(self.alphas) != (n,):
            raise ValueError("one-class SVM needs n >= 1 2-D support vectors with one alpha each")


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for row sets a, b.

    The cross products come from one matrix product, which is turned into
    the kernel in place, a block of rows at a time, through one small
    buffer. So peak memory is the output plus that buffer, and each entry
    comes from the same expression, evaluated in the same order, as in
    `exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0))` over whole arrays.
    """
    out = a @ b.T
    a_sq = np.sum(a * a, axis=1)[:, None]
    b_sq = np.sum(b * b, axis=1)[None, :]
    block = max(1, KERNEL_BLOCK_ENTRIES // max(1, len(b)))
    buf = np.empty((min(block, len(a)), len(b)))
    for lo in range(0, len(a), block):
        rows = out[lo : lo + block]
        sq = buf[: len(rows)]
        np.add(a_sq[lo : lo + block], b_sq, out=sq)
        rows *= 2.0
        np.subtract(sq, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        rows *= -gamma
        np.exp(rows, out=rows)
    return out


def default_weights(embedding: ErrorEmbedding) -> np.ndarray:
    """Error-proportional weights: eps + first coordinate, mean renormalized to 1."""
    w = WEIGHT_EPS + embedding.points[:, 0]
    return w / np.mean(w)


def ocsvm_fit(
    embedding: ErrorEmbedding,
    nu: float,
    gamma: float,
    sample_weights: np.ndarray | None = None,
) -> OcsvmModel:
    """Solve the weighted one-class dual by pairwise coordinate descent.

    min 1/2 a^T K a  s.t.  0 <= a_i <= w_i / (nu * n * mean(w)),  sum a = 1.
    sample_weights None selects the error-proportional default; pass an
    explicit array (for instance all ones) to override.
    """
    points = embedding.points
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points")
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if sample_weights is None:
        weights = default_weights(embedding)
    else:
        weights = np.asarray(sample_weights, dtype=np.float64)
        if weights.shape != (n,) or np.any(weights < 0) or not np.any(weights > 0):
            raise ValueError("sample_weights must be n non-negative reals, not all zero")

    upper = weights / (nu * n * float(np.mean(weights)))
    kernel = rbf_kernel(points, points, gamma)

    # Greedy feasible start: fill boxes in order until the unit mass is spent.
    alpha = np.zeros(n)
    remaining = 1.0
    for i in range(n):
        take = min(upper[i], remaining)
        alpha[i] = take
        remaining -= take
        if remaining <= 0.0:
            break

    grad = kernel @ alpha
    max_iter = 10 * n
    violation = np.inf
    for _ in range(max_iter):
        can_up = alpha < upper - SV_CUTOFF
        can_down = alpha > SV_CUTOFF
        gi = np.where(can_up, grad, np.inf)
        gj = np.where(can_down, grad, -np.inf)
        i = int(np.argmin(gi))
        j = int(np.argmax(gj))
        violation = float(gj[j] - gi[i])
        if violation <= KKT_TOL:
            break
        # Move mass from j to i; curvature is non-negative for a PSD kernel.
        curv = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        limit = min(upper[i] - alpha[i], alpha[j])
        step = limit if curv <= 0 else min(limit, violation / curv)
        alpha[i] += step
        alpha[j] -= step
        # Rows, not columns: the kernel is exactly symmetric, and a row read
        # is contiguous.
        grad += step * (kernel[i] - kernel[j])
    else:
        raise NonConvergence(
            f"one-class SVM dual: KKT violation {violation:.3e} > {KKT_TOL} "
            f"after {max_iter} iterations"
        )

    free = (alpha > SV_CUTOFF) & (alpha < upper - SV_CUTOFF)
    if np.any(free):
        rho = float(np.mean(grad[free]))
    else:
        at_upper = alpha >= upper - SV_CUTOFF
        at_zero = alpha <= SV_CUTOFF
        lo = float(np.max(grad[at_upper])) if np.any(at_upper) else -np.inf
        hi = float(np.min(grad[at_zero])) if np.any(at_zero) else np.inf
        if np.isinf(lo):
            rho = hi
        elif np.isinf(hi):
            rho = lo
        else:
            rho = 0.5 * (lo + hi)

    keep = alpha > SV_CUTOFF
    return OcsvmModel(
        nu=nu,
        gamma=gamma,
        support_vectors=points[keep].copy(),
        alphas=alpha[keep].copy(),
        rho=rho,
        sample_weights=weights,
    )


def ocsvm_decision(model: OcsvmModel, points: np.ndarray) -> np.ndarray:
    """Signed decision values: sum_i alpha_i K(sv_i, x) - rho."""
    k = rbf_kernel(np.asarray(points, dtype=np.float64), model.support_vectors, model.gamma)
    return k @ model.alphas - model.rho


def ocsvm_detect(model: OcsvmModel, embedding: ErrorEmbedding) -> VerdictSeries:
    scores = ocsvm_decision(model, embedding.points)
    return VerdictSeries(
        indices=embedding.point_indices,
        flags=scores < 0.0,
        scores=scores,
    )


@dataclass(frozen=True)
class KmeansModel:
    centroids: np.ndarray
    attack_centroid_index: int
    inertia: float
    n_iter: int
    max_iter: int = 300
    # Objective value after each Lloyd update; non-increasing by construction.
    inertia_trace: np.ndarray | None = None

    def __post_init__(self):
        if np.shape(self.centroids) != (2, 2) or self.attack_centroid_index not in (0, 1):
            raise ValueError("k-means needs two 2-D centroids and an attack index of 0 or 1")


def _kmeans_pp_init(points: np.ndarray, rng: Rng) -> np.ndarray:
    """k-means++ for k = 2: uniform first pick, distance-squared second."""
    n = len(points)
    first = rng.randint(n)
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    total = float(np.sum(d2))
    if total <= 0.0:
        raise ValueError("all points identical")
    target = rng.uniform() * total
    second = int(np.searchsorted(np.cumsum(d2), target, side="right"))
    second = min(second, n - 1)
    return np.stack([points[first], points[second]]).astype(np.float64)


def kmeans_fit(embedding: ErrorEmbedding, seed: int = 0, max_iter: int = 300) -> KmeansModel:
    """Two-cluster Lloyd fit on an augmented embedding.

    Requires a mix of real and synthetic points so the two clusters have
    something to separate; the attack centroid is the one with the larger
    coordinate sum.
    """
    flags = embedding.synthetic_flags
    if not np.any(flags):
        raise ValueError("embedding has no synthetic attack-like points; augment first")
    if np.all(flags):
        raise ValueError("embedding is all-synthetic; nothing normal to cluster")
    points = embedding.points
    rng = Rng(derive_seed(seed, 0x4B))
    centroids = _kmeans_pp_init(points, rng)

    assignments = np.full(len(points), -1)
    trace = []
    n_iter = 0
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    for n_iter in range(1, max_iter + 1):
        new_assignments = np.argmin(d2, axis=1)
        for c in range(2):
            mask = new_assignments == c
            if np.any(mask):
                centroids[c] = points[mask].mean(axis=0)
            else:
                # Empty cluster: restart it at the point farthest from the other.
                other = 1 - c
                far = int(np.argmax(np.sum((points - centroids[other]) ** 2, axis=1)))
                centroids[c] = points[far]
                new_assignments[far] = c
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        trace.append(float(np.sum(d2[np.arange(len(points)), new_assignments])))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments

    inertia = float(np.sum(np.min(d2, axis=1)))
    attack = int(np.argmax(np.sum(centroids, axis=1)))
    return KmeansModel(
        centroids=centroids.copy(),
        attack_centroid_index=attack,
        inertia=inertia,
        n_iter=n_iter,
        max_iter=max_iter,
        inertia_trace=np.array(trace),
    )


def kmeans_detect(model: KmeansModel, embedding: ErrorEmbedding) -> VerdictSeries:
    """Attack iff strictly nearer the attack centroid; equidistant is normal."""
    attack_c = model.centroids[model.attack_centroid_index]
    normal_c = model.centroids[1 - model.attack_centroid_index]
    d_attack = np.sqrt(np.sum((embedding.points - attack_c) ** 2, axis=1))
    d_normal = np.sqrt(np.sum((embedding.points - normal_c) ** 2, axis=1))
    scores = d_normal - d_attack
    return VerdictSeries(
        indices=embedding.point_indices,
        flags=scores > 0.0,
        scores=scores,
    )


def align_to_series(verdicts: VerdictSeries, series: ErrorSeries) -> VerdictSeries:
    """Expand embedding verdicts to the full error series.

    Timesteps without an embedding point (the first lag steps) inherit the
    verdict normal with score 0.
    """
    index_map = {int(ix): i for i, ix in enumerate(verdicts.indices)}
    n = len(series)
    flags = np.zeros(n, dtype=bool)
    scores = np.zeros(n)
    for i, ix in enumerate(series.target_indices):
        j = index_map.get(int(ix))
        if j is not None:
            flags[i] = verdicts.flags[j]
            scores[i] = verdicts.scores[j]
    return VerdictSeries(indices=series.target_indices, flags=flags, scores=scores)


def verdict_csv(verdicts: VerdictSeries) -> str:
    """`index,flag,score` rows; flag as 0/1, score via repr."""
    flags = verdicts.flags.astype(np.int64)
    return csv_text(VERDICT_HEADER, (verdicts.indices, flags, verdicts.scores))


def read_verdicts(path) -> VerdictSeries:
    """The verdicts of an `index,flag,score` CSV; a flag is `0` or `1`."""
    layouts = {VERDICT_HEADER: (INT64, TOKEN, FLOAT64)}
    indices, flags, scores = read_csv(path, "a verdict file", layouts)
    attack = flags == "1"
    reject_rows(path, ~attack & (flags != "0"), flags, "flag is not 0 or 1:")
    reject_rows(path, ~np.isfinite(scores), scores, "non-finite score")
    return VerdictSeries(indices=indices, flags=attack, scores=scores)
