"""Three interchangeable anomaly deciders over the error series/embedding.

Fixed threshold (attack iff error > beta*delta), weighted one-class SVM with
an RBF kernel solved in the dual, and two-cluster k-means. Fitting mutates
nothing shared. Fitted models and verdicts hold read-only arrays, so
detection on a fitted model is pure and thread-safe, and each OC-SVM score
depends on its own point alone, not on the frame it is scored in.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import (
    FLOAT64,
    INT64,
    TOKEN,
    DataFormatError,
    csv_text,
    freeze_arrays,
    read_csv,
    reject_rows,
)
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
KMEANS_MAX_ITER = 300
# Entries per block of kernel rows that `_kernel_sums` computes at once: a
# 256 KiB array, so a block's passes run in cache. Each solver step computes
# its two rows, 2n entries, in one call. Nothing holds an n x n or a
# points x support-vector kernel.
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
        freeze_arrays(self, indices=np.int64, flags=bool)
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
    gamma: float
    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float

    def __post_init__(self):
        freeze_arrays(self)
        n = len(self.alphas)
        if n == 0 or self.support_vectors.shape != (n, 2) or self.alphas.shape != (n,):
            raise ValueError("one-class SVM needs n >= 1 2-D support vectors with one alpha each")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


def _operand(points: np.ndarray) -> np.ndarray:
    """2-D points as the kernel reads them: rows x, y and |p|^2, each contiguous."""
    x, y = np.asarray(points, dtype=np.float64).T
    return np.stack([x, y, x * x + y * y])


def _rbf(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """The kernel block between operands a (3, k) and b (3, m), shape (k, m).

    Each entry is `exp(-gamma * max(|a|^2 + |b|^2 - 2 (a_x b_x + a_y b_y), 0))`
    evaluated elementwise, so its bits do not depend on which other rows
    share the call, and K(p, q) == K(q, p) exactly.
    """
    cross = a[0, :, None] * b[0]
    cross += a[1, :, None] * b[1]
    cross *= 2.0
    sq = a[2, :, None] + b[2]
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for 2-D row sets a, b."""
    return _rbf(_operand(a), _operand(b), gamma)


def _kernel_sums(points: np.ndarray, support: np.ndarray, weights: np.ndarray,
                 gamma: float) -> np.ndarray:
    """sum_i weights_i K(support_i, p) for each point p of the operands, taken
    along p's own kernel row by einsum's loop (never a BLAS product), so its
    bits do not depend on which other points share the call."""
    block = max(1, KERNEL_BLOCK_ENTRIES // len(weights))
    sums = np.empty(points.shape[1])
    for lo in range(0, len(sums), block):
        k = _rbf(points[:, lo : lo + block], support, gamma)
        sums[lo : lo + block] = np.einsum("ij,j->i", k, weights)
    return sums


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
    explicit array (for instance all ones) to override. Kernel rows are
    computed when a step needs them, so memory grows linearly with n.
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
    operand = _operand(points)

    # Greedy feasible start: fill boxes in order until the unit mass is spent.
    alpha = np.zeros(n)
    remaining = 1.0
    for i in range(n):
        take = min(upper[i], remaining)
        alpha[i] = take
        remaining -= take
        if remaining <= 0.0:
            break

    # K alpha, summed over the points whose alpha is not 0.
    nonzero = np.flatnonzero(alpha)
    grad = _kernel_sums(operand, operand[:, nonzero], alpha[nonzero], gamma)
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
        k_i, k_j = _rbf(operand[:, [i, j]], operand, gamma)
        curv = k_i[i] + k_j[j] - 2.0 * k_i[j]
        limit = min(upper[i] - alpha[i], alpha[j])
        step = limit if curv <= 0 else min(limit, violation / curv)
        alpha[i] += step
        alpha[j] -= step
        # Rows stand in for columns: the kernel is exactly symmetric.
        grad += step * (k_i - k_j)
    else:
        raise NonConvergence(
            f"one-class SVM dual: KKT violation {violation:.3e} > {KKT_TOL} "
            f"after {max_iter} iterations"
        )

    free = (alpha > SV_CUTOFF) & (alpha < upper - SV_CUTOFF)
    if np.any(free):
        rho = float(np.mean(grad[free]))
    else:  # The alphas sum to 1, so with none free, one sits at its upper bound.
        lo = float(np.max(grad[alpha >= upper - SV_CUTOFF]))
        at_zero = alpha <= SV_CUTOFF
        rho = 0.5 * (lo + float(np.min(grad[at_zero]))) if np.any(at_zero) else lo

    keep = alpha > SV_CUTOFF
    return OcsvmModel(
        gamma=gamma,
        support_vectors=points[keep],
        alphas=alpha[keep],
        rho=rho,
    )


def ocsvm_decision(model: OcsvmModel, points: np.ndarray) -> np.ndarray:
    """Signed decision values: sum_i alpha_i K(sv_i, x) - rho, each a
    function of its own point alone."""
    support = _operand(model.support_vectors)
    return _kernel_sums(_operand(points), support, model.alphas, model.gamma) - model.rho


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
    # Objective value after each Lloyd update; non-increasing by construction.
    inertia_trace: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        if self.centroids.shape != (2, 2) or self.attack_centroid_index not in (0, 1):
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
    return np.stack([points[first], points[second]])


def kmeans_fit(embedding: ErrorEmbedding, seed: int = 0) -> KmeansModel:
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
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
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
        centroids=centroids,
        attack_centroid_index=attack,
        inertia=inertia,
        n_iter=n_iter,
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

    The verdicts must be the series' last steps, as every embedding's points
    are; the steps before them (the first lag steps) are padded as normal
    with score 0. Verdicts that are not the series' tail raise ValueError.
    """
    pad = len(series) - len(verdicts)
    if not np.array_equal(verdicts.indices, series.target_indices[pad:]):
        raise ValueError("verdicts are not the last steps of the error series")
    return VerdictSeries(
        indices=series.target_indices,
        flags=np.pad(verdicts.flags, (pad, 0)),
        scores=np.pad(verdicts.scores, (pad, 0)),
    )


def verdict_csv(verdicts: VerdictSeries) -> str:
    """`index,flag,score` rows; flag as 0/1, score via repr."""
    flags = verdicts.flags.astype(np.int64)
    return csv_text(VERDICT_HEADER, (verdicts.indices, flags, verdicts.scores))


def read_verdicts(path) -> VerdictSeries:
    """The verdicts of an `index,flag,score` CSV; a flag is `0` or `1`, and no index repeats."""
    layouts = {VERDICT_HEADER: (INT64, TOKEN, FLOAT64)}
    indices, flags, scores = read_csv(path, "a verdict file", layouts)
    attack = flags == "1"
    reject_rows(path, ~attack & (flags != "0"), flags, "flag is not 0 or 1:")
    reject_rows(path, ~np.isfinite(scores), scores, "non-finite score")
    _, first, counts = np.unique(indices, return_index=True, return_counts=True)
    if np.any(counts > 1):
        raise DataFormatError(f"{path}: index {indices[first[counts > 1].min()]} repeats")
    return VerdictSeries(indices=indices, flags=attack, scores=scores)
