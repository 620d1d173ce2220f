"""Independent reference solvers used only by tests.

The one-class SVM dual is re-solved here with accelerated projected
gradient descent, a completely different algorithm from the pairwise
coordinate descent in the package, so agreement is evidence and not
tautology. The plant simulator's reference is its former step loop, which
draws one `gauss()` per reading.
"""

import numpy as np

from cps_sentinel.dataio import TimeSeriesFrame
from cps_sentinel.plantsim import CHANNELS_PER_STAGE, HIGH_MARK, LOW_MARK, START_LEVEL
from cps_sentinel.rng import Rng


def project_capped_simplex(x: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {a : 0 <= a <= upper, sum a = 1}.

    g(tau) = sum_i clip(x_i - tau, 0, u_i) is piecewise linear and
    non-increasing; the breakpoints are x_i and x_i - u_i, so the root of
    g(tau) = 1 sits between two sorted breakpoints and is solved exactly.
    """
    taus = np.sort(np.concatenate([x - upper, x]))
    g = np.clip(x[None, :] - taus[:, None], 0.0, upper[None, :]).sum(axis=1)
    if g[0] < 1.0:
        raise ValueError("infeasible: box caps sum to less than 1")
    k = int(np.searchsorted(-g, -1.0, side="right")) - 1
    if k >= len(taus) - 1 or g[k] == g[k + 1]:
        tau = taus[k]
    else:
        tau = taus[k] + (g[k] - 1.0) * (taus[k + 1] - taus[k]) / (g[k] - g[k + 1])
    return np.clip(x - tau, 0.0, upper)


def solve_ocsvm_qp(
    kernel: np.ndarray, upper: np.ndarray, tol: float = 1e-8, max_iter: int = 200_000
) -> tuple[np.ndarray, float]:
    """min 1/2 a^T K a over the capped simplex, by FISTA with restarts.

    Returns (alpha, objective). Stops when the iterate stops moving by more
    than `tol` in the infinity norm.
    """
    n = len(upper)
    lipschitz = max(float(np.linalg.eigvalsh(kernel)[-1]), 1e-12)
    step = 1.0 / lipschitz

    def objective(a):
        return 0.5 * float(a @ kernel @ a)

    a = project_capped_simplex(np.full(n, 1.0 / n), upper)
    y = a.copy()
    t = 1.0
    f_prev = objective(a)
    for _ in range(max_iter):
        a_new = project_capped_simplex(y - step * (kernel @ y), upper)
        f_new = objective(a_new)
        if f_new > f_prev:
            # Momentum overshot: restart from the last monotone iterate.
            y = a.copy()
            t = 1.0
            continue
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = a_new + ((t - 1.0) / t_new) * (a_new - a)
        moved = float(np.max(np.abs(a_new - a)))
        a, t, f_prev = a_new, t_new, f_new
        if moved <= tol:
            break
    return a, objective(a)


def simulate_normal_steps(config, duration: int):
    """`plantsim.simulate_normal` as one step loop over numpy stage vectors,
    drawing one `gauss()` per sensor reading in step, stage, channel order."""
    if duration < 1:
        raise ValueError("duration must be >= 1 second")
    n_stages = config.stage_count
    caps = np.asarray(config.capacities)
    inflow = np.asarray(config.inflows)
    outflow = np.asarray(config.outflows)
    level = START_LEVEL * caps
    valve = np.ones(n_stages)
    pump = np.ones(n_stages)
    rng = Rng(config.seed)

    values = np.empty((duration, n_stages * CHANNELS_PER_STAGE))
    for t in range(duration):
        flow_in = inflow * valve
        for s in range(n_stages):
            base = s * CHANNELS_PER_STAGE
            values[t, base + 0] = level[s] + config.noise_sigma * rng.gauss()
            values[t, base + 1] = flow_in[s] + config.noise_sigma * rng.gauss()
            values[t, base + 2] = valve[s]
            values[t, base + 3] = pump[s]
        level = np.clip(level + flow_in - outflow * pump, 0.0, caps)
        high = level > HIGH_MARK * caps
        low = level < LOW_MARK * caps
        valve = np.where(high, 0.0, np.where(low, 1.0, valve))
        pump = np.where(high, 1.0, np.where(low, 0.0, pump))

    return TimeSeriesFrame(
        schema=config.schema(),
        timestamps=np.arange(duration, dtype=np.int64),
        values=values,
        labels=np.zeros(duration, dtype=bool),
    )
