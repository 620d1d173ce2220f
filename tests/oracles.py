"""Independent reference solvers used only by tests.

The one-class SVM dual is re-solved here with accelerated projected
gradient descent, a completely different algorithm from the pairwise
coordinate descent in the package, so agreement is evidence and not
tautology. The plant simulator's reference is its former step loop, which
draws one `gauss()` per reading. The forecaster's conv and max-pool passes,
its loss gradient and `Rng.shuffle` are checked against other
implementations: an im2col copied out of `np.pad` and `sliding_window_view`,
a scatter into a padded buffer, a pool gradient routed by `np.argmax` over
each pair, a backward pass that forms every layer's input gradient, and a
Fisher-Yates loop that calls `randint` per element. The CSV codec's
reference is its `csv.reader` and `csv.writer` code, which parses and writes
every file.
"""

import csv
import io

import numpy as np

from cps_sentinel.dataio import DataFormatError, TimeSeriesFrame
from cps_sentinel.forecaster.layers import Conv1DLayer, MaxPool1DLayer
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


def conv_im2col(layer, x):
    """(B, L, k*C) im2col of the same-padded input through `np.pad`."""
    k = layer.kernel_size
    pad_left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad_left, k - 1 - pad_left), (0, 0)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)
    cols = cols.transpose(0, 1, 3, 2)
    return cols.reshape(x.shape[0], x.shape[1], k * layer.in_ch)


def conv_forward(layer, x):
    k, f = layer.kernel_size, layer.filters
    cols = conv_im2col(layer, x)
    z = cols @ layer.weights.reshape(k * layer.in_ch, f) + layer.bias
    y = np.maximum(z, 0.0)
    return y, (cols, z, y)


def conv_backward(layer, dy, cache):
    """Input gradient by a scatter of every tap into a padded buffer."""
    cols, z, y = cache
    k, f = layer.kernel_size, layer.filters
    dz = dy * (z > 0.0).astype(np.float64)
    flat_cols = cols.reshape(-1, k * layer.in_ch)
    flat_dz = dz.reshape(-1, f)
    dw = (flat_cols.T @ flat_dz).reshape(k, layer.in_ch, f)
    db = flat_dz.sum(axis=0)
    dcols = dz @ layer.weights.reshape(k * layer.in_ch, f).T
    b, length = dy.shape[0], dy.shape[1]
    dcols = dcols.reshape(b, length, k, layer.in_ch)
    pad_left = (k - 1) // 2
    dxp = np.zeros((b, length + k - 1, layer.in_ch))
    for j in range(k):
        dxp[:, j : j + length, :] += dcols[:, :, j, :]
    dx = dxp[:, pad_left : pad_left + length, :]
    return dx, [dw, db]


def maxpool_backward(layer, dy, x):
    """Each output's gradient goes to the `np.argmax` of its pair of inputs."""
    xr = x.reshape(dy.shape[0], layer.in_len // 2, 2, layer.in_ch)
    dxr = np.zeros_like(xr)
    np.put_along_axis(dxr, np.argmax(xr, axis=2)[:, :, None, :], dy[:, :, None, :], axis=2)
    return dxr.reshape(dy.shape[0], layer.in_len, layer.in_ch), []


def loss_and_grads(model, windows, targets, training=False, rng=None):
    """`CnnModel.loss_and_grads` with the oracle conv and pool passes, forming
    every layer's input gradient, the first layer's included."""
    caches = []
    out = windows
    for layer in model.layers:
        if isinstance(layer, Conv1DLayer):
            out, cache = conv_forward(layer, out)
        elif isinstance(layer, MaxPool1DLayer):
            cache = out
            out, _ = layer.forward(out)
        else:
            out, cache = layer.forward(out, training=training, rng=rng)
        caches.append(cache)
    diff = out - targets
    loss = float(np.mean(np.abs(diff)))
    dy = np.sign(diff) / diff.size
    grads = []
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        if isinstance(layer, Conv1DLayer):
            dy, param_grads = conv_backward(layer, dy, cache)
        elif isinstance(layer, MaxPool1DLayer):
            dy, param_grads = maxpool_backward(layer, dy, cache)
        else:
            dy, param_grads = layer.backward(dy, cache)
        grads = param_grads + grads
    return loss, grads


def fisher_yates(rng: Rng, items) -> None:
    """In-place Fisher-Yates, one `randint` per element."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]


def csv_text(header, columns) -> str:
    """`dataio.csv_text` through `csv.writer` alone."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(column).tolist() for column in columns)))
    return buf.getvalue()


def _csv_rows(path, data: bytes) -> list[list[str]]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start)
        raise DataFormatError(f"{path}: malformed row {row}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataFormatError(f"{path}: malformed row {reader.line_num - 1}: {exc}") from None
    if not rows or not rows[0]:
        raise DataFormatError(f"{path}: missing header row")
    return rows


def read_csv(path, what: str, layouts: dict) -> list[np.ndarray]:
    """`dataio.read_csv` through `csv.reader` alone, one parser call per field."""
    with open(path, "rb") as fh:
        header, *body = _csv_rows(path, fh.read())
    cells = layouts.get(tuple(header))
    if cells is None:
        raise DataFormatError(f"{path}: not {what} (header {header!r})")
    width = len(cells)
    for row_no, row in enumerate(body, start=1):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: malformed row {row_no}: {len(row)} fields, expected {width}: {row!r}"
            )
    columns = list(zip(*body)) if body else [()] * width
    try:
        return [
            np.asarray(list(map(parse, tokens)), dtype=dtype)
            for (parse, dtype), tokens in zip(cells, columns)
        ]
    except (ValueError, OverflowError):
        for row_no, row in enumerate(body, start=1):
            for (parse, dtype), token in zip(cells, row):
                try:
                    np.asarray(parse(token), dtype=dtype)
                except (ValueError, OverflowError) as exc:
                    raise DataFormatError(f"{path}: malformed row {row_no}: {exc}") from None
        raise
