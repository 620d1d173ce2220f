"""Property tests of index alignment from windows to verdicts.

For any start timestamp, window `w` and `lag`, the indices that
`make_windows`, `compute_errors`, `embed`, `align_to_series` and
`frame.labels_at` hand on agree step for step, and each value sits at the
timestep its index names.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cps_sentinel.dataio import make_windows
from cps_sentinel.detectors import KmeansModel, align_to_series, kmeans_detect
from cps_sentinel.errorspace import compute_errors, embed
from cps_sentinel.rng import Rng

from conftest import SETTINGS, make_frame

INT64_MAX = 2**63 - 1


@st.composite
def frames(draw):
    """A 2-channel labelled frame from any start at which its last
    timestep fits in int64, a window length and a lag it is long enough for."""
    w = draw(st.integers(min_value=1, max_value=8))
    lag = draw(st.integers(min_value=0, max_value=5))
    rows = draw(st.integers(min_value=w + lag + 1, max_value=w + lag + 30))
    start = draw(st.one_of(
        st.integers(min_value=-(2**63), max_value=INT64_MAX - rows + 1),
        st.sampled_from([-(2**63), -1, 0, INT64_MAX - rows + 1]),
    ))
    rng = Rng(draw(st.integers(min_value=0, max_value=2**32)))
    values = rng.uniform_array(2 * rows).reshape(rows, 2)
    labels = rng.uniform_array(rows) < 0.3
    return make_frame(values, labels=labels, start=start), w, lag, rng


@SETTINGS
@given(frames())
def test_indices_agree_from_windows_to_labels(case):
    frame, w, lag, rng = case
    start = int(frame.timestamps[0])
    row_of = {int(t): row for row, t in enumerate(frame.timestamps)}

    batch = make_windows(frame, w)
    assert len(batch) == len(frame) - w
    for i, t in enumerate(batch.target_indices):
        row = row_of[int(t)]
        np.testing.assert_array_equal(batch.targets[i], frame.values[row])
        np.testing.assert_array_equal(batch.inputs[i], frame.values[row - w : row])

    predictions = rng.uniform_array(2 * len(batch)).reshape(len(batch), 2)
    errors = compute_errors(predictions, batch.targets, batch.target_indices)
    np.testing.assert_array_equal(errors.target_indices, batch.target_indices)
    error_at = dict(zip(errors.target_indices.tolist(), errors.errors))
    for t, p in zip(batch.target_indices.tolist(), predictions):
        assert error_at[t] == np.mean(np.abs(p - frame.values[row_of[t]]))

    embedding = embed(errors, lag)
    np.testing.assert_array_equal(embedding.point_indices, errors.target_indices[lag:])
    for t, (e_t, e_lag) in zip(embedding.point_indices.tolist(), embedding.points):
        assert (e_t, e_lag) == (error_at[t], error_at[t - lag])

    model = KmeansModel(
        centroids=np.array([[0.0, 0.0], [0.5, 0.5]]), attack_centroid_index=1,
        inertia=0.0, n_iter=1,
    )
    verdicts = kmeans_detect(model, embedding)
    aligned = align_to_series(verdicts, errors)
    np.testing.assert_array_equal(aligned.indices, errors.target_indices)
    assert not aligned.flags[:lag].any() and not aligned.scores[:lag].any()
    np.testing.assert_array_equal(aligned.flags[lag:], verdicts.flags)
    np.testing.assert_array_equal(aligned.scores[lag:], verdicts.scores)

    labels = frame.labels_at(aligned.indices)
    np.testing.assert_array_equal(labels, frame.labels[w:])
    np.testing.assert_array_equal(aligned.indices - start, np.arange(w, len(frame)))
