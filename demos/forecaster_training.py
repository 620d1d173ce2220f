"""Train the windowed conv forecaster on normal plant data and watch the loss.

Run: python demos/forecaster_training.py

Uses the raw forecaster API (scale, window, build, train, predict) rather
than the pipeline wrapper, so each stage is visible. The balanced plant
holds every level constant, which makes the sensors pure read noise; the
best achievable MAE is then the mean absolute deviation of that noise.
"""

import numpy as np

from cps_sentinel.dataio import apply_minmax, fit_minmax, make_windows
from cps_sentinel.errorspace import compute_errors
from cps_sentinel.forecaster import TrainConfig, build_model, default_stack, predict_series, train
from cps_sentinel.plantsim import PlantConfig, simulate_normal

PLANT = PlantConfig(
    stage_count=2,
    capacities=(1000.0, 1000.0),
    inflows=(8.0, 8.0),
    outflows=(8.0, 8.0),
    noise_sigma=0.1,
    seed=0,
)
WINDOW = 12


def main():
    frame = simulate_normal(PLANT, 3000)
    scaler = fit_minmax(frame)
    scaled = apply_minmax(scaler, frame)
    windows = make_windows(scaled, WINDOW)
    print(f"{len(frame)} steps -> {len(windows)} windows of {WINDOW} x "
          f"{frame.schema.channel_count} channels")

    specs = default_stack(frame.schema.channel_count, dropout=0.0)
    model = build_model(WINDOW, frame.schema.channel_count, specs, seed=0)
    print(f"model: {sum(p.size for p in model.params)} parameters, "
          f"{len(specs)} layers")

    config = TrainConfig(
        epochs=60,
        batch_size=64,
        learning_rate=0.01,
        early_stop_patience=10,
        validation_fraction=0.1,
    )
    history = train(model, windows, config)
    for epoch, loss in enumerate(history.val_loss):
        if epoch % 5 == 0 or epoch == len(history.val_loss) - 1:
            print(f"  epoch {epoch:3d}: val MAE {loss:.5f}")
    print(f"stopped at epoch {history.stopped_epoch}, "
          f"best val MAE {history.best_val_loss:.5f}")

    predictions, batch = predict_series(model, scaled)
    errors = compute_errors(predictions, batch.targets, batch.target_indices)
    print(f"\ntraining errors: mean {float(np.mean(errors.errors)):.5f}, "
          f"delta (max) {errors.delta:.5f}, sigma {errors.sigma:.5f}")
    print("delta is the base the fixed threshold scales by beta.")


if __name__ == "__main__":
    main()
