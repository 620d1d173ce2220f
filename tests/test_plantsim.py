import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cps_sentinel.dataio import load_csv, save_csv
from cps_sentinel.plantsim import (
    STEP_BLOCK,
    AttackSpec,
    PlantConfig,
    channel_index,
    inject_attacks,
    load_plant_config,
    simulate_normal,
)

from conftest import SETTINGS, make_frame
from oracles import simulate_normal_steps

QUIET = PlantConfig(noise_sigma=0.0)
BALANCED = PlantConfig(inflows=(2.0, 2.0), outflows=(2.0, 2.0), noise_sigma=0.0)
# Flows this large against the capacity toggle the controller every few
# steps; the third stage's level clips at 0 and at capacity.
CLIPPING = PlantConfig(
    stage_count=3,
    capacities=(100.0, 150.0, 20.0),
    inflows=(6.0, 4.5, 15.0),
    outflows=(5.0, 7.0, 12.0),
    noise_sigma=0.0,
    seed=21,
)


@st.composite
def plants(draw):
    """1-4 stages whose rates reach 1.5x capacity per step, so the controller
    toggles and the level clips at 0 and at capacity in many draws."""
    stages = draw(st.integers(1, 4))
    caps = [draw(st.floats(1.0, 1000.0)) for _ in range(stages)]
    fraction = st.floats(0.01, 1.5)
    return PlantConfig(
        stage_count=stages,
        capacities=tuple(caps),
        inflows=tuple(cap * draw(fraction) for cap in caps),
        outflows=tuple(cap * draw(fraction) for cap in caps),
        noise_sigma=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        seed=draw(st.integers(-(2**63), 2**64 - 1)),
    )


def test_schema_names():
    schema = PlantConfig().schema()
    assert schema.names == (
        "S1_LEVEL", "S1_FLOW", "S1_VALVE", "S1_PUMP",
        "S2_LEVEL", "S2_FLOW", "S2_VALVE", "S2_PUMP",
    )


def test_channel_index():
    assert channel_index(0, "level") == 0
    assert channel_index(1, "pump") == 7


def test_simulate_is_deterministic():
    a = simulate_normal(PlantConfig(seed=42), 500)
    b = simulate_normal(PlantConfig(seed=42), 500)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate_normal(PlantConfig(seed=43), 500)
    assert not np.array_equal(a.values, c.values)


@SETTINGS
@given(plants(), st.integers(1, 3000))
@example(CLIPPING, 3000)
@example(replace(CLIPPING, noise_sigma=0.3), 1)
@example(replace(CLIPPING, noise_sigma=0.3), STEP_BLOCK)
@example(replace(CLIPPING, noise_sigma=0.3), 2 * STEP_BLOCK + 1)
def test_simulate_matches_the_step_loop_oracle_bit_for_bit(config, duration):
    got = simulate_normal(config, duration)
    assert got.values.tobytes() == simulate_normal_steps(config, duration).values.tobytes()


def test_clipping_plant_toggles_and_clips_at_both_ends():
    frame = simulate_normal(CLIPPING, 3000)
    for stage in range(3):
        valve = frame.values[:, channel_index(stage, "valve")]
        assert valve.min() == 0.0 and valve.max() == 1.0
    level = frame.values[:, channel_index(2, "level")]
    assert level.min() == 0.0 and level.max() == CLIPPING.capacities[2]


def test_simulate_memory_does_not_grow_with_duration():
    tracemalloc.start()
    try:
        frame = simulate_normal(PlantConfig(seed=4), 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * frame.values.nbytes


def test_timestamps_start_at_zero_and_labels_normal():
    frame = simulate_normal(QUIET, 50)
    np.testing.assert_array_equal(frame.timestamps, np.arange(50))
    assert not frame.labels.any()


def test_balanced_flows_hold_level_constant():
    frame = simulate_normal(BALANCED, 200)
    for stage in range(2):
        level = frame.values[:, channel_index(stage, "level")]
        np.testing.assert_array_equal(level, 500.0)
        flow = frame.values[:, channel_index(stage, "flow")]
        np.testing.assert_array_equal(flow, 2.0)


def test_levels_stay_within_controller_band():
    # Hysteresis keeps the true level inside [low mark - outflow, high mark
    # + inflow]; zero noise makes the recorded value exact.
    frame = simulate_normal(QUIET, 10000)
    for stage in range(2):
        level = frame.values[:, channel_index(stage, "level")]
        assert level.min() >= 0.4 * 1000.0 - 1.6
        assert level.max() <= 0.8 * 1000.0 + 2.0


def test_noisy_levels_stay_in_tank():
    frame = simulate_normal(PlantConfig(seed=7), 10000)
    for stage in range(2):
        level = frame.values[:, channel_index(stage, "level")]
        assert level.min() > 0.0 and level.max() < 1000.0


def test_actuators_are_binary():
    frame = simulate_normal(PlantConfig(seed=3), 2000)
    for stage in range(2):
        for channel in ("valve", "pump"):
            col = frame.values[:, channel_index(stage, channel)]
            assert set(np.unique(col)) <= {0.0, 1.0}


def test_controller_toggles_at_marks():
    # Default rates fill the tank, so the valve must eventually close.
    frame = simulate_normal(QUIET, 2000)
    valve = frame.values[:, channel_index(0, "valve")]
    assert valve.min() == 0.0 and valve.max() == 1.0


def test_inject_empty_specs_is_identity():
    frame = simulate_normal(PlantConfig(seed=5), 100)
    out = inject_attacks(frame, [])
    np.testing.assert_array_equal(out.values, frame.values)
    assert not out.labels.any()


def test_freeze_labels_exactly_the_window():
    frame = simulate_normal(PlantConfig(seed=5), 300)
    spec = AttackSpec("SSSP", start=100, duration=60, targets=((0, "level"),))
    out = inject_attacks(frame, [spec])
    assert out.labels.sum() == 60
    assert out.labels[100:160].all()
    # Frozen channel repeats the last pre-attack reading.
    col = channel_index(0, "level")
    np.testing.assert_array_equal(out.values[100:160, col], frame.values[99, col])
    # Everything outside the window and all other channels are untouched.
    touched = np.zeros_like(frame.values, dtype=bool)
    touched[100:160, col] = True
    np.testing.assert_array_equal(out.values[~touched], frame.values[~touched])


def test_freeze_at_frame_start_anchors_to_first_row():
    frame = simulate_normal(PlantConfig(seed=8), 50)
    spec = AttackSpec("SSSP", start=0, duration=10, targets=((0, "flow"),))
    out = inject_attacks(frame, [spec])
    col = channel_index(0, "flow")
    np.testing.assert_array_equal(out.values[0:10, col], frame.values[0, col])


def test_offset_shifts_only_the_target():
    frame = simulate_normal(PlantConfig(seed=5), 200)
    spec = AttackSpec(
        "SSSP", start=40, duration=20, targets=((1, "level"),),
        manipulation=("offset", 0.2),
    )
    out = inject_attacks(frame, [spec])
    diff = out.values - frame.values
    col = channel_index(1, "level")
    np.testing.assert_allclose(diff[40:60, col], 0.2)
    diff[40:60, col] = 0.0
    assert not diff.any()


def test_force_pins_actuator_state():
    frame = simulate_normal(QUIET, 2000)
    spec = AttackSpec(
        "SSSP", start=500, duration=100, targets=((0, "valve"),),
        manipulation=("force", 0),
    )
    out = inject_attacks(frame, [spec])
    col = channel_index(0, "valve")
    np.testing.assert_array_equal(out.values[500:600, col], 0.0)


def test_multi_point_and_multi_stage_categories():
    frame = simulate_normal(PlantConfig(seed=1), 100)
    specs = [
        AttackSpec("SSMP", start=10, duration=5,
                   targets=((0, "level"), (0, "flow"))),
        AttackSpec("MSSP", start=30, duration=5,
                   targets=((0, "level"), (1, "level"))),
        AttackSpec("MSMP", start=50, duration=5,
                   targets=((0, "level"), (0, "flow"), (1, "level"))),
    ]
    out = inject_attacks(frame, specs)
    assert out.labels.sum() == 15


def test_category_consistency_enforced():
    with pytest.raises(ValueError, match="category"):
        AttackSpec("SSSP", start=0, duration=5,
                   targets=((0, "level"), (0, "flow")))
    with pytest.raises(ValueError, match="category"):
        AttackSpec("MSSP", start=0, duration=5, targets=((0, "level"),))
    with pytest.raises(ValueError, match="category"):
        AttackSpec("SSMP", start=0, duration=5,
                   targets=((0, "level"), (1, "level")))


def test_attack_spec_validation():
    with pytest.raises(ValueError, match="duration"):
        AttackSpec("SSSP", start=0, duration=0, targets=((0, "level"),))
    with pytest.raises(ValueError, match="target"):
        AttackSpec("SSSP", start=0, duration=5, targets=())
    with pytest.raises(ValueError, match="channel"):
        AttackSpec("SSSP", start=0, duration=5, targets=((0, "tank"),))
    with pytest.raises(ValueError, match="target stage must be >= 0"):
        AttackSpec("SSSP", start=0, duration=5, targets=((-1, "level"),))
    with pytest.raises(ValueError, match="offset manipulation needs an amount"):
        AttackSpec("SSSP", start=0, duration=5, targets=((0, "level"),),
                   manipulation=("offset",))
    with pytest.raises(ValueError, match="actuator"):
        AttackSpec("SSSP", start=0, duration=5, targets=((0, "level"),),
                   manipulation=("force", 1))
    with pytest.raises(ValueError, match="0/1"):
        AttackSpec("SSSP", start=0, duration=5, targets=((0, "valve"),),
                   manipulation=("force", 2))
    with pytest.raises(ValueError, match="unknown manipulation"):
        AttackSpec("SSSP", start=0, duration=5, targets=((0, "level"),),
                   manipulation=("spike",))
    assert AttackSpec("SSSP", start=3, duration=4, targets=((0, "level"),)).end == 7


def test_overlapping_attacks_rejected():
    frame = simulate_normal(PlantConfig(seed=1), 100)
    specs = [
        AttackSpec("SSSP", start=10, duration=20, targets=((0, "level"),)),
        AttackSpec("SSSP", start=25, duration=5, targets=((0, "flow"),)),
    ]
    with pytest.raises(ValueError, match="overlap"):
        inject_attacks(frame, specs)


def test_attack_outside_frame_rejected():
    frame = simulate_normal(PlantConfig(seed=1), 100)
    spec = AttackSpec("SSSP", start=95, duration=10, targets=((0, "level"),))
    with pytest.raises(ValueError, match="outside frame"):
        inject_attacks(frame, [spec])
    with pytest.raises(ValueError, match="out of range"):
        inject_attacks(
            frame,
            [AttackSpec("SSSP", start=0, duration=5, targets=((5, "level"),))],
        )


def test_attacks_use_absolute_timestamps():
    frame = make_frame(np.arange(40.0).reshape(10, 4), start=50)
    spec = AttackSpec("SSSP", start=55, duration=2, targets=((0, "level"),))
    out = inject_attacks(frame, [spec])
    assert out.labels[5:7].all() and out.labels.sum() == 2


def test_save_round_trip_with_labels(tmp_path):
    frame = simulate_normal(PlantConfig(seed=9), 200)
    attacked = inject_attacks(
        frame,
        [AttackSpec("SSSP", start=50, duration=30, targets=((0, "level"),))],
    )
    path = tmp_path / "trace.csv"
    save_csv(attacked, path)
    text = path.read_text()
    assert ",Attack\n" in text and ",Normal\n" in text
    back = load_csv(path, attacked.schema)
    np.testing.assert_array_equal(back.values, attacked.values)
    np.testing.assert_array_equal(back.labels, attacked.labels)


def test_plant_config_validation():
    with pytest.raises(ValueError, match="stage_count"):
        PlantConfig(stage_count=0, capacities=(), inflows=(), outflows=())
    with pytest.raises(ValueError, match="per stage"):
        PlantConfig(capacities=(1000.0,))
    with pytest.raises(ValueError, match="positive"):
        PlantConfig(inflows=(2.0, 0.0))
    with pytest.raises(ValueError, match="noise_sigma"):
        PlantConfig(noise_sigma=-1.0)


def test_load_plant_config(tmp_path):
    path = tmp_path / "plant.ini"
    path.write_text(
        "[plant]\n"
        "stages = 2\n"
        "capacity = 1000, 2000\n"
        "inflow = 2.0\n"
        "outflow = 1.6, 1.8\n"
        "noise_sigma = 0.25\n"
        "seed = 11\n"
        "\n"
        "[attack.1]\n"
        "category = SSSP\n"
        "start = 100\n"
        "duration = 60\n"
        "targets = 0:level\n"
        "manipulation = offset:3.5\n"
        "\n"
        "[attack.2]\n"
        "category = MSSP\n"
        "start = 300\n"
        "duration = 30\n"
        "targets = 0:valve, 1:pump\n"
        "manipulation = force:0\n"
    )
    config, attacks = load_plant_config(path)
    assert config.capacities == (1000.0, 2000.0)
    assert config.inflows == (2.0, 2.0)
    assert config.outflows == (1.6, 1.8)
    assert config.noise_sigma == 0.25 and config.seed == 11
    assert len(attacks) == 2
    assert attacks[0].manipulation == ("offset", 3.5)
    assert attacks[1].targets == ((0, "valve"), (1, "pump"))
    assert attacks[1].manipulation == ("force", 0)


def test_load_plant_config_reads_an_explicit_freeze(tmp_path):
    path = tmp_path / "plant.ini"
    path.write_text(
        "[plant]\n"
        "[attack.1]\n"
        "category = SSSP\n"
        "start = 5\n"
        "duration = 3\n"
        "targets = 0:level\n"
        "manipulation = freeze\n"
    )
    _, attacks = load_plant_config(path)
    assert attacks[0].manipulation == ("freeze",)


def test_load_plant_config_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_plant_config(tmp_path / "missing.ini")
    path = tmp_path / "empty.ini"
    path.write_text("[simulate]\n")
    with pytest.raises(ValueError, match="plant"):
        load_plant_config(path)
