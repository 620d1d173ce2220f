"""Synthetic multi-stage water plant: normal traces plus labeled attack injection.

Each stage contributes four channels, in order: tank level sensor, inlet flow
sensor (both continuous, Gaussian read noise), inlet valve state and outlet
pump state (discrete, noise free).  A hysteresis controller drives the
actuators: rising past the high mark (0.8 x capacity) closes the valve and
starts the pump, falling below the low mark (0.4 x capacity) opens the valve
and stops the pump; between marks both hold state.  Tanks start at half
capacity with valve open and pump on, so equal in/out rates hold the level
flat.  All randomness comes from the seeded generator in `rng`, making traces
bit-reproducible.
"""

import configparser
from dataclasses import dataclass

import numpy as np

from .dataio import ACTUATOR, SENSOR, ChannelSchema, TimeSeriesFrame
from .rng import Rng

CHANNELS_PER_STAGE = 4
LEVEL, FLOW, VALVE, PUMP = "level", "flow", "valve", "pump"
STAGE_CHANNELS = (LEVEL, FLOW, VALVE, PUMP)

SSSP, SSMP, MSSP, MSMP = "SSSP", "SSMP", "MSSP", "MSMP"
CATEGORIES = (SSSP, SSMP, MSSP, MSMP)

FREEZE, OFFSET, FORCE = "freeze", "offset", "force"

HIGH_MARK = 0.8
LOW_MARK = 0.4
START_LEVEL = 0.5


@dataclass(frozen=True)
class PlantConfig:
    """Per-stage tank geometry, flow rates, read noise and the trace seed."""

    stage_count: int = 2
    capacities: tuple[float, ...] = (1000.0, 1000.0)
    inflows: tuple[float, ...] = (2.0, 2.0)
    outflows: tuple[float, ...] = (1.6, 1.6)
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.stage_count < 1:
            raise ValueError("stage_count must be >= 1")
        for name in ("capacities", "inflows", "outflows"):
            per_stage = getattr(self, name)
            if len(per_stage) != self.stage_count:
                raise ValueError(f"{name} must list one value per stage")
            if any(v <= 0 for v in per_stage):
                raise ValueError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    def schema(self) -> ChannelSchema:
        names, kinds = [], []
        for s in range(self.stage_count):
            for ch in STAGE_CHANNELS:
                names.append(f"S{s + 1}_{ch.upper()}")
                kinds.append(SENSOR if ch in (LEVEL, FLOW) else ACTUATOR)
        return ChannelSchema(names=tuple(names), kinds=tuple(kinds))


@dataclass(frozen=True)
class AttackSpec:
    """One attack interval: category, window, targets and the manipulation.

    targets are (stage, channel) pairs with 0-based stage and channel one of
    level/flow/valve/pump.  manipulation is "freeze", ("offset", amount) or
    ("force", state); force is only valid on actuator channels.
    """

    category: str
    start: int
    duration: int
    targets: tuple[tuple[int, str], ...]
    manipulation: tuple = (FREEZE,)

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown attack category {self.category!r}")
        if self.duration < 1:
            raise ValueError("attack duration must be >= 1 second")
        if not self.targets:
            raise ValueError("attack needs at least one target")
        for stage, channel in self.targets:
            if channel not in STAGE_CHANNELS:
                raise ValueError(f"unknown target channel {channel!r}")
            if stage < 0:
                raise ValueError("target stage must be >= 0")
        stages = {s for s, _ in self.targets}
        multi_stage = len(stages) > 1
        per_stage_multi = len(self.targets) > len(stages)
        expected = {
            SSSP: (False, False),
            SSMP: (False, True),
            MSSP: (True, False),
            MSMP: (True, True),
        }[self.category]
        if (multi_stage, per_stage_multi) != expected:
            raise ValueError(
                f"targets {self.targets} do not match category {self.category}"
            )
        kind = self.manipulation[0]
        if kind not in (FREEZE, OFFSET, FORCE):
            raise ValueError(f"unknown manipulation {kind!r}")
        if kind == OFFSET and len(self.manipulation) != 2:
            raise ValueError("offset manipulation needs an amount")
        if kind == FORCE:
            if len(self.manipulation) != 2 or self.manipulation[1] not in (0, 1):
                raise ValueError("force manipulation needs a 0/1 state")
            if any(ch not in (VALVE, PUMP) for _, ch in self.targets):
                raise ValueError("force manipulation targets actuator channels only")

    @property
    def end(self) -> int:
        return self.start + self.duration


def channel_index(stage: int, channel: str) -> int:
    return stage * CHANNELS_PER_STAGE + STAGE_CHANNELS.index(channel)


def simulate_normal(config: PlantConfig, duration: int) -> TimeSeriesFrame:
    """Deterministic normal-operation trace of `duration` seconds at 1 Hz."""
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


def inject_attacks(frame: TimeSeriesFrame, specs: list[AttackSpec]) -> TimeSeriesFrame:
    """Overwrite targeted channels during each attack window and label the rows.

    Intervals are absolute timestamps, must lie inside the frame and may not
    overlap each other.  freeze holds the reading from the last pre-attack
    row; offset adds a constant; force pins an actuator state.
    """
    t0 = int(frame.timestamps[0])
    t_end = int(frame.timestamps[-1]) + 1
    ordered = sorted(specs, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise ValueError(
                f"overlapping attack intervals [{a.start}, {a.end}) and "
                f"[{b.start}, {b.end})"
            )
    n_stages = frame.schema.channel_count // CHANNELS_PER_STAGE

    values = frame.values.copy()
    labels = frame.labels.copy()
    for spec in specs:
        if spec.start < t0 or spec.end > t_end:
            raise ValueError(
                f"attack interval [{spec.start}, {spec.end}) outside frame "
                f"[{t0}, {t_end})"
            )
        rows = slice(spec.start - t0, spec.end - t0)
        for stage, channel in spec.targets:
            if stage >= n_stages:
                raise ValueError(f"target stage {stage} out of range")
            col = channel_index(stage, channel)
            kind = spec.manipulation[0]
            if kind == FREEZE:
                anchor = max(rows.start - 1, 0)
                values[rows, col] = frame.values[anchor, col]
            elif kind == OFFSET:
                values[rows, col] = frame.values[rows, col] + spec.manipulation[1]
            else:
                values[rows, col] = float(spec.manipulation[1])
        labels[rows] = True

    return TimeSeriesFrame(
        schema=frame.schema,
        timestamps=frame.timestamps,
        values=values,
        labels=labels,
    )


def _per_stage(raw: str, stages: int, key: str) -> tuple[float, ...]:
    parts = [float(tok) for tok in raw.split(",")]
    if len(parts) == 1:
        return tuple(parts * stages)
    if len(parts) != stages:
        raise ValueError(f"{key} must give 1 or {stages} values, got {len(parts)}")
    return tuple(parts)


def _parse_targets(raw: str) -> tuple[tuple[int, str], ...]:
    targets = []
    for tok in raw.split(","):
        stage_str, _, channel = tok.strip().partition(":")
        targets.append((int(stage_str), channel.strip()))
    return tuple(targets)


def _parse_manipulation(raw: str) -> tuple:
    kind, _, arg = raw.strip().partition(":")
    kind = kind.strip()
    if kind == FREEZE:
        return (FREEZE,)
    if kind == OFFSET:
        return (OFFSET, float(arg))
    if kind == FORCE:
        return (FORCE, int(arg))
    raise ValueError(f"unknown manipulation {raw!r}")


def load_plant_config(path) -> tuple[PlantConfig, list[AttackSpec]]:
    """Read a [plant] section plus repeated [attack.*] blocks from an INI file.

    Plant keys: stages, capacity, inflow, outflow, noise_sigma, seed; the
    rate/capacity keys accept a single value or a per-stage comma list.
    Attack keys: category, start, duration, targets ("stage:channel" comma
    list), manipulation ("freeze" | "offset:amount" | "force:state").
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    if "plant" not in parser:
        raise ValueError("config has no [plant] section")
    plant = parser["plant"]
    stages = plant.getint("stages", 2)
    config = PlantConfig(
        stage_count=stages,
        capacities=_per_stage(plant.get("capacity", "1000"), stages, "capacity"),
        inflows=_per_stage(plant.get("inflow", "2.0"), stages, "inflow"),
        outflows=_per_stage(plant.get("outflow", "1.6"), stages, "outflow"),
        noise_sigma=plant.getfloat("noise_sigma", 0.5),
        seed=plant.getint("seed", 0),
    )
    attacks = []
    for section in parser.sections():
        if not section.startswith("attack"):
            continue
        block = parser[section]
        attacks.append(
            AttackSpec(
                category=block.get("category", SSSP),
                start=block.getint("start"),
                duration=block.getint("duration"),
                targets=_parse_targets(block.get("targets")),
                manipulation=_parse_manipulation(block.get("manipulation", FREEZE)),
            )
        )
    return config, attacks
