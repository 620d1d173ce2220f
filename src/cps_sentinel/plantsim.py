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

`simulate_normal` works in two passes over blocks of steps.  The controller
never reads a sensor, so each stage's trajectory is a plain-float loop; the
block's read noise is then drawn at once and added to the level and flow
columns.  The noise is the stream of one `Rng.gauss()` per reading, in the
same order, because the batch runs the Box-Muller transform on Python floats
through `math`: `np.log` differs from `math.log` in the last bit for some
inputs, and a trace must not depend on how its noise was batched.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dataio import ATTACK_SECTION, ChannelSchema, FieldError, TimeSeriesFrame, naming_keys
from .dataio import read_config, read_section
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
STEP_BLOCK = 4096


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
            raise FieldError("stage_count must be >= 1", "stage_count")
        for name in ("capacities", "inflows", "outflows"):
            per_stage = getattr(self, name)
            if len(per_stage) != self.stage_count:
                raise FieldError(f"{name} must list one value per stage", name, "stage_count")
            if not all(map(math.isfinite, per_stage)):
                raise FieldError(f"{name} must be finite, not {per_stage!r}", name)
            if any(v <= 0 for v in per_stage):
                raise FieldError(f"{name} must be positive", name)
        if not math.isfinite(self.noise_sigma):
            raise FieldError(f"noise_sigma must be finite, not {self.noise_sigma!r}", "noise_sigma")
        if self.noise_sigma < 0:
            raise FieldError("noise_sigma must be >= 0", "noise_sigma")

    def schema(self) -> ChannelSchema:
        return ChannelSchema(
            names=tuple(
                f"S{s + 1}_{ch.upper()}" for s in range(self.stage_count) for ch in STAGE_CHANNELS
            )
        )


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
            raise FieldError(f"unknown attack category {self.category!r}", "category")
        if self.duration < 1:
            raise FieldError("attack duration must be >= 1 second", "duration")
        if not self.targets:
            raise FieldError("attack needs at least one target", "targets")
        for stage, channel in self.targets:
            if channel not in STAGE_CHANNELS:
                raise FieldError(f"unknown target channel {channel!r}", "targets")
            if stage < 0:
                raise FieldError("target stage must be >= 0", "targets")
        stages = {s for s, _ in self.targets}
        stage_kind = "MS" if len(stages) > 1 else "SS"
        point_kind = "MP" if len(self.targets) > len(stages) else "SP"
        if self.category != stage_kind + point_kind:
            raise FieldError(
                f"targets {self.targets} do not match category {self.category}",
                "targets", "category",
            )
        kind = self.manipulation[0]
        if kind not in (FREEZE, OFFSET, FORCE):
            raise FieldError(f"unknown manipulation {kind!r}", "manipulation")
        if kind == OFFSET and len(self.manipulation) != 2:
            raise FieldError("offset manipulation needs an amount", "manipulation")
        if kind == FORCE:
            if len(self.manipulation) != 2 or self.manipulation[1] not in (0, 1):
                raise FieldError("force manipulation needs a 0/1 state", "manipulation")
            if any(ch not in (VALVE, PUMP) for _, ch in self.targets):
                raise FieldError(
                    "force manipulation targets actuator channels only", "manipulation", "targets"
                )

    @property
    def end(self) -> int:
        return self.start + self.duration

    def check_fits(self, stage_count: int, t0: int, t_end: int) -> None:
        """FieldError unless the interval lies in [t0, t_end) and every
        target stage is below `stage_count`."""
        if self.start < t0 or self.end > t_end:
            raise FieldError(
                f"attack interval [{self.start}, {self.end}) outside frame [{t0}, {t_end})", "start"
            )
        for stage, _ in self.targets:
            if stage >= stage_count:
                raise FieldError(
                    f"target stage {stage} out of range for {stage_count} stages", "targets"
                )


def channel_index(stage: int, channel: str) -> int:
    return stage * CHANNELS_PER_STAGE + STAGE_CHANNELS.index(channel)


def _controller(cap: float, inflow: float, outflow: float, state: tuple, steps: int):
    """One stage's noise-free trajectory over `steps` seconds, starting from
    `state` = (level, valve, pump).

    Returns the level, inlet flow, valve and pump at each step, as four
    lists, and the state after the last step.
    """
    level, valve, pump = state
    high, low = HIGH_MARK * cap, LOW_MARK * cap
    levels, flows, valves, pumps = [], [], [], []
    for _ in range(steps):
        flow_in = inflow * valve
        levels.append(level)
        flows.append(flow_in)
        valves.append(valve)
        pumps.append(pump)
        level = level + flow_in - outflow * pump
        # min(max(level, 0.0), cap), without the cost of two builtin calls.
        if level < 0.0:
            level = 0.0
        elif level > cap:
            level = cap
        if level > high:
            valve, pump = 0.0, 1.0
        elif level < low:
            valve, pump = 1.0, 0.0
    return (levels, flows, valves, pumps), (level, valve, pump)


def _check_duration(duration: int) -> None:
    if duration < 1:
        raise FieldError("duration must be >= 1 second", "duration")


def simulate_normal(config: PlantConfig, duration: int) -> TimeSeriesFrame:
    """Deterministic normal-operation trace of `duration` seconds at 1 Hz.

    Works on `STEP_BLOCK` steps at a time, so transient memory does not grow
    with `duration`. Pass 1 runs each stage's controller on Python floats and
    records its level, inlet flow, valve and pump. Pass 2 draws the block's
    read noise in one `Rng.gauss_batch` (per step, per stage, level then
    flow) and fills each sensor column as `trajectory + noise_sigma * noise`.
    The bytes equal those of a step loop that draws one `gauss()` per
    reading, since the batch transforms its uniforms with `math`, not numpy.
    """
    _check_duration(duration)
    n_stages = config.stage_count
    rates = list(zip(config.capacities, config.inflows, config.outflows))
    state = [(START_LEVEL * cap, 1.0, 1.0) for cap in config.capacities]
    rng = Rng(config.seed)

    values = np.empty((duration, n_stages * CHANNELS_PER_STAGE))
    for t0 in range(0, duration, STEP_BLOCK):
        block = values[t0:t0 + STEP_BLOCK].reshape(-1, n_stages, CHANNELS_PER_STAGE)
        steps = len(block)
        for s in range(n_stages):
            trajectory, state[s] = _controller(*rates[s], state[s], steps)
            block[:, s] = np.transpose(trajectory)
        noise = rng.gauss_batch(steps * n_stages * 2).reshape(steps, n_stages, 2)
        block[:, :, :2] += config.noise_sigma * noise

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
    for spec in specs:
        spec.check_fits(frame.schema.channel_count // CHANNELS_PER_STAGE, t0, t_end)

    values = frame.values.copy()
    labels = frame.labels.copy()
    for spec in specs:
        rows = slice(spec.start - t0, spec.end - t0)
        for stage, channel in spec.targets:
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


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(","))


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


# The [plant] key of each PlantConfig field, in field order; the three
# per-stage keys take one value for every stage or a comma list of one each.
_PLANT_KEYS = ("stages", "capacity", "inflow", "outflow", "noise_sigma", "seed")
_PER_STAGE_KEYS = _PLANT_KEYS[1:4]
# The [attack.<name>] keys with their defaults; None marks a required key.
_ATTACK_KEYS = dict(category=SSSP, start=None, duration=None, targets=None,
                    manipulation=AttackSpec.manipulation)
_ATTACK_PARSERS = dict(start=int, duration=int, targets=_parse_targets,
                       manipulation=_parse_manipulation)


def load_plant_config(path) -> tuple[PlantConfig, list[AttackSpec]]:
    """The [plant] section and every [attack.<name>] section of the INI file
    at `path`, as `read_plant` reads them."""
    plant, attacks, _ = read_plant(read_config(path))
    return plant, attacks


def read_plant(config) -> tuple[PlantConfig, list[AttackSpec], dict]:
    """The [plant] section, every [attack.<name>] section and the [simulate]
    section of a parsed config; the README documents their keys. [simulate]
    gives the row counts of the normal and the test trace and the test
    trace's plant seed, and each attack must lie inside the test trace and
    target the plant's stages."""
    if "plant" not in config:
        raise ValueError("config has no [plant] section")
    defaults = dict(zip(_PLANT_KEYS, astuple(PlantConfig())))
    # Each per-stage default holds the same value for every stage.
    defaults.update((key, defaults[key][:1]) for key in _PER_STAGE_KEYS)
    values = read_section(config, "plant", defaults, dict.fromkeys(_PER_STAGE_KEYS, _floats))
    for key in _PER_STAGE_KEYS:
        if len(values[key]) == 1:
            values[key] *= values["stages"]
    with naming_keys({f.name: f"[plant] {key}" for f, key in zip(fields(PlantConfig), values)}):
        plant = PlantConfig(*values.values())
    defaults = {"normal_steps": 5000, "test_steps": 1000, "test_seed": plant.seed + 1}
    steps = read_section(config, "simulate", defaults)
    for key in ("normal_steps", "test_steps"):
        with naming_keys({"duration": f"[simulate] {key}"}):
            _check_duration(steps[key])
    attacks = []
    for section in config.sections():
        if section.startswith(ATTACK_SECTION):
            block = read_section(config, section, _ATTACK_KEYS, _ATTACK_PARSERS)
            missing = [key for key, value in block.items() if value is None]
            if missing:
                raise ValueError(f"[{section}] is missing {missing[0]}")
            with naming_keys({key: f"[{section}] {key}" for key in block}):
                attack = AttackSpec(**block)
                attack.check_fits(plant.stage_count, 0, steps["test_steps"])
            attacks.append(attack)
    return plant, attacks, steps
