"""Scenario configuration: defaults, validation, and the flat key=value file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional


PROTOCOL_MODES = ("cbrp", "ecbrp")

# The most firings any one periodic timer may need to reach duration_s. A
# period too short to advance the clock at all would fire at one instant
# forever; this bound rejects it too.
MAX_FIRINGS = 1e9


class ConfigError(ValueError):
    """Raised with the offending key named in the message."""


@dataclass
class ScenarioConfig:
    # Scenario shape
    node_count: int = 30
    duration_s: float = 300.0
    seed: int = 1
    protocol_mode: str = "ecbrp"  # one of PROTOCOL_MODES

    # Arena and radio
    area_width_m: float = 400.0
    area_height_m: float = 400.0
    tx_range_m: float = 80.0

    # Mobility
    node_speed_mps: float = 20.0
    pause_time_s: float = 100.0
    mobility_tick_s: float = 1.0

    # Energy
    initial_energy: float = 600.0
    transmit_cost: float = 1.0
    head_transmit_cost_factor: float = 1.0

    # Weight metric
    w1: float = 0.7
    w2: float = 0.2
    w3: float = 0.05
    w4: float = 0.05
    ideal_degree: int = 2
    p_v_mode: str = "ch_time"  # "ch_time" | "energy_consumed"

    # Clustering timers
    hello_interval_s: float = 1.0
    stale_timeout_intervals: float = 3.0
    undecided_timer_intervals: float = 2.0

    # Routing
    max_retries: int = 2
    rreq_timeout_s: float = 2.0
    # The route cache was removed. The field is no config-file or --set key
    # and stays only because perfbench/workloads.py passes route_cache=False;
    # validate() rejects True.
    route_cache: bool = False

    # Traffic
    flows: Optional[int] = None  # None -> 1 flow per 10 nodes, min 1
    packets_per_second: float = 4.0
    traffic_start_s: float = 5.0

    # Radio timing
    propagation_delay_s: float = 0.0

    def effective_flows(self) -> int:
        if self.flows is not None:
            return self.flows
        return max(1, self.node_count // 10)

    def stale_timeout_s(self) -> float:
        return self.stale_timeout_intervals * self.hello_interval_s

    def undecided_timer_s(self) -> float:
        return self.undecided_timer_intervals * self.hello_interval_s

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be a finite number, got {value}")
        if self.protocol_mode not in PROTOCOL_MODES:
            raise ConfigError(f"protocol_mode: must be {' or '.join(map(repr, PROTOCOL_MODES))}, "
                              f"got {self.protocol_mode!r}")
        if self.effective_flows() > 0 and self.node_count < 2:
            raise ConfigError(f"node_count: routing requires at least 2 nodes, got {self.node_count}")
        if self.node_count < 1:
            raise ConfigError(f"node_count: must be >= 1, got {self.node_count}")
        for key in ("area_width_m", "area_height_m", "tx_range_m", "hello_interval_s",
                    "mobility_tick_s", "transmit_cost", "initial_energy",
                    "stale_timeout_intervals", "undecided_timer_intervals"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key}: must be positive, got {getattr(self, key)}")
        for key in ("duration_s", "node_speed_mps", "pause_time_s", "w1", "w2", "w3", "w4",
                    "packets_per_second", "rreq_timeout_s", "propagation_delay_s",
                    "traffic_start_s", "head_transmit_cost_factor"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key}: must be non-negative, got {getattr(self, key)}")
        periods = {"hello_interval_s": self.hello_interval_s,
                   "mobility_tick_s": self.mobility_tick_s,
                   "undecided_timer_intervals": self.undecided_timer_s()}
        if self.packets_per_second > 0:
            periods["packets_per_second"] = 1.0 / self.packets_per_second
        for key, period in periods.items():
            if period == 0.0 or self.duration_s / period > MAX_FIRINGS:
                raise ConfigError(f"{key}: a period of {period} s fires more than "
                                  f"{MAX_FIRINGS:.0e} times in duration_s = {self.duration_s}")
        if self.ideal_degree < 0:
            raise ConfigError(f"ideal_degree: must be >= 0, got {self.ideal_degree}")
        if self.p_v_mode not in ("ch_time", "energy_consumed"):
            raise ConfigError(f"p_v_mode: must be 'ch_time' or 'energy_consumed', got {self.p_v_mode!r}")
        if self.flows is not None and self.flows < 0:
            raise ConfigError(f"flows: must be >= 0, got {self.flows}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries: must be >= 0, got {self.max_retries}")
        if self.route_cache:
            raise ConfigError("route_cache: the route cache was removed; only off is accepted")


# The keys a config file or --set may name: every field but route_cache.
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig) if f.name != "route_cache"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{key}: unknown configuration key")
    ftype = _FIELD_TYPES[key]
    if key == "flows":
        if raw.lower() in ("none", ""):
            return None
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer or 'none', got {raw!r}")
    if ftype == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    if ftype == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
    return raw


def apply_setting(config: ScenarioConfig, text: str, where: str) -> None:
    """Parse one key=value and set it on config; errors name `where`."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    setattr(config, key, _parse_value(key, raw))


def load_config_file(path: str, base: Optional[ScenarioConfig] = None) -> ScenarioConfig:
    """Parse a flat key=value file, one key per line; '#' starts a comment."""
    config = replace(base) if base is not None else ScenarioConfig()
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if line:
            apply_setting(config, line, f"line {lineno}")
    return config
