"""Random-waypoint mobility and the per-transmission energy model."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .geometry import Position, distance


@dataclass(slots=True)
class MobilityState:
    waypoint: Position
    speed: float                 # m/s, fixed per scenario
    pause_remaining: float = 0.0
    total_distance: float = 0.0  # accumulator for the running average speed


@dataclass(slots=True)
class EnergyState:
    remaining: float
    initial: float
    transmit_cost: float

    def consumed(self) -> float:
        return self.initial - self.remaining

    def charge(self, cost: float) -> bool:
        """Pay for one transmission; the remainder clamps at zero. True when
        the battery is now empty."""
        remaining = self.remaining - cost
        if remaining > 0.0:
            self.remaining = remaining
            return False
        self.remaining = 0.0
        return True


def place_nodes(n: int, width: float, height: float, rng: random.Random) -> List[Position]:
    if n < 1:
        raise ValueError("need at least one node")
    return [Position(rng.uniform(0.0, width), rng.uniform(0.0, height)) for _ in range(n)]


def random_waypoint(width: float, height: float, rng: random.Random) -> Position:
    return Position(rng.uniform(0.0, width), rng.uniform(0.0, height))


def mobility_step(pos: Position, state: MobilityState, dt: float, pause_time: float,
                  width: float, height: float, rng: random.Random) -> Tuple[Position, MobilityState]:
    """Advance one tick of random-waypoint motion.

    Arrival inside a tick snaps to the waypoint and starts the pause;
    leftover motion is not carried into the next leg. At the defaults
    (20 m/s, 1 s tick, 400 m arena) that drops 9.95 m per arrival on average,
    about half a tick's step and 5% of a mean leg of about 208 m (measured
    over 450 arrivals: n = 30, 300 s, seeds 1-5).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    moved = 0.0
    if state.pause_remaining > 0.0:
        state.pause_remaining = max(0.0, state.pause_remaining - dt)
        if state.pause_remaining == 0.0:
            state.waypoint = random_waypoint(width, height, rng)
    else:
        remaining = distance(pos, state.waypoint)
        step = state.speed * dt
        if remaining <= step or remaining == 0.0:
            pos = state.waypoint
            moved = remaining
            state.pause_remaining = pause_time
            if pause_time == 0.0:
                state.waypoint = random_waypoint(width, height, rng)
        else:
            frac = step / remaining
            pos = Position(pos.x + (state.waypoint.x - pos.x) * frac,
                           pos.y + (state.waypoint.y - pos.y) * frac)
            moved = step
    state.total_distance += moved
    return pos, state

