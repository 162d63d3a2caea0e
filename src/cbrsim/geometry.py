"""2-D positions and the distance the unit-disk radio range is tested on."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Position:
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)
