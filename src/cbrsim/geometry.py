"""2-D positions and the distance the unit-disk radio range is tested on."""

import math
from dataclasses import dataclass


@dataclass(slots=True)
class Position:
    # Never assigned after construction: a node that moves gets a new
    # Position, and Hellos already sent keep the old one. Not frozen, because
    # a frozen dataclass sets each field through object.__setattr__ and costs
    # about twice as much to build. Equality without frozen makes it unhashable.
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)
