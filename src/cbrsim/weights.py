"""Combined cluster-head election weight and its four components.

Lower weight means a better head candidate. The four raw components keep
their native units (count, meters, m/s, seconds); the coefficients absorb
the scale differences.
"""

from dataclasses import dataclass


@dataclass(slots=True)
class WeightFactors:
    w1: float
    w2: float
    w3: float
    w4: float


@dataclass(slots=True)
class WeightComponents:
    degree_diff: float   # |degree - ideal_degree|
    dist_sum: float      # sum of distances to current neighbors, meters
    mobility: float      # running average speed since t=0, m/s
    head_time: float     # cumulative time spent as cluster head, seconds


def combined_weight(components: WeightComponents, factors: WeightFactors) -> float:
    """w1*degree_diff + w2*dist_sum + w3*mobility + w4*head_time, added left
    to right. Node.weight_now computes the same expression in its own body,
    in the same order, and must give the same float."""
    return (factors.w1 * components.degree_diff
            + factors.w2 * components.dist_sum
            + factors.w3 * components.mobility
            + factors.w4 * components.head_time)


def degree_difference(degree: int, ideal_degree: int) -> float:
    return abs(degree - ideal_degree)


def average_speed(total_distance_m: float, elapsed_s: float) -> float:
    if elapsed_s <= 0:
        return 0.0
    return total_distance_m / elapsed_s
