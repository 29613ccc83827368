"""Quartiles of repeated runs, and the verdict on pairs of runs.

The benchmark scripts print the first quartile, the median and the third
quartile of their repeats, so that the spread between runs shows beside
each figure.  verdict() applies the rule a claimed gain must pass over
(parent, change) pairs of runs: at least MIN_PAIRS pairs, the change
better in at least 9 of every 10, and a gap between the two medians
larger than the parent's interquartile range.
"""

import statistics

MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method; a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(pairs: list[tuple[float, float]], lower_is_better: bool = True) -> str:
    """'better', 'worse' or 'tie' for the change over (parent, change) pairs.

    'better' needs the change ahead in at least 9 of every 10 pairs and
    its median ahead of the parent's by more than the parent's
    interquartile range; 'worse' is the same rule the other way round.
    Fewer than MIN_PAIRS pairs give 'too few pairs'.
    """
    if len(pairs) < MIN_PAIRS:
        return "too few pairs"
    sign = 1 if lower_is_better else -1
    parent = [p for p, _ in pairs]
    q1, median, q3 = quartiles(parent)
    gap = sign * (median - statistics.median(c for _, c in pairs))  # > 0: the change is ahead
    ahead = sum(sign * (p - c) > 0 for p, c in pairs)
    behind = sum(sign * (p - c) < 0 for p, c in pairs)
    if 10 * ahead >= 9 * len(pairs) and gap > q3 - q1:
        return "better"
    if 10 * behind >= 9 * len(pairs) and -gap > q3 - q1:
        return "worse"
    return "tie"
