"""Order statistics shared by the end-to-end and per-layer reports."""


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest of p99.9, p99, p95, p90 and p75 that has at least ten of
    ``count`` samples beyond it, or the median when none has."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - q) / 100.0 >= 10.0:
            return q
    return 50.0
