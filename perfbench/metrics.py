"""Metric arithmetic of the benchmark, kept apart from process handling so
that it can be tested on its own (see test_metrics.py)."""

import math

# The workload's headline metric for `dt_ratio`: DT-DCTCP over DCTCP,
# seed-averaged, at the workload's largest flow count.
HEADLINE = {
    "bottleneck_sweep": "queue_std",
    "fct_churn": "fct_short_p99_ms",
    "fabric_permutation": "queue_std",
    "fluid_scaleout": "queue_std",
}
DCTCP, DT_DCTCP = "dctcp", "dt-dctcp"

# Per-layer value reported for a counter whose layer works on the
# workload but does not expose it (zero means the layer was idle).
ABSENT = -1.0


def central(xs):
    """Interquartile mean: the mean of the samples left after dropping
    the lowest and highest quarter (rounded up, but always keeping the
    middle one or two). Below seven samples this is the median. Unlike
    the median it moves smoothly when samples cluster on a few levels,
    as the matrix walls of millisecond cells do."""
    if not xs:
        raise ValueError("no samples")
    s = sorted(xs)
    n = len(s)
    drop = min(math.ceil(n / 4), (n - 1) // 2)
    kept = s[drop:n - drop]
    return sum(kept) / len(kept)


def failed_frac(failed, attempted):
    """Quarantined cells over cells attempted."""
    if attempted < 1:
        raise ValueError("no cells attempted")
    return failed / attempted


def busy_frac(cell_seconds, wall_s, threads):
    """Share of the cell workers' capacity spent inside cells:
    sum of cell times over (wall time x worker count)."""
    return sum(cell_seconds) / (wall_s * threads)


def dt_ratio(artifact, metric):
    """DT-DCTCP's `metric` over DCTCP's, each averaged over seeds at the
    largest flow count of the artifact."""
    top = max(p["flows"] for p in artifact["points"])

    def mean(marking):
        vals = [p[metric] for p in artifact["points"]
                if p["marking"] == marking and p["flows"] == top]
        if not vals:
            raise ValueError(f"no {marking} points at N={top}")
        return sum(vals) / len(vals)

    return mean(DT_DCTCP) / mean(DCTCP)


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time per layer, in the spans' time unit: each span's duration
    minus the part of it its child spans cover, summed by layer (the
    span name's prefix before the first dot)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for i, s in enumerate(spans):
        start, end = s["start_ns"], s["end_ns"]
        kids = [(max(c["start_ns"], start), min(c["end_ns"], end))
                for c in children.get(i, [])]
        own = (end - start) - covered([k for k in kids if k[1] > k[0]])
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0) + own
    return out


def span_total(spans, *names):
    """Summed duration of the spans with any of these names."""
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] in names)


def span_durations(spans, name):
    return [s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name]


def counter(cells, name, combine=sum):
    """A replay counter combined over cells: ABSENT when any cell's layer
    does not expose it, zero when no cell reports it (idle layer)."""
    if any(name in c["absent"] for c in cells):
        return ABSENT
    vals = [c["counts"][name] for c in cells if name in c["counts"]]
    return combine(vals) if vals else 0.0


def ratio(num, den):
    """`num / den`, ABSENT if either side is, and 0 for an idle layer."""
    if num == ABSENT or den == ABSENT:
        return ABSENT
    return num / den if den else 0.0
