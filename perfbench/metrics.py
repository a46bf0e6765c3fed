"""Reduce a worker's raw samples to the benchmark's named metrics.

The gated timings use each operation kind's 10th percentile in the run.
Other tenants of a shared machine only add time, so a low percentile tracks
the program's own cost.  Over seven consecutive 30 s rif-plot runs on a
shared 2-vCPU x86_64 virtual machine, the spread (IQR over median) of
per-kind medians was 0.27-0.34, and of per-kind 10th percentiles
0.12-0.20.  Medians and the tail are reported too, ungated.

Throughputs, pass_s and the identity percentiles weight each kind by its
count in one pass of the workload's named caller (Workload.pass_weights),
not by how often the sampling cycle runs it.
"""

from __future__ import annotations

import statistics

# end-to-end metrics, printed by every untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("identity_pts_per_s", "1/s"),
    ("identity_ms_p10", "ms"),
    ("fourier_entries_per_s", "1/s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (layer, unit of its per-call median); the order of worker.LAYERS
LAYER_UNITS = (
    ("verify.antidiagonal", "ms"), ("verify.embed_nd", "ms"),
    ("verify.graph_line.n4096", "ms"), ("verify.graph_line.n32768", "ms"),
    ("verify.product_ee", "ms"), ("verify.product_be", "ms"), ("verify.mass", "ms"),
    ("verify.fourier", "ms"), ("verify.product_fourier", "ms"), ("verify.support", "ms"),
    ("inner1d.rhs", "us"), ("rif2d.rhs", "us"), ("embed.build", "ms"),
    ("clark1d.measure1d", "ms"), ("product2d.branches", "ms"), ("rif2d.build", "ms"),
    ("cli.plot_rif", "ms"), ("cli.plot_product", "ms"), ("cli.plot_embed", "ms"),
)

# ungated figures every run's summary prints; in the per-layer list too
UNGATED = (
    ("identity_ms_p50", "ms"),
    ("identity_ms_tail", "ms"),
    ("support_samples_per_s", "1/s"),
    ("plot_families_per_s", "1/s"),
    ("measure1d_per_s", "1/s"),
    ("identity_rel_err_max", "rel"),
    ("failed_frac", "frac"),
)

# counts made where the work happens
COUNTS = (
    ("verify.support.samples", "count"),
    ("verify.support.exempt_frac", "frac"),
    ("verify.support.undefined", "count"),
    ("verify.identity.margin_min", "frac"),
    ("verify.identity.bound_misses", "count"),
    ("embed.atoms", "count"),
    ("clark1d.atoms", "count"),
    ("product2d.branches.count", "count"),
    ("rif2d.lines", "count"),
    ("cli.plot.bytes", "bytes"),
    ("bench.self.ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


def per_layer_names():
    names = []
    for layer, unit in LAYER_UNITS:
        names += [(f"{layer}.{unit}", unit), (f"{layer}.calls", "count"),
                  (f"{layer}.busy_ms", "ms"), (f"{layer}.share", "frac")]
    return tuple(names) + COUNTS + UNGATED


PER_LAYER = per_layer_names()

TAIL_BEYOND = 10
LOW_QUANTILE = 0.1


def low(values):
    """The 10th percentile, by the nearest rank at or below it."""
    ordered = sorted(values)
    return ordered[int(LOW_QUANTILE * (len(ordered) - 1))]


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh largest sample; returns (value, percentile, n).
    With ten samples or fewer no percentile qualifies, and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def weighted_quantile(records, weights, q):
    """The q-quantile of the successful samples' seconds, by nearest rank at
    or below, where each kind's samples share that kind's pass weight."""
    counts = {}
    for kind, _, _, _, ok in records:
        counts[kind] = counts.get(kind, 0) + ok
    pairs = sorted((seconds, weights[kind] / counts[kind])
                   for kind, _, _, seconds, ok in records if ok)
    total = sum(w for _, w in pairs)
    cumulative = 0.0
    for seconds, w in pairs:
        cumulative += w
        if cumulative >= q * total:
            return seconds
    return pairs[-1][0]


def kind_costs(records):
    """kind -> (group, 10th-percentile seconds, median units), successful ops."""
    samples = {}
    for kind, group, units, seconds, ok in records:
        if ok:
            entry = samples.setdefault(kind, (group, [], []))
            entry[1].append(seconds)
            entry[2].append(units)
    return {kind: (group, low(secs), statistics.median(units))
            for kind, (group, secs, units) in samples.items()}


def group_rate(costs, weights, group):
    """Units per second of the group's operations, in the pass's mix."""
    work = busy = 0.0
    for kind, n in weights.items():
        if kind in costs and costs[kind][0] == group:
            _, seconds, units = costs[kind]
            work += n * units
            busy += n * seconds
    return work / busy if busy > 0 else 0.0


def common(main) -> dict:
    """Metrics both kinds of run report, as name -> value."""
    costs = kind_costs(main["records"])
    weights = main["pass_weights"]
    records = [r for r in main["records"] if r[1] == "identity"]
    identity = [r[3] for r in records if r[4]]
    tail_s, tail_pct, n = tail(identity) if identity else (0.0, 100.0, 0)
    quality = main["quality"]
    return {
        "identity_pts_per_s": group_rate(costs, weights, "identity"),
        "identity_ms_p10":
            1e3 * weighted_quantile(records, weights, LOW_QUANTILE) if identity else 0.0,
        "identity_ms_p50": 1e3 * weighted_quantile(records, weights, 0.5) if identity else 0.0,
        "identity_ms_tail": 1e3 * tail_s,
        "identity_tail_pct": tail_pct,
        "identity_samples": n,
        "fourier_entries_per_s": group_rate(costs, weights, "fourier"),
        "support_samples_per_s": group_rate(costs, weights, "support"),
        "plot_families_per_s": group_rate(costs, weights, "plot"),
        "measure1d_per_s": group_rate(costs, weights, "measure1d"),
        "pass_s": sum(n * costs[k][1] for k, n in weights.items() if k in costs),
        "peak_rss_mb": main["peak_rss_mb"],
        "identity_rel_err_max": max((q[0] for q in quality), default=0.0),
        "verify.identity.margin_min": min((q[1] for q in quality), default=0.0),
        "verify.identity.bound_misses": len(main["bound_misses"]),
    }


def traced(main) -> dict:
    """Per-layer metrics from a traced worker's layer table and counters."""
    values = {}
    for layer, unit in LAYER_UNITS:
        row = main["layers"][layer]
        scale = 1e3 if unit == "ms" else 1e6
        values[f"{layer}.{unit}"] = row["median_s"] * scale
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.busy_ms"] = row["busy_s"] * 1e3
        values[f"{layer}.share"] = row["share"]
    counters = main["counters"]
    samples = counters.get("verify.support.samples", 0)
    values.update({
        "verify.support.samples": samples,
        "verify.support.exempt_frac": counters.get("verify.support.exempt", 0) / max(samples, 1),
        "verify.support.undefined": counters.get("verify.support.undefined", 0),
        "embed.atoms": counters.get("embed.atoms", 0),
        "clark1d.atoms": counters.get("clark1d.atoms", 0),
        "product2d.branches.count": counters.get("product2d.branches.count", 0),
        "rif2d.lines": counters.get("rif2d.lines", 0),
        "cli.plot.bytes": counters.get("cli.plot.bytes", 0),
        "bench.self.ms": main["self_s"] * 1e3,
        "trace.overhead_frac": main["overhead_frac"],
    })
    return values
