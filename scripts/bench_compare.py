#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and flag regressions.

    scripts/bench_compare.py BASELINE.json CURRENT.json \
        [--threshold 0.15] [--report diff.md] [--strict]

Used by the bench-smoke CI job: the committed BENCH_rpc.json is the
baseline, a fresh `scripts/check.sh bench` run is the candidate. Only
`median` aggregates are compared (means are noisy under repetitions on
shared runners). A benchmark is a regression when its median real_time
grew by more than --threshold (fraction, default 0.15).

Exit status is 0 even when regressions are found — CI runners are too
noisy for a hard gate — unless --strict is given. The human-readable
diff goes to stdout and, with --report, to a markdown file uploaded as
a CI artifact.
"""

import argparse
import json
import re
import sys


def load_medians(path):
    """Return {benchmark name: (real_time, time_unit)} per benchmark.

    Prefers `median` aggregate rows; a single-repetition run emits no
    aggregates, so fall back to the plain iteration rows.
    """
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") != "aggregate":
            continue
        if row.get("aggregate_name") != "median":
            continue
        base = row["name"]
        suffix = "_median"
        if base.endswith(suffix):
            base = base[: -len(suffix)]
        out[base] = (float(row["real_time"]), row.get("time_unit", "ns"))
    if not out:
        for row in doc.get("benchmarks", []):
            if row.get("run_type", "iteration") != "iteration":
                continue
            out[row["name"]] = (float(row["real_time"]),
                                row.get("time_unit", "ns"))
    return out, doc.get("context", {})


def fmt_time(value, unit):
    return f"{value:,.0f} {unit}"


def trace_overhead(rows):
    """Pair BM_BulkReadZeroCopy with BM_BulkReadZeroCopyTraced by size.

    Returns [(size_bytes, traced_time / untraced_time), ...] — the
    multiplicative cost of running with HVAC_TRACE=1. The *untraced*
    series is separately held to the baseline by the regular regression
    table above (a disabled tracer must stay within noise of the
    pre-tracing baseline).
    """
    plain, traced = {}, {}
    for name, (t, _unit) in rows.items():
        m = re.match(r"BM_BulkReadZeroCopy(Traced)?/(\d+)", name)
        if not m:
            continue
        (traced if m.group(1) else plain)[int(m.group(2))] = t
    return [(size, traced[size] / plain[size])
            for size in sorted(set(plain) & set(traced))
            if plain[size] > 0]


def telemetry_overhead(rows):
    """Pair BM_BulkReadZeroCopy with BM_BulkReadZeroCopyTelemetry by size.

    Returns [(size_bytes, telemetry_time / plain_time), ...] — the
    multiplicative cost of running with the telemetry plane on (the
    collector ticking at 100 ms, the OpenMetrics endpoint scraped every
    200 ms plus a kTimeSeries ring encode per scrape). The tax bar is
    tighter than tracing's because the plane does nothing per-request:
    5% instead of 10%.
    """
    plain, telemetry = {}, {}
    for name, (t, _unit) in rows.items():
        m = re.match(r"BM_BulkReadZeroCopy(Telemetry)?/(\d+)", name)
        if not m:
            continue
        (telemetry if m.group(1) else plain)[int(m.group(2))] = t
    return [(size, telemetry[size] / plain[size])
            for size in sorted(set(plain) & set(telemetry))
            if plain[size] > 0]


def packed_ratios(rows):
    """Pair BM_SmallFileReads with BM_PackedSmallReads by sample size.

    Returns [(size_bytes, perfile_time / packed_time), ...] — a ratio
    above 1.0 means the packed-container read path beats the per-file
    open/read/close ladder. ISSUE: the packed path exists to amortise
    per-file opens, so it should be at least 2x at small sizes.
    """
    perfile, packed = {}, {}
    for name, (t, _unit) in rows.items():
        m = re.match(r"BM_SmallFileReads/bytes:(\d+)", name)
        if m:
            perfile[int(m.group(1))] = t
            continue
        m = re.match(r"BM_PackedSmallReads/bytes:(\d+)", name)
        if m:
            packed[int(m.group(1))] = t
    return [(size, perfile[size] / packed[size])
            for size in sorted(set(perfile) & set(packed))
            if packed[size] > 0]


def inline_ratios(rows):
    """Pair BM_SmallFileReadsInline with BM_PackedSmallReads by size.

    Returns [(size_bytes, inline_time / packed_time), ...]. Both are
    one round trip per sample (the stateless kOpen carries the bytes;
    the packed path reads by path), so the ratio should sit near 1.0.
    """
    inline, packed = {}, {}
    for name, (t, _unit) in rows.items():
        m = re.match(r"BM_SmallFileReadsInline/bytes:(\d+)", name)
        if m:
            inline[int(m.group(1))] = t
            continue
        m = re.match(r"BM_PackedSmallReads/bytes:(\d+)", name)
        if m:
            packed[int(m.group(1))] = t
    return [(size, inline[size] / packed[size])
            for size in sorted(set(inline) & set(packed))
            if packed[size] > 0]


def epoch_prefetch_ratios(rows):
    """Pair the BM_EpochRead* cold-epoch medians.

    Returns {"readahead": t, "demand": t, "clairvoyant": t} for the
    variants present. The clairvoyant scheduler overlaps planned PFS
    fetches with foreground reads, so it should finish a cold epoch at
    least 1.5x faster than sequential read-ahead (which cannot cross
    file boundaries).
    """
    times = {}
    for name, (t, _unit) in rows.items():
        m = re.match(r"BM_EpochRead(Demand|ReadAhead|Clairvoyant)"
                     r"(?:/real_time)?$", name)
        if m:
            times[m.group(1).lower()] = t
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="regression threshold as a fraction (0.15 = 15%%)")
    parser.add_argument("--report", help="also write a markdown diff here")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when regressions exceed the threshold")
    args = parser.parse_args()

    base, base_ctx = load_medians(args.baseline)
    curr, curr_ctx = load_medians(args.current)

    lines = []
    lines.append("| benchmark | baseline | current | delta |")
    lines.append("|---|---:|---:|---:|")
    regressions = []
    improvements = []
    for name in sorted(base):
        if name not in curr:
            lines.append(f"| {name} | {fmt_time(*base[name])} | (missing) | |")
            continue
        b, unit = base[name]
        c, _ = curr[name]
        delta = (c - b) / b if b else 0.0
        marker = ""
        if delta > args.threshold:
            marker = " ⚠"
            regressions.append((name, delta))
        elif delta < -args.threshold:
            improvements.append((name, delta))
        lines.append(f"| {name} | {fmt_time(b, unit)} | {fmt_time(c, unit)} "
                     f"| {delta:+.1%}{marker} |")
    for name in sorted(set(curr) - set(base)):
        lines.append(f"| {name} | (new) | {fmt_time(*curr[name])} | |")

    header = [
        "## micro_rpc bench comparison",
        "",
        f"baseline: `{base_ctx.get('git_sha', '?')}` ({base_ctx.get('date', '?')})"
        f" vs current: `{curr_ctx.get('git_sha', '?')}`"
        f" ({curr_ctx.get('date', '?')})",
        f"threshold: {args.threshold:.0%} on median real_time",
        "",
    ]
    footer = [""]
    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        footer.append(
            f"**{len(regressions)} possible regression(s)** "
            f"(worst: {worst[0]} {worst[1]:+.1%}). Runner noise is common; "
            "rerun locally before reading much into this.")
    else:
        footer.append("No regressions beyond the threshold.")
    if improvements:
        footer.append(f"{len(improvements)} benchmark(s) improved beyond "
                      "the threshold.")

    # Advisory tracing-tax gate: HVAC_TRACE=1 buys span trees with the
    # per-span push cost; flag it when the traced series costs more
    # than 10% over the untraced one at any payload size.
    tr = trace_overhead(curr)
    if tr:
        footer.append("")
        footer.append("### tracing overhead (current run, traced/untraced)")
        slow = []
        for size, ratio in tr:
            marker = ""
            if ratio > 1.10:
                marker = " ⚠ traced run >10% over untraced"
                slow.append((size, ratio))
            footer.append(f"- {size:,} B: HVAC_TRACE=1 costs {ratio:.3f}x "
                          f"the untraced median{marker}")
        if slow:
            footer.append(f"**tracing overhead exceeds 10% at "
                          f"{len(slow)} size(s)** — check for span sites "
                          "inside per-byte loops.")

    # Advisory telemetry-tax gate: the collector + exporter run off the
    # request path entirely, so an enabled plane must stay within 5% of
    # the plain series at every payload size.
    tm = telemetry_overhead(curr)
    if tm:
        footer.append("")
        footer.append("### telemetry overhead (current run, "
                      "enabled/disabled)")
        slow = []
        for size, ratio in tm:
            marker = ""
            if ratio > 1.05:
                marker = " ⚠ telemetry plane >5% over disabled"
                slow.append((size, ratio))
            footer.append(f"- {size:,} B: collector+exporter cost "
                          f"{ratio:.3f}x the disabled median{marker}")
        if slow:
            footer.append(f"**telemetry overhead exceeds 5% at "
                          f"{len(slow)} size(s)** — the plane must stay "
                          "off the request path; check for snapshot work "
                          "under a hot lock or scrape-driven allocation "
                          "storms.")

    # Advisory packed-format gate: reading a sample out of a packed
    # container skips the per-file open RPC, so it should beat the
    # per-file ladder by at least 2x at dataloader-sized reads.
    pk = packed_ratios(curr)
    if pk:
        footer.append("")
        footer.append("### per-file vs packed small reads (current run)")
        slow = []
        for size, ratio in pk:
            marker = ""
            if ratio < 2.0:
                marker = " ⚠ packed below 2x the per-file path"
                slow.append((size, ratio))
            footer.append(f"- {size:,} B: packed read is {ratio:.2f}x "
                          f"faster than per-file{marker}")
        if slow:
            footer.append(f"**packed speedup below the 2x advisory bar "
                          f"at {len(slow)} size(s)** — the packed path "
                          "exists to amortise per-file opens; check the "
                          "kPackedIndex/handle-cache hit path.")

    # Advisory one-RTT gate: the stateless kOpen that inlines a small
    # file costs one round trip like a packed read, so per-file samples
    # should no longer need packing to be cheap (inline ~= packed).
    il = inline_ratios(curr)
    if il:
        footer.append("")
        footer.append("### inline kOpen vs packed small reads (current run)")
        slow = []
        for size, ratio in il:
            marker = ""
            if ratio > 1.25:
                marker = " ⚠ inline above 1.25x the packed read"
                slow.append((size, ratio))
            footer.append(f"- {size:,} B: inline open costs {ratio:.2f}x "
                          f"the packed read{marker}")
        if slow:
            footer.append(f"**inline kOpen above 1.25x the packed read at "
                          f"{len(slow)} size(s)** — both are one round "
                          "trip; check that cached opens are answered on "
                          "the reactor, not through the mover.")

    # Advisory clairvoyant-prefetch gate: a planned cold epoch should
    # beat sequential read-ahead by >= 1.5x (read-ahead cannot cross
    # file boundaries, so every sample still pays the PFS fetch in
    # line; the scheduler fetches ahead of the cursor instead).
    ep = epoch_prefetch_ratios(curr)
    if "clairvoyant" in ep and ep["clairvoyant"] > 0:
        footer.append("")
        footer.append("### cold-epoch prefetch (current run)")
        flagged = False
        for variant in ("demand", "readahead"):
            if variant not in ep:
                continue
            ratio = ep[variant] / ep["clairvoyant"]
            marker = ""
            if variant == "readahead" and ratio < 1.5:
                marker = " ⚠ below the 1.5x advisory bar"
                flagged = True
            footer.append(f"- clairvoyant is {ratio:.2f}x faster than "
                          f"{variant}{marker}")
        if flagged:
            footer.append("**clairvoyant speedup below the 1.5x advisory "
                          "bar** — check the scheduler's issue window, "
                          "mover-thread count and shed re-pacing.")

    report = "\n".join(header + lines + footer) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)

    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
