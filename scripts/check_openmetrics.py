#!/usr/bin/env python3
"""Validate an HVAC OpenMetrics scrape (and optionally the client stall dump).

Usage:
    check_openmetrics.py <url-or-file> [--out FILE] [--stats STATS_JSON]
                         [--tolerance 0.10]

Grammar checks (the subset of the OpenMetrics text format the exporter
promises):
  * every `# TYPE` line is immediately preceded by `# HELP` for the same
    family name;
  * every sample line belongs to the family declared above it (counter
    samples use the `_total` suffix, histograms `_bucket`/`_sum`/`_count`);
  * histogram `_bucket` series are cumulative (non-decreasing in le order)
    and end at le="+Inf" with a value equal to `_count`;
  * the exposition ends with `# EOF`.

The scrape must carry exactly the families `hvacctl metrics --families`
lists: the schema table's (core/metrics_schema.cc), so a row added there
is required here with no second list to edit, and a family the schema
does not know fails the check. With --stats, the client's HVAC_STATS_FILE dump is
cross-checked: the per-epoch stall buckets must sum to the shim's
wall-clock read time within --tolerance (the buckets are a partition of
each intercepted read, so anything bigger means attribution lost time).
"""
import argparse
import json
import os
import re
import subprocess
import sys
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HVACCTL = os.path.join(ROOT, "build", "src", "client", "hvacctl")

STALL_BUCKETS = ["local_hit", "remote_rpc", "pfs_wait", "backpressure",
                 "retry"]


def schema_families():
    """The families the schema table renders, from the build's hvacctl."""
    try:
        out = subprocess.run([HVACCTL, "metrics", "--families"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"cannot list the schema's families with {HVACCTL}: {e}")
    families = out.stdout.split()
    if not families:
        fail(f"{HVACCTL} listed no families")
    return families


def fetch(source):
    if source.startswith("http://") or source.startswith("https://"):
        with urllib.request.urlopen(source, timeout=10) as resp:
            ctype = resp.headers.get("Content-Type", "")
            if "application/openmetrics-text" not in ctype:
                fail(f"unexpected content type: {ctype!r}")
            return resp.read().decode("utf-8")
    with open(source, "r", encoding="utf-8") as f:
        return f.read()


def fail(msg):
    print(f"check_openmetrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def metric_name(line):
    """Family-qualified sample name: text before the first '{' or ' '."""
    m = re.match(r"([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
    return m.group(1) if m else ""


def check_grammar(text, required):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        fail("exposition does not end with '# EOF'")

    families = {}  # name -> type
    current = None  # (name, type)
    samples = {}  # name -> [line]
    for i, line in enumerate(lines[:-1]):
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                fail(f"malformed TYPE line: {line!r}")
            name, ftype = parts[2], parts[3]
            prev = lines[i - 1] if i > 0 else ""
            if not prev.startswith(f"# HELP {name} "):
                fail(f"TYPE for {name} not preceded by its HELP line")
            if name in families:
                fail(f"family {name} declared twice")
            families[name] = ftype
            current = (name, ftype)
            continue
        if line.startswith("#"):
            fail(f"unexpected comment line: {line!r}")
        if current is None:
            fail(f"sample before any family declaration: {line!r}")
        name, ftype = current
        sample = metric_name(line)
        expected = {
            "counter": (name + "_total",),
            "gauge": (name,),
            "histogram": (name + "_bucket", name + "_sum", name + "_count"),
        }.get(ftype)
        if expected is None:
            fail(f"unknown family type {ftype!r} for {name}")
        if sample not in expected:
            fail(f"sample {sample!r} does not belong to {ftype} family "
                 f"{name}")
        samples.setdefault(name, []).append(line)

    for name in required:
        if name not in families:
            fail(f"required family missing: {name}")
    for name in families:
        if name not in required:
            fail(f"family {name} is not in the schema table")

    # Histogram series: cumulative per label set, +Inf == _count.
    for name, ftype in families.items():
        if ftype != "histogram":
            continue
        series = {}  # label-key -> [(le, value)]
        counts = {}
        for line in samples.get(name, []):
            sample = metric_name(line)
            value = float(line.rsplit(" ", 1)[1])
            labels = line[len(sample):].rsplit(" ", 1)[0]
            if sample.endswith("_bucket"):
                m = re.search(r'le="([^"]*)"', labels)
                if not m:
                    fail(f"bucket sample without le label: {line!r}")
                key = re.sub(r',?le="[^"]*"', "", labels)
                series.setdefault(key, []).append((m.group(1), value))
            elif sample.endswith("_count"):
                counts[labels] = value
        for key, buckets in series.items():
            values = [v for _, v in buckets]
            if values != sorted(values):
                fail(f"{name}{key}: bucket series not cumulative")
            if buckets[-1][0] != "+Inf":
                fail(f"{name}{key}: last bucket is not le=\"+Inf\"")
            if key in counts and buckets[-1][1] != counts[key]:
                fail(f"{name}{key}: +Inf bucket {buckets[-1][1]} != "
                     f"_count {counts[key]}")

    # Stall wall time renders one sample per bucket label.
    stall = "\n".join(samples.get("hvac_stall_seconds", []))
    for bucket in STALL_BUCKETS:
        if f'bucket="{bucket}"' not in stall:
            fail(f"hvac_stall_seconds missing bucket={bucket!r}")
    return families


def check_stats(path, tolerance):
    with open(path, "r", encoding="utf-8") as f:
        stats = json.load(f)
    stall = stats.get("stall")
    if stall is None:
        fail(f"{path}: no 'stall' object in the client stats dump")
    wall = stall.get("shim_read_wall_ns", 0)
    reads = stall.get("shim_reads", 0)
    if reads == 0 or wall == 0:
        fail(f"{path}: shim saw no reads (reads={reads}, wall={wall})")
    bucket_sum = 0
    attributed_reads = 0
    for epoch in stall.get("epochs", []):
        attributed_reads += epoch.get("reads", 0)
        for key in ("local_hit_ns", "remote_rpc_ns", "pfs_wait_ns",
                    "backpressure_ns", "retry_ns"):
            bucket_sum += epoch.get(key, 0)
    if attributed_reads == 0:
        fail(f"{path}: stall epochs attribute zero reads")
    # A small absolute floor keeps sub-millisecond runs from flapping on
    # fixed per-read bookkeeping outside the attribution scope.
    slack = max(tolerance * wall, 2e6)
    if abs(wall - bucket_sum) > slack:
        fail(f"{path}: stall buckets sum to {bucket_sum} ns but the shim "
             f"measured {wall} ns wall ({abs(wall - bucket_sum)} ns apart, "
             f"allowed {slack:.0f})")
    print(f"check_openmetrics: stall attribution OK "
          f"({attributed_reads}/{reads} reads, buckets {bucket_sum} ns vs "
          f"wall {wall} ns)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("source", help="scrape URL or file")
    ap.add_argument("--out", help="also write the scrape body here")
    ap.add_argument("--stats", help="client HVAC_STATS_FILE dump to "
                                    "cross-check stall attribution")
    ap.add_argument("--tolerance", type=float, default=0.10)
    args = ap.parse_args()

    required = schema_families()
    text = fetch(args.source)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    families = check_grammar(text, required)
    print(f"check_openmetrics: grammar OK ({len(families)} families)")
    if args.stats:
        check_stats(args.stats, args.tolerance)


if __name__ == "__main__":
    main()
