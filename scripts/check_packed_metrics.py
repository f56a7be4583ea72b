#!/usr/bin/env python3
"""Assert the packed-read invariants from `hvacctl metrics --json`.

    scripts/check_packed_metrics.py METRICS.json --containers N \
        [--manifest MANIFEST.txt]

Run after the packed smoke leg in scripts/check.sh: a packed dataset
read end-to-end through the shim must never touch the per-file open
RPC (the client resolves samples from the one-shot kPackedIndex
fetch), and the server must open each container blob at most once
(every later read is served by its store entry's fd). With the gentree
manifest ("<path> <size> <fnv64>" lines) it also bounds the read RPCs:
a sample of at most 64 KiB is fetched whole by its first read, so it
costs one kReadScatter; a larger one, read in 8 KiB pieces, at most
one per piece.

Checks, against the `aggregate` frame:
  * latency_us.open.count == 0        (missing key counts as 0)
  * latency_us.packed_index.count >= 1
  * handle_cache.misses <= --containers
  * handle_cache.hits > 0
  * latency_us.read_scatter.count <= the manifest's bound (--manifest)

Exit 0 when every invariant holds, 1 otherwise (this one IS a hard
gate — these are correctness properties of the protocol, not timing).
"""

import argparse
import json
import sys

MAX_INLINE_BYTES = 64 << 10  # proto::kMaxInlineBytes
READ_BYTES = 8 << 10         # intercept_target's read() size


def op_count(frame, op):
    return int(frame.get("latency_us", {}).get(op, {}).get("count", 0))


def scatter_bound(manifest_path):
    """One scatter per small sample, one per 8 KiB piece of a large one."""
    bound = 0
    samples = 0
    with open(manifest_path) as f:
        for line in f:
            fields = line.split()
            if not fields:
                continue
            size = int(fields[1])
            samples += 1
            if size <= MAX_INLINE_BYTES:
                bound += 1
            else:
                bound += -(-size // READ_BYTES)
    return samples, bound


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("metrics", help="output of hvacctl metrics --json")
    parser.add_argument("--containers", type=int, required=True,
                        help="number of container blobs in the packed set")
    parser.add_argument("--manifest",
                        help="hvacctl gentree manifest of the samples read")
    args = parser.parse_args()

    with open(args.metrics) as f:
        doc = json.load(f)
    frame = doc.get("aggregate", doc)
    hc = frame.get("handle_cache", {})

    opens = op_count(frame, "open")
    index_fetches = op_count(frame, "packed_index")
    misses = int(hc.get("misses", 0))
    hits = int(hc.get("hits", 0))
    scatters = op_count(frame, "read_scatter")

    failures = []
    if opens != 0:
        failures.append(
            f"saw {opens} per-file open RPC(s); the packed path must "
            "resolve every sample client-side")
    if index_fetches < 1:
        failures.append("no kPackedIndex fetch recorded — the client "
                        "never loaded the packed index")
    if misses > args.containers:
        failures.append(
            f"{misses} handle-cache miss(es) for {args.containers} "
            "container(s); each container should be opened at most once")
    if hits <= 0:
        failures.append("no handle-cache hits — container fds are not "
                        "being reused across sample reads")

    if args.manifest:
        samples, bound = scatter_bound(args.manifest)
        if scatters > bound:
            failures.append(
                f"{scatters} read_scatter RPC(s) for {samples} sample(s); "
                f"at most {bound} allowed (one per sample of <= 64 KiB)")

    print(f"packed metrics: open={opens} packed_index={index_fetches} "
          f"read_scatter={scatters} handle_cache={hits}h/{misses}m "
          f"(containers={args.containers})")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("packed invariants hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
