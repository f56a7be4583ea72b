#!/usr/bin/env python3
"""Tests of the live benchmark itself, on the smoke-sized workloads.

    python3 perfbench/test_perfbench.py

Checks that every workload passes its correctness gate and prints every
metric BENCHMARK.json names (end-to-end and traced), that the exact
counts repeat for one seed and the access order changes with the seed,
that a run fails when HVAC does not serve the shim's reads, and that
the benchmark refuses to run without the repository's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("warm_small", "warm_packed", "cold_pfs", "seq_ckpt")

# Counts that must repeat exactly for one seed, per workload. Read-ahead
# and prefetch RPCs depend on timing and are printed but not compared.
EXACT = {
    "warm_small": ["open", "read", "close", "server_hits", "server_misses"],
    "warm_packed": ["server_misses"],
    "cold_pfs": ["open", "read", "close", "server_misses",
                 "pfs_metadata_ops", "pfs_bytes_read"],
    "seq_ckpt": ["open", "read", "close", "write_open", "write", "fsync",
                 "write_close", "server_hits", "server_misses"],
}


def run(workload, seed=1, trace=0, cwd=ROOT, script=RUN, fault=None):
    cmd = [sys.executable, script, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    if fault:
        cmd += ["--fault", fault]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def counts(lines):
    for line in lines:
        if line.startswith("counts "):
            c = json.loads(line[len("counts "):])
            c.update(c.pop("rpcs"))
            return c
    raise AssertionError("no counts line")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, res, listed):
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def test_end_to_end_all_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines = run(w)
                self.assertEqual(rc, 0, lines[-3:])
                res = result(lines)
                self.check_metrics(res, self.spec["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_all_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, lines = run(w, trace=1)
                self.assertEqual(rc, 0, lines[-3:])
                self.check_metrics(result(lines), self.spec["per_layer"])

    def test_counts_repeat_for_one_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = counts(run(w, seed=5)[1])
                b = counts(run(w, seed=5)[1])
                for key in ["manifest_digest", "order_digest", "samples"] + EXACT[w]:
                    self.assertEqual(a.get(key), b.get(key), key)

    def test_order_changes_with_seed(self):
        a = counts(run("warm_small", seed=1)[1])
        b = counts(run("warm_small", seed=2)[1])
        self.assertNotEqual(a["order_digest"], b["order_digest"])
        self.assertNotEqual(a["manifest_digest"], b["manifest_digest"])

    def test_fails_when_hvac_does_not_serve(self):
        # The shim talks to a stopped server. With the PFS fallback off
        # the opens fail; with it on the bytes are right, but the epoch
        # was not served by HVAC. Both must fail the run.
        for fault in ("stopped-server", "pfs-fallback"):
            with self.subTest(fault=fault):
                rc, lines = run("warm_small", fault=fault)
                self.assertNotEqual(rc, 0)
                res = result(lines)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_run", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            rc, lines = run("warm_small", cwd=bare,
                            script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
