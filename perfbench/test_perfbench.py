#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary through run.py, then checks the benchmark's
contract: metric names and units agree between BENCHMARK.json and the
binary, the same seed gives the same inputs, span self time is never
negative, the allocation counter counts exactly, a short traced run
replays its untraced outputs unchanged, and runs of a fixed item count
cross cosim's epoch check and fault_campaign's campaign merge.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build entry point)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def perfbench(*args):
    done = subprocess.run([run.BINARY, *args, "--root", run.ROOT],
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_metric_names_match_the_binary(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        for w in self.spec["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        rc, out = perfbench("--list-metrics")
        self.assertEqual(rc, 0)
        listed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        for kind in listed:
            self.assertEqual(listed[kind],
                             [(m["name"], m["unit"]) for m in self.spec[kind]])
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")

    def test_same_seed_gives_same_inputs(self):
        for workload in run.WORKLOADS:
            digests = []
            for seed in ("5", "5", "6"):
                rc, out = perfbench("--input-digest", "400", "--workload",
                                    workload, "--seed", seed)
                self.assertEqual(rc, 0, workload)
                digests.append(out.strip())
            self.assertEqual(digests[0], digests[1], workload)
            self.assertNotEqual(digests[0], digests[2], workload)

    def test_self_test(self):
        rc, out = perfbench("--self-test")
        self.assertEqual(rc, 0, out)

    def test_traced_run_is_neutral_and_self_time_non_negative(self):
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        for workload in run.WORKLOADS:
            rc, out = perfbench("--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", "1")
            self.assertEqual(rc, 0, workload)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertEqual(list(result["metrics"]), per_layer)
            ledger = [l for l in lines if l.startswith("ledger-json ")]
            self.assertEqual(len(ledger), 1, workload)
            spans = json.loads(ledger[0][len("ledger-json "):])
            self.assertIn("item", spans)
            for name, s in spans.items():
                self.assertGreaterEqual(s["min_self_ns"], 0, (workload, name))
                self.assertLessEqual(s["self_ns"], s["incl_ns"], (workload, name))

    def test_fixed_item_runs_cross_the_repeat_checks(self):
        # cosim checks every epoch after the first (60 simulated seconds)
        # against the first; fault_campaign merges and checks a campaign
        # after its 256th job. Both need more items than a 1 s run makes.
        for workload, items in (("cosim", 70), ("fault_campaign", 300)):
            rc, out = perfbench("--workload", workload, "--seed", "4",
                                "--items", str(items), "--trace", "0")
            self.assertEqual(rc, 0, workload)
            lines = out.strip().splitlines()
            self.assertIn(f"{items} items in", lines[0], workload)
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["attempted"], items, workload)
            self.assertEqual(result["failed"], 0, workload)

    def test_untraced_run_prints_end_to_end_metrics(self):
        rc, out = perfbench("--workload", "cosim", "--seed", "2",
                            "--seconds", "1", "--trace", "0")
        self.assertEqual(rc, 0)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in self.spec["end_to_end"]])
        for m in self.spec["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])


if __name__ == "__main__":
    unittest.main()
