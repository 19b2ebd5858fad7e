#!/usr/bin/env python3
"""Self-test of the benchmark itself:  python3 perfbench/selftest.py

* a tiny-size run of every workload, untraced and traced, prints every
  named metric with its unit, and nothing fails;
* a wrong expectation planted on the test side is counted as a failure and
  fails the command;
* the span self-time arithmetic on a hand-built span list;
* BENCHMARK.json names exactly the metrics, units and bounds run.py has;
* the ledger diff accepts a record against itself and flags a changed
  deterministic counter.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import diff  # noqa: E402
import run  # noqa: E402


def run_tiny(workload, trace=0, extra=(), out=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"] + list(extra)
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class SpanArithmetic(unittest.TestCase):
    EVENTS = [
        {"ph": "B", "tid": 1, "ts": 0, "name": "outer"},
        {"ph": "B", "tid": 2, "ts": 5, "name": "worker"},
        {"ph": "B", "tid": 1, "ts": 10, "name": "child"},
        {"ph": "B", "tid": 1, "ts": 12, "name": "leaf"},
        {"ph": "E", "tid": 1, "ts": 18},
        {"ph": "i", "tid": 1, "ts": 19, "name": "tick"},
        {"ph": "E", "tid": 1, "ts": 30},
        {"ph": "E", "tid": 2, "ts": 25},
        {"ph": "B", "tid": 1, "ts": 40, "name": "child"},
        {"ph": "E", "tid": 1, "ts": 50},
        {"ph": "E", "tid": 1, "ts": 100},
    ]

    def test_self_time_subtracts_direct_children_on_the_same_thread(self):
        t = run.span_table(self.EVENTS)
        us = 1e-6
        self.assertEqual(t["outer"]["count"], 1)
        self.assertAlmostEqual(t["outer"]["total_s"], 100 * us)
        # 100 minus the two direct children (20 + 10); the worker span on
        # another thread and the grandchild do not count.
        self.assertAlmostEqual(t["outer"]["self_s"], 70 * us)
        self.assertEqual(t["child"]["count"], 2)
        self.assertAlmostEqual(t["child"]["total_s"], 30 * us)
        self.assertAlmostEqual(t["child"]["self_s"], 24 * us)
        self.assertAlmostEqual(t["leaf"]["self_s"], 6 * us)
        self.assertAlmostEqual(t["worker"]["self_s"], 20 * us)
        self.assertNotIn("tick", t)

    def test_window_keeps_only_spans_inside_it(self):
        self.assertEqual(run.span_window(self.EVENTS, "child"), (10.0, 30.0))
        t = run.span_table(self.EVENTS, window=(10.0, 30.0))
        self.assertEqual(sorted(t), ["child", "leaf"])
        self.assertAlmostEqual(t["child"]["self_s"], 14e-6)

    def test_unbalanced_trace_is_rejected(self):
        with self.assertRaises(ValueError):
            run.span_table(self.EVENTS[:3])
        with self.assertRaises(ValueError):
            run.span_table([{"ph": "E", "tid": 1, "ts": 1}])


class BenchmarkJson(unittest.TestCase):
    def test_matches_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(layer, run.PER_LAYER)
        bounds = [b for _, _, b in run.END_TO_END.values()]
        self.assertEqual(run.END_TO_END["setup_s"][2], max(bounds))


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        code, result = run_tiny(workload, trace)
        self.assertEqual(code, 0, result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(result["metrics"]), set(wanted))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], wanted[name][0], name)
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        if not trace:
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
        return result

    def test_roads(self):
        self.check("roads-overlap-join", 0)
        layer = self.check("roads-overlap-join", 1)["metrics"]
        # C-Rep enumerates tuples it then discards; C-Rep-L mostly not.
        self.assertLess(layer["core.dedup_owned_ratio.crep"]["value"],
                        layer["core.dedup_owned_ratio.crepl"]["value"])
        for name in layer:
            if name.startswith("mapreduce.spill_"):
                self.assertEqual(layer[name]["value"], 0, name)

    def test_sparse(self):
        self.check("sparse-spill-shuffle", 0)
        layer = self.check("sparse-spill-shuffle", 1)["metrics"]
        self.assertGreater(layer["mapreduce.spill_runs.crep"]["value"], 0)

    def test_mix(self):
        self.check("catalog-service-mix", 0)
        layer = self.check("catalog-service-mix", 1)["metrics"]
        self.assertGreater(layer["core.catalog_hit_rate"]["value"], 0)
        self.assertGreater(layer["queries.knn_s"]["value"], 0)


class WrongExpectation(unittest.TestCase):
    def test_bad_result_is_counted_and_fails_the_command(self):
        for workload in ("roads-overlap-join", "catalog-service-mix"):
            code, result = run_tiny(workload, 0, ["--wrong-expectation"])
            self.assertNotEqual(code, 0, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertLess(result["metrics"]["ok_frac"]["value"], 1, workload)


class LedgerDiff(unittest.TestCase):
    def test_self_diff_passes_and_changed_counter_fails(self):
        tmp = run.build_dir() / "selftest"
        tmp.mkdir(parents=True, exist_ok=True)
        a = tmp / "a.json"
        code, _ = run_tiny("sparse-spill-shuffle", 0, out=a)
        self.assertEqual(code, 0)
        self.assertEqual(diff.main([str(a), "--vs", str(a)]), 0)
        record = json.loads(a.read_text())
        record["per_layer"]["core.output_tuples.crep"] += 1
        b = tmp / "b.json"
        b.write_text(json.dumps(record))
        self.assertEqual(diff.main([str(a), "--vs", str(b)]), 1)
        self.assertEqual(diff.main([str(a), "--vs", str(b), "--allow",
                                    "core.output_tuples.crep"]), 0)
        record["stamp"]["isa"] = "other"
        b.write_text(json.dumps(record))
        self.assertEqual(diff.main([str(a), "--vs", str(b)]), 2)


if __name__ == "__main__":
    unittest.main()
