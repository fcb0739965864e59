"""Self-tests of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

- a wrong expected verdict drives error_rate above 0;
- a traced pass gives the same verdicts as an untraced one, and the exact
  per-record counts come out as expected;
- after spans.install() no edgeposets module still holds an unwrapped entry
  point;
- inputs depend on the seed only, and the independently built E(B_9/G) has
  the expected size.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "quotient-biggroup"  # the cheapest workload with several verdicts


class ExpectationTest(unittest.TestCase):
    def test_wrong_expectation_counts_as_error(self):
        with open(os.path.join(HERE, "expected.json")) as fh:
            expected = json.load(fh)
        record = expected[WORKLOAD]["hyperoctahedral-4"]
        record["cct"] = not record["cct"]
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run.OUT,
                                         delete=False) as fh:
            json.dump(expected, fh)
        try:
            result, detail = run.run_workload(WORKLOAD, 5, 0, 0, expect=fh.name)
        finally:
            os.unlink(fh.name)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"] // 3)
        self.assertGreater(detail["error_rate"], 0)

    def test_traced_pass_matches_untraced(self):
        result, detail = run.run_workload(WORKLOAD, 5, 0, 1)
        self.assertTrue(result["correct"])
        self.assertEqual(detail["error_rate"], 0)
        plain, traced = detail["passes"]
        self.assertEqual([op["observed"] for op in plain["ops"]],
                         [op["observed"] for op in traced["ops"]])
        metrics = result["metrics"]
        self.assertEqual(metrics["edges.edge_poset.calls_per_record"]["value"], 6)
        self.assertEqual(metrics["cli.action_record.calls"]["value"], 3)
        self.assertIn("trace.overhead_s", metrics)


class SpanReachTest(unittest.TestCase):
    def test_no_unwrapped_entry_point_left(self):
        import spans

        import edgeposets.cli  # noqa: F401

        modules = [m for name, m in sys.modules.items()
                   if name == "edgeposets" or name.startswith("edgeposets.")]
        originals = {}
        for layer, entries in spans.LAYERS.items():
            for entry in entries:
                if "." not in entry:
                    originals[id(getattr(sys.modules[f"edgeposets.{layer}"], entry))] = entry
        held = sum(1 for m in modules for v in vars(m).values() if id(v) in originals)
        spans.install()
        left = [(m.__name__, k) for m in modules for k, v in vars(m).items()
                if id(v) in originals]
        self.assertGreater(held, len(originals))  # the CLI holds copies too
        self.assertEqual(left, [])
        from edgeposets.poset import GradedPoset

        self.assertTrue(hasattr(GradedPoset.__init__, "__wrapped__"))


class InputTest(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        def files(seed):
            with tempfile.TemporaryDirectory() as d:
                workloads.build("quotient-flow", seed, d)
                workloads.build("check-lefschetz", seed, d)
                out = {}
                for name in sorted(os.listdir(d)):
                    with open(os.path.join(d, name)) as fh:
                        out[name] = fh.read()
                return out

        a, b, c = files(1), files(1), files(2)
        self.assertEqual(a, b)
        self.assertNotEqual(a["cyclic-9.gens"], c["cyclic-9.gens"])
        self.assertNotEqual(a["eb9.json"], c["eb9.json"])
        poset = json.loads(a["eb9.json"])
        self.assertEqual(len(poset["ranks"]), 1160)

    def test_conjugation(self):
        g = [1, 2, 0, 3]  # (1 2 3)
        sigma = [3, 0, 1, 2]
        self.assertEqual(workloads.cycle_notation(workloads.conjugate(g, sigma)), "(1 2 4)")
        self.assertEqual(workloads.cycle_notation([0, 1]), "()")


if __name__ == "__main__":
    unittest.main()
