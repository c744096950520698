#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root.  Each test runs the benchmark in-process with
``tiny=True`` and zero seconds (one pass), so the whole file takes seconds.
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quiet(*_args):
    pass


def _tiny(name: str, trace: bool = False) -> dict:
    return run.run(name, 7, 0, trace, tiny=True, log=_quiet)


class Metrics(unittest.TestCase):
    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.NAMES))

    def test_every_named_metric_appears_for_every_workload(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            spec = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in workloads.NAMES:
                with self.subTest(workload=name, trace=trace):
                    result = _tiny(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, spec)
                    json.dumps(result, allow_nan=False)


class Failures(unittest.TestCase):
    """A wrong or failed op is counted as failed and never dropped."""

    def _with_last_input_corrupted(self, name: str, corrupt) -> dict:
        build = workloads.build

        def corrupting_build(*args, **kwargs):
            wl = build(*args, **kwargs)
            op, last = wl.op, wl.inputs[-1]  # the last input is never a warm-up input
            wl.op = lambda inp: corrupt(op(inp)) if inp is last else op(inp)
            return wl

        workloads.build = corrupting_build
        try:
            return _tiny(name)
        finally:
            workloads.build = build

    def _assert_one_failure(self, name: str, corrupt):
        result = self._with_last_input_corrupted(name, corrupt)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], _tiny(name)["attempted"])

    def test_wrong_zp_point_is_counted(self):
        def add_point(output):
            code, text = output
            payload = json.loads(text)
            payload["points"].append({"coords": ["1/7", "1/7", "1/7"], "exponents": [-1, -1, -1]})
            return code, json.dumps(payload)
        self._assert_one_failure("zp-enumerate", add_point)

    def test_wrong_step_count_is_counted(self):
        def bump_steps(output):
            code, text = output
            payload = json.loads(text)
            payload["steps"] += 1
            return code, json.dumps(payload)
        self._assert_one_failure("reduce-deep", bump_steps)

    def test_nonzero_exit_is_counted(self):
        self._assert_one_failure(
            "pingpong-tower", lambda output: (2, output[1]) if isinstance(output, tuple) else False)

    def test_raising_op_is_counted(self):
        def boom(_report):
            raise ArithmeticError("injected")
        self._assert_one_failure("classify-sweep", boom)

    def test_failed_ops_do_not_count_as_completed(self):
        wl = workloads.Workload([1, 2, 3, 4], [], None, None)
        measured = {"by_input": [[0.001, 0.001]] * 4, "passes": 2, "results": [None] * 8}
        values = run.end_to_end(wl, 0.5, measured, failed=[0, 5])
        self.assertAlmostEqual(values["ops_per_s"], 750.0)
        self.assertAlmostEqual(values["op_p50_ms"], 1.0)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        tm = run.import_program()
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                first = repr(workloads.build(name, tm, 5).inputs)
                self.assertEqual(first, repr(workloads.build(name, tm, 5).inputs))
                if name != "pingpong-tower":  # its seed sets only the order of each pass
                    self.assertNotEqual(first, repr(workloads.build(name, tm, 6).inputs))

    def test_zp_oracle_matches_the_enumerator(self):
        tm = run.import_program()
        for p, D in ((7, Fraction(2, 49)), (2, Fraction(5, 256)), (3, Fraction(4, 27)),
                     (5, Fraction(3, 25))):
            with self.subTest(p=p, D=D):
                expected = {z.coords for z in tm.arithmetic.enumerate_zp_points(p, D)}
                self.assertEqual(workloads.zp_oracle(p, D), expected)
        self.assertEqual(len(workloads.zp_oracle(2, Fraction(5, 256))), 24)


class Checkout(unittest.TestCase):
    def test_fails_without_the_package(self):
        src = run.SRC
        run.SRC = HERE / "no-such-directory"
        try:
            code = run.main(["--workload", "zp-enumerate", "--seed", "1", "--seconds", "1"])
        finally:
            run.SRC = src
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
