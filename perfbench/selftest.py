"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at its tiny size, untraced and traced, and checks
that the result line names every metric of BENCHMARK.json with its unit.
Then it makes each workload's expected value wrong on purpose and checks
that the repetitions are counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def result_of(name: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--tiny", "--seconds", "0.1",
                         "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{name}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def wrong_expectation(name: str):
    """Make one workload's expected value wrong for the duration."""
    if name == "fanout":
        owner, attr = workloads, "fanout_expected_exit"

        def replacement(used):
            return -1
    elif name == "presto":
        owner, attr = workloads.PrestoApp, "expected_total"

        def replacement(self):
            return -1
    elif name == "rwho":
        owner, attr = workloads.Rwho, "oracle"

        def replacement(self):
            return {node: "" for node in self.readers}
    else:
        owner, attr = workloads.Build, "__init__"
        original_init = workloads.Build.__init__

        def replacement(self, seed, tiny=False):
            original_init(self, seed, tiny)
            self.expected_exit += 1
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class SelfTest(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for workload in SPEC["workloads"]:
                name = workload["name"]
                with self.subTest(workload=name, trace=trace):
                    result = result_of(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    for metric in SPEC[key]:
                        got = result["metrics"][metric["name"]]
                        self.assertEqual(got["unit"], metric["unit"])
                        self.assertIsInstance(got["value"], (int, float))

    def test_wrong_expected_value_fails_the_repetitions(self):
        for workload in SPEC["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name), wrong_expectation(name):
                result = result_of(name, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
