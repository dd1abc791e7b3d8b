"""Self-tests of the benchmark.

    python3 bench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, that tracing
rebinds every name a module imported, that the reference clock ticks
during a pass but not in its untimed regions, and runs each workload at
the tiny smoke size through ``run.py``, plain and traced. The file is not named
``test_*`` so that the library's own test suite does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def span(id, parent, start, end, name="s"):
    return {"id": id, "parent": parent, "start": start, "end": end,
            "name": name, "run": 0}


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span(0, None, 0.0, 10.0),
            span(1, 0, 1.0, 4.0),    # child
            span(2, 1, 2.0, 3.0),    # grandchild: not subtracted from 0
            span(3, 0, 3.5, 6.0),    # child overlapping child 1 by 0.5
            span(4, 0, 9.0, 12.0),   # child running past the parent's end
            span(5, None, 20.0, 21.0),
        ]
        selfs = tracing.self_times(spans)
        # children of 0 cover [1, 6] and [9, 10]: 6 of its 10 seconds
        self.assertAlmostEqual(selfs[0], 4.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 2.5)
        self.assertAlmostEqual(selfs[4], 3.0)
        self.assertAlmostEqual(selfs[5], 1.0)

    def test_leaf_and_empty(self):
        self.assertEqual(tracing.self_times([]), {})
        self.assertAlmostEqual(tracing.self_times([span(7, None, 1.0, 1.5)])[7], 0.5)


class Rebinding(unittest.TestCase):
    def test_install_and_uninstall(self):
        import wamalgam
        import wamalgam.cli
        import wamalgam.convolution

        before = (wamalgam.convolution.amalgam_norm, wamalgam.cli.convolve,
                  wamalgam.convolve, wamalgam.SampledFunction.__dict__["sample"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(wamalgam.convolution.amalgam_norm, wamalgam.amalgam_norm)
            self.assertIsNot(wamalgam.convolution.amalgam_norm, before[0])
            self.assertIs(wamalgam.cli.convolve, wamalgam.convolution.convolve)
            self.assertIsNot(wamalgam.cli.convolve, before[1])
            grid = wamalgam.UniformGrid(wamalgam.Euclidean(1), -1.0, 1.0, 8)
            F = wamalgam.SampledFunction.sample(grid, lambda x: 1.0 + 0 * x)
            wamalgam.convolve(F, F)
        finally:
            tracer.uninstall()
        after = (wamalgam.convolution.amalgam_norm, wamalgam.cli.convolve,
                 wamalgam.convolve, wamalgam.SampledFunction.__dict__["sample"])
        self.assertTrue(all(a is b for a, b in zip(before, after)))
        totals = tracer.totals()
        self.assertEqual(totals["groups.sample"]["calls"], 1)
        self.assertEqual(totals["convolution.convolve"]["calls"], 1)
        self.assertEqual(tracer.counts["convolution.convolve.out_points"], 8)
        self.assertEqual(tracer.counts["convolution.convolve.src_points"], 8)


class Clock(unittest.TestCase):
    def test_ticks_and_untimed_regions(self):
        import worker
        import workloads

        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        class Pass:
            untimed_s = 0.0

        clock = worker.ReferenceClock()
        clock.start()
        try:
            # the sample taken before the pass is not pass time
            self.assertEqual(len(clock.samples), 1)
            self.assertEqual(clock.spent_s, 0.0)
            busy(3.2 * worker.TICK_S)
            ticked = len(clock.samples)
            self.assertGreaterEqual(ticked, 3)
            with workloads._untimed(Pass):
                busy(2.2 * worker.TICK_S)
                self.assertEqual(len(clock.samples), ticked)
            # the tick held during the region fires when it ends
            self.assertEqual(len(clock.samples), ticked + 1)
        finally:
            kernel_s = clock.stop()
        self.assertGreater(Pass.untimed_s, 2.0 * worker.TICK_S)
        self.assertGreater(clock.spent_s, 0.0)
        self.assertLessEqual(min(clock.samples), kernel_s)
        self.assertLessEqual(kernel_s, max(clock.samples))


class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--size", "tiny"],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        return result["metrics"]

    def test_workloads(self):
        for workload in ("axb-relation", "line-relations", "discretize-2d"):
            with self.subTest(workload=workload):
                plain = self.run_bench(workload, 0)
                self.assertGreater(plain["wall_ref"]["value"], 0)
                self.assertEqual(plain["ok_frac"]["value"], 1.0)
                traced = self.run_bench(workload, 1)
                convolutions = traced["convolution.convolve.calls"]["value"]
                if workload == "discretize-2d":
                    self.assertEqual(convolutions, 0)
                    self.assertGreater(
                        traced["discretization.build_bupu.support_entries"]["value"], 0)
                else:
                    self.assertGreater(convolutions, 0)
                    self.assertGreater(traced["cli.finalize_report.bytes"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
