#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at reduced sizes.

    python3 perfbench/selftest.py

Covers a passing run, a deliberately failing check, the wall-clock cap, the
host-speed samples taken during a call, a missing entry point in the traced
run, and exact counts that repeat.
Takes a few seconds; it times nothing that matters.
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import time
import types
import unittest

import run
import speed

pc = run.import_program()
import pcodelay.cli  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, network, returnmap_config  # noqa: E402

SMALL_CONFIGS = {
    "collapse-n1000": lambda s: network(s, 20, horizon=20.0),
    "transient-n10k": lambda s: network(s, 200, horizon=0.5),
    "trials-n100": lambda s: network(s, 20, horizon=5.0),
    "returnmap-n100": lambda s: returnmap_config(s, 300, 100),
}


def small(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], make_config=SMALL_CONFIGS[name], **changes)


def bench(workload, tracing_module=tracing, **kwargs):
    return run.Bench(pcodelay.cli, tracing_module, workload, seed=7, **kwargs)


class EndToEnd(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                b = bench(small(name))
                metrics, records, runs = b.end_to_end(seconds=0.05, setup_reps=1)
                self.assertEqual(b.failed, 0, b.problems)
                self.assertGreaterEqual(b.attempted, 3)
                self.assertEqual(
                    set(metrics), {"setup_s", "run_s", "work_per_s", "peak_rss_mb"}
                )
                self.assertTrue(all(v > 0 for v, _ in metrics.values()))
                self.assertEqual(len(records), b.workload.instances)

    def test_broken_invariant_is_counted_as_failed(self):
        # Far above the saturation bound the network synchronizes, which the
        # collapse check must catch on every call.
        def saturated(seed):
            config = network(seed, 20, horizon=20.0)
            config["epsilon"] = 0.05
            return config

        b = bench(dataclasses.replace(WORKLOADS["collapse-n1000"], make_config=saturated))
        b.end_to_end(seconds=0.05, setup_reps=1)
        self.assertEqual(b.failed, b.attempted)
        self.assertTrue(any("sync_ever" in p for p in b.problems), b.problems)

    def test_call_past_the_cap_fails_instead_of_hanging(self):
        b = bench(WORKLOADS["collapse-n1000"], call_cap_s=0.05)
        call = b.call(b.instances[0])
        self.assertEqual(b.failed, 1)
        self.assertIn("wall-clock cap", call.problems[0])


class HostSpeed(unittest.TestCase):
    def test_samples_are_taken_during_a_call_and_taken_out_of_its_time(self):
        b = bench(WORKLOADS["returnmap-n100"])
        inst = b.instances[0]
        t0 = time.perf_counter()
        call = b.call(inst, sampler=speed.Sampler(b.workload.reference))
        gross = time.perf_counter() - t0
        self.assertEqual(b.failed, 0, b.problems)
        self.assertGreater(len(call.samples), 5)
        self.assertLess(0, call.wall_s)
        self.assertLess(call.wall_s + sum(call.samples), gross)
        self.assertIs(signal.getsignal(signal.SIGPROF), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertEqual(b.call(inst).samples, [])

    def test_scale_is_identity_at_nominal_speed(self):
        ref = WORKLOADS["trials-n100"].reference
        self.assertAlmostEqual(ref.scale(2.0, [speed.NOMINAL_S] * 3), 2.0)
        self.assertAlmostEqual(ref.scale(2.0, [2 * speed.NOMINAL_S]), 1.0)


class PerLayer(unittest.TestCase):
    def test_exact_counts_repeat(self):
        b = bench(small("collapse-n1000"))
        metrics, _, runs = b.per_layer(seconds=0.05)
        self.assertEqual(b.failed, 0, b.problems)
        self.assertGreaterEqual(runs["traced_calls"], 2)
        self.assertEqual(runs["absent_metrics"], [])
        self.assertEqual(metrics["engine.events"][0], metrics["kernel.calls"][0])
        self.assertGreater(metrics["analysis.sync_check_calls"][0], 0)
        self.assertIn("trace.overhead_ratio", metrics)

    def test_missing_entry_point_is_reported_absent(self):
        points = tuple(
            (name, "pcodelay._deleted_module", attr) if name == tracing.KERNEL
            else (name, module, attr)
            for name, module, attr in tracing.ENTRY_POINTS
        )
        patched = types.SimpleNamespace(**vars(tracing))
        patched.ENTRY_POINTS = points
        b = bench(small("trials-n100"), tracing_module=patched)
        metrics, _, runs = b.per_layer(seconds=0.05)
        self.assertEqual(b.failed, 0, b.problems)
        kernel_metrics = [m.name for m in tracing.LAYER_METRICS if tracing.KERNEL in m.needs]
        self.assertEqual(sorted(runs["absent_metrics"]), sorted(kernel_metrics))
        self.assertGreater(metrics["engine.events"][0], 0)


if __name__ == "__main__":
    sys.exit(unittest.main())
