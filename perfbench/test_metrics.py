"""Tests of the benchmark's metric arithmetic and output check.

    python3 -m unittest discover -s perfbench
"""

import json
import tempfile
import unittest
from pathlib import Path

import metrics as m
import run


def span(name, start, end, parent=None, cell=None):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "cell": cell}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            span("scenario.cell", 0, 100, cell=0),
            span("sim.run_for", 10, 30, parent=0, cell=0),
            span("core.queue_report", 20, 50, parent=0, cell=0),
        ]
        own = m.self_times(spans)
        # The children cover 10..50 of the parent: 40 of its 100.
        self.assertEqual(own["scenario"], 60)
        self.assertEqual(own["sim"], 20)
        self.assertEqual(own["core"], 30)

    def test_grandchildren_count_against_their_own_parent_only(self):
        spans = [
            span("scenario.cell", 0, 100),
            span("workloads.instantiate", 0, 40, parent=0),
            span("sim.run_for", 5, 15, parent=1),
        ]
        own = m.self_times(spans)
        self.assertEqual(own, {"scenario": 60, "workloads": 30, "sim": 10})

    def test_a_child_outlasting_its_parent_is_clipped(self):
        spans = [span("cache.put", 0, 10), span("sim.run_for", 5, 20, parent=0)]
        self.assertEqual(m.self_times(spans)["cache"], 5)

    def test_layers_sum_across_cells(self):
        spans = [span("fluid.evaluate", 0, 7, cell=0), span("fluid.evaluate", 3, 8, cell=1)]
        self.assertEqual(m.self_times(spans), {"fluid": 12})


class BusyFrac(unittest.TestCase):
    def test_full_and_half_busy_workers(self):
        self.assertEqual(m.busy_frac([1.0, 1.0, 1.0, 1.0], 2.0, 2), 1.0)
        self.assertEqual(m.busy_frac([1.0, 1.0], 2.0, 2), 0.5)

    def test_a_straggler_leaves_the_other_worker_idle(self):
        # One 3 s cell and one 1 s cell on two workers: 4 of 6 worker-seconds.
        self.assertAlmostEqual(m.busy_frac([3.0, 1.0], 3.0, 2), 4 / 6)


def artifact(points):
    return {"points": [dict(marking=mk, flows=n, seed=s, queue_std=v) for mk, n, s, v in points]}


class DtRatio(unittest.TestCase):
    def test_reads_the_largest_flow_count(self):
        a = artifact([("dctcp", 8, 1, 7.0), ("dctcp", 128, 1, 25.0),
                      ("dt-dctcp", 8, 1, 1.0), ("dt-dctcp", 128, 1, 20.0)])
        self.assertEqual(m.dt_ratio(a, "queue_std"), 0.8)

    def test_averages_seeds_before_dividing(self):
        a = artifact([("dctcp", 16, 1, 10.0), ("dctcp", 16, 2, 30.0),
                      ("dt-dctcp", 16, 1, 5.0), ("dt-dctcp", 16, 2, 15.0)])
        self.assertEqual(m.dt_ratio(a, "queue_std"), 0.5)

    def test_a_missing_marking_is_an_error(self):
        with self.assertRaises(ValueError):
            m.dt_ratio(artifact([("dctcp", 8, 1, 1.0)]), "queue_std")


class FailedFrac(unittest.TestCase):
    def test_quarantined_over_attempted(self):
        self.assertEqual(m.failed_frac(0, 18), 0.0)
        self.assertEqual(m.failed_frac(3, 12), 0.25)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            m.failed_frac(0, 0)


class Central(unittest.TestCase):
    def test_few_samples_give_the_median(self):
        self.assertEqual(m.central([5.0]), 5.0)
        self.assertEqual(m.central([1.0, 3.0]), 2.0)
        self.assertEqual(m.central([9.0, 1.0, 2.0]), 2.0)
        self.assertEqual(m.central([1.0, 2.0, 4.0, 100.0]), 3.0)
        self.assertEqual(m.central([100.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 3.5)

    def test_many_samples_give_the_interquartile_mean(self):
        xs = [0.0] * 2 + [29.0] * 5 + [34.0] * 3 + [1000.0] * 2
        # Drops three from each end, keeping 29 x 4 and 34 x 2.
        self.assertAlmostEqual(m.central(xs), (4 * 29 + 2 * 34) / 6)


class Counters(unittest.TestCase):
    cells = [
        {"counts": {"sim.events": 10, "tcp.timeouts": 1}, "absent": ["tcp.ecn_cuts"]},
        {"counts": {"sim.events": 5}, "absent": []},
    ]

    def test_reported_counts_combine_over_cells(self):
        self.assertEqual(m.counter(self.cells, "sim.events"), 15)
        self.assertEqual(m.counter(self.cells, "sim.events", max), 10)

    def test_absent_is_not_zero_and_idle_is_zero(self):
        self.assertEqual(m.counter(self.cells, "tcp.ecn_cuts"), m.ABSENT)
        self.assertEqual(m.counter(self.cells, "fluid.steps"), 0.0)
        self.assertEqual(m.ratio(m.ABSENT, 3), m.ABSENT)
        self.assertEqual(m.ratio(4, 0), 0.0)


class OutputCheck(unittest.TestCase):
    """The digest check bites: another seed's artifact is a mismatch."""

    def phases(self, tmp, body, started=10, completed=9, aborted=0, in_flight=1):
        path = Path(tmp) / "artifact.json"
        path.write_text(body)
        counts = {"churn.flows_started": started, "churn.flows_completed": completed,
                  "churn.aborted": aborted, "churn.in_flight": in_flight}
        return {
            "cold": {"violations": [], "quarantined": 0, "hits": 0, "identical": True,
                     "warm_hits": 2, "cells": 2, "artifact": str(path)},
            "replay": {"artifact": str(path), "violations": [],
                       "cells": [{"marking": "dctcp", "seed": 2, "counts": counts, "absent": []}]},
        }

    def test_non_default_seed_against_the_default_digest_is_a_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            r = self.phases(tmp, '{"points": [], "seed": 2}\n')
            self.assertEqual(run.check("fct_churn", 2, r, force_digest=False), [])
            fails = run.check("fct_churn", 2, r, force_digest=True)
            self.assertEqual(len(fails), 1)
            self.assertIn("digest mismatch", fails[0])

    def test_the_default_seed_always_checks_the_digest(self):
        with tempfile.TemporaryDirectory() as tmp:
            r = self.phases(tmp, "tampered\n")
            self.assertIn("digest mismatch", run.check("fct_churn", run.DEFAULT_SEED, r, False)[0])

    def test_seed_free_workloads_check_the_digest_on_every_seed(self):
        self.assertFalse(run.seeded("bottleneck_sweep"))
        with tempfile.TemporaryDirectory() as tmp:
            r = self.phases(tmp, "tampered\n")
            self.assertIn("digest mismatch", run.check("bottleneck_sweep", 7, r, False)[0])

    def test_lost_flows_break_conservation(self):
        with tempfile.TemporaryDirectory() as tmp:
            r = self.phases(tmp, "{}\n", started=10, completed=8, in_flight=1)
            fails = run.check("fct_churn", 2, r, force_digest=False)
            self.assertEqual(len(fails), 1)
            self.assertIn("conservation", fails[0])

    def test_reference_digests_cover_every_workload(self):
        ref = json.loads((run.HERE / "reference.json").read_text())
        self.assertEqual(sorted(ref), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
