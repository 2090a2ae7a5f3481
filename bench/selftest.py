#!/usr/bin/env python3
"""Self-test of the benchmark: scenario selection and repeatable counts.

Run from the root of a source checkout (takes about a minute):

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))

NS_F0_STAGGERED = {("NS", 0, "crash", "single_good_first"), ("NS", 0, "crash", "adversarial_stagger")}


def cell(config) -> tuple:
    return (config.variant, config.f, config.strategy, config.wake_policy)


class Selection(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness = run.import_fresh()
        cls.matrix = cls.harness.acceptance_matrix("NS") + cls.harness.acceptance_matrix("SIM")

    def test_adversarial_mix_covers_every_cell_for_every_seed(self):
        cells = {cell(c) for c in self.matrix}
        self.assertEqual(len(cells), 102)
        for seed in range(-3, 60):
            chosen = run.select("adversarial-mix", self.harness, seed)
            self.assertEqual(len(chosen), 102)
            self.assertEqual({cell(c) for c in chosen}, cells)
            self.assertLessEqual(NS_F0_STAGGERED, {cell(c) for c in chosen})

    def test_same_seed_selects_same_scenarios(self):
        for workload in run.WORKLOADS:
            for seed in range(4):
                first = [c.scenario_id for c in run.select(workload, self.harness, seed)]
                again = [c.scenario_id for c in run.select(workload, self.harness, seed)]
                self.assertEqual(first, again)
        mixes = {tuple(c.scenario_id for c in run.select("adversarial-mix", self.harness, seed))
                 for seed in range(4)}
        self.assertEqual(len(mixes), 4)

    def test_golden_rows_cover_every_selection(self):
        golden = run.load_golden()
        self.assertEqual(len(golden), 1485 + 1485 + 67)
        for workload in run.WORKLOADS:
            for seed in range(6):
                for c in run.select(workload, self.harness, seed):
                    self.assertIn(c.scenario_id, golden)


class Repeatability(unittest.TestCase):
    """Counts from two separate runs of the same inputs agree exactly."""

    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.golden = run.load_golden()

    def twice(self, workload: str, pick, traced: bool):
        out = []
        for _ in range(2):
            harness = run.import_fresh()
            tracer = None
            if traced:
                tracer = tracing.Tracer()
                tracing.install(tracer)
            configs = pick(run.prepare(harness, workload, 1))
            res = run.run_pass(harness, configs, self.golden, workload == "trace-replay", tracer)
            self.assertEqual(res["failed"], 0)
            counts = {k: res[k] for k in ("rounds", "agent_rounds", "trace_bytes", "rows")}
            if tracer is not None:
                tracer.flush()
                counts.update((k, v) for k, v in tracer.totals.items() if not k.endswith("_s"))
                counts["x_n_max"] = tracer.x_n_max
            out.append(counts)
        self.assertEqual(out[0], out[1])
        return out[0]

    def test_trace_replay_counts_repeat(self):
        counts = self.twice("trace-replay", lambda cs: cs[:2], traced=False)
        self.assertGreater(counts["trace_bytes"], 0)

    def test_traced_counts_repeat(self):
        def f1_all_at_once(configs):
            return [c for c in configs if c.f == 1 and c.wake_policy == "all_at_once"]

        counts = self.twice("adversarial-mix", f1_all_at_once, traced=True)
        self.assertGreater(counts["simcore.worldview_calls"], 0)
        self.assertGreater(counts["simgather.wait_steps"], 0)
        steps = counts["gathering.step_calls"] + counts["simgather.wait_steps"] + counts["adversary.step_calls"]
        self.assertEqual(steps, counts["agent_rounds"])

    def test_baseline_counts_repeat(self):
        self.twice("baseline-f0", lambda cs: cs[:10], traced=False)


if __name__ == "__main__":
    unittest.main()
