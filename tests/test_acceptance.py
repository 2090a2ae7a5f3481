"""Acceptance gate: one test per verification criterion, one line printed each.

The two scenario matrices (non-simultaneous and simultaneous variants)
run once per session and feed the gathering, bound, lemma, and adversary
criteria.  Expected values in criterion 8 are hand-derived.
"""

import time
from pathlib import Path

import pytest

from byzgather.exploration import certify, walk_visits
from byzgather.harness import (
    acceptance_matrix,
    baseline_matrix,
    benchmark_graphs,
    certified_sequence,
    default_agent_ids,
    export_trace_text,
    run_scenario,
    run_suite,
    theorem1_bound,
    theorem2_bound,
)
from byzgather.gathering import cist_length, estimate_f, extended_label_bit
from byzgather.harness import ScenarioConfig

# The matrix fixtures take minutes; `pytest -m "not slow"` skips this module.
pytestmark = pytest.mark.slow

LEMMA_KEYS = (
    "collect_all_good_ids",
    "estf_at_least_f",
    "estf_spread_at_most_1",
    "smallest_good_is_target",
    "blacklists_stay_good_free",
    "group_formation_agreement",
    "group_within_f_plus_1_phases",
)


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def ns_suite():
    t0 = time.perf_counter()
    result = run_suite(acceptance_matrix("NS"), workers=2)
    result.elapsed = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def sim_suite():
    t0 = time.perf_counter()
    result = run_suite(acceptance_matrix("SIM"), workers=2)
    result.elapsed = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def baseline_suite():
    t0 = time.perf_counter()
    result = run_suite(baseline_matrix(), workers=2)
    result.elapsed = time.perf_counter() - t0
    return result


def test_criterion_1_exploration_certification():
    t0 = time.perf_counter()
    seq = certified_sequence(10, 0)
    corpus = benchmark_graphs(10)
    failures = []
    for fam, g in corpus:
        for start in range(g.node_count):
            if len(walk_visits(seq, g, start)) != g.node_count:
                failures.append((fam, start))
        assert certify(seq, g).passed
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    assert report(
        "criterion 1: certified walk covers every benchmark graph from every start",
        ok, f"{len(corpus)} graphs, X_N={seq.length}, {elapsed:.1f}s",
    ), failures


def test_criterion_2_nonsimultaneous_gathering(ns_suite):
    # theorem1_bound is one agent's schedule length from its own wake, so it
    # is checked against each good agent's termination minus its own wake.
    # The global span (verdict rounds, CSV) also holds the wake offset.
    bad = [v for v in ns_suite.verdicts
           if not (v.gathered and v.metrics["own_clock_rounds"] <= v.bound)]
    detail = (f"{len(ns_suite.verdicts) - len(bad)}/{len(ns_suite.verdicts)} runs "
              f"within bound on each agent's own clock, {ns_suite.elapsed:.0f}s")
    ok = report("criterion 2: non-simultaneous gathering within the stated bound",
                not bad, detail)
    assert ok, "\n".join(
        f"{v.config.scenario_id}: own_clock={v.metrics['own_clock_rounds']} "
        f"global={v.measured_rounds} bound={v.bound} "
        f"spread={v.metrics['wake_spread']} gathered={v.gathered}"
        for v in bad[:40])


def test_criterion_3_simultaneous_gathering(sim_suite):
    bad = [v for v in sim_suite.verdicts
           if not (v.gathered and v.bound_satisfied and v.same_round is True)]
    detail = (f"{len(sim_suite.verdicts) - len(bad)}/{len(sim_suite.verdicts)} runs "
              f"same-round within bound, {sim_suite.elapsed:.0f}s")
    ok = report("criterion 3: simultaneous gathering within the stated bound",
                not bad, detail)
    assert ok, "\n".join(
        f"{v.config.scenario_id}: rounds={v.measured_rounds} bound={v.bound} "
        f"same_round={v.same_round}" for v in bad[:40])


def test_criterion_4_lemma_suites(ns_suite, sim_suite):
    bad = []
    for v in ns_suite.verdicts + sim_suite.verdicts:
        for key in LEMMA_KEYS:
            if not v.lemma_checks[key]:
                bad.append((v.config.scenario_id, key))
    total = len(ns_suite.verdicts) + len(sim_suite.verdicts)
    ok = report("criterion 4: structural invariants hold on every trace",
                not bad, f"{len(LEMMA_KEYS)} checks x {total} traces")
    assert ok, bad[:40]


def test_criterion_5_adversary_effectiveness(ns_suite, sim_suite):
    lure_hits = sum(v.metrics["bl_insertions"]
                    for v in ns_suite.verdicts + sim_suite.verdicts
                    if v.config.strategy == "lure" and v.config.f > 0)
    inflation_ok = all(v.lemma_checks.get("trusted_max_id_bounded", True)
                       for v in sim_suite.verdicts)
    ok = report("criterion 5: the betrayer gets blacklisted and id inflation never lands",
                lure_hits >= 1 and inflation_ok,
                f"lure blacklist insertions={lure_hits}")
    assert ok


def test_criterion_6_fault_free_baseline(baseline_suite):
    bad = [v for v in baseline_suite.verdicts
           if not (v.gathered and v.bound_satisfied)]
    ok = report("criterion 6: four honest agents gather on every benchmark graph",
                not bad, f"{len(baseline_suite.verdicts)} graphs, {baseline_suite.elapsed:.0f}s")
    assert ok, "\n".join(v.config.scenario_id for v in bad[:40])


def test_suite_csvs_match_golden(ns_suite, sim_suite, baseline_suite):
    # bench/golden holds the three suites' CSVs as first committed; any
    # change to the engine or the protocol must reproduce them byte for byte.
    differ = [name for name, suite in (("acceptance-ns", ns_suite), ("acceptance-sim", sim_suite),
                                       ("baseline-f0", baseline_suite))
              if suite.csv() != (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")]
    assert report("suite CSVs equal bench/golden byte for byte", not differ,
                  f"{3 - len(differ)}/3 suites"), differ


def test_criterion_7_determinism():
    cases = []
    for variant in ("NS", "SIM"):
        ids, byz = default_agent_ids(17, 1, 1)
        cases.append(ScenarioConfig(
            scenario_id=f"det-{variant}", variant=variant, family="random-connected",
            n=5, graph_seed=1, N=5, ids=ids, byzantine_ids=byz,
            strategy="random_walk", wake_policy="adversarial_stagger", seed=1))
    ok = True
    for cfg in cases:
        v1, t1 = run_scenario(cfg)
        v2, t2 = run_scenario(cfg)
        ok = ok and export_trace_text(t1, cfg) == export_trace_text(t2, cfg)
        ok = ok and v1.csv_row() == v2.csv_row()
    assert report("criterion 7: reruns are byte-identical (trace export and csv)", ok)


def test_criterion_8_unit_formulas():
    checks = [
        [extended_label_bit(1, x) for x in range(1, 9)] == [1, 0, 1, 1, 1, 0, 1, 1],
        extended_label_bit(2, 5) == 0,
        cist_length(1) == 6,
        cist_length(8) == 12,
        cist_length(5) == 10,
        estimate_f(16) == 1,
        estimate_f(36) == 2,
        estimate_f(17) == 1,
        theorem1_bound(10, 1, 8) == 1312,
        theorem1_bound(1, 0, 1) == 85,
        theorem2_bound(10, 1, 8) == 1333,
        theorem2_bound(1, 0, 1) == 88,
    ]
    assert report("criterion 8: closed-form helpers match hand-derived values",
                  all(checks), f"{sum(checks)}/{len(checks)}")
