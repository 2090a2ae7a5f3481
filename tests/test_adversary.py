import pytest
from conftest import entry, view

from byzgather.adversary import (
    InvalidPolicy,
    Lure,
    RandomWalk,
    make_strategy,
    wake_schedule,
)
from byzgather.harness import ScenarioConfig, default_agent_ids, run_scenario


def test_all_at_once_schedule():
    sched = wake_schedule("all_at_once", [3, 5, 9], {9}, seed=0, x_n=10)
    assert sched == {3: 1, 5: 1, 9: 1}


def test_single_good_first_schedule():
    sched = wake_schedule("single_good_first", [3, 5, 9], {3}, seed=0, x_n=10)
    assert sched[5] == 1  # smallest good id
    assert sched[3] is None and sched[9] is None


def test_stagger_keeps_a_good_agent_at_round_one():
    for seed in range(20):
        sched = wake_schedule("adversarial_stagger", [3, 5, 9], {3}, seed, x_n=6)
        assert any(sched[aid] == 1 for aid in (5, 9))
        assert all(1 <= r <= 7 for r in sched.values())


def test_stagger_is_deterministic():
    a = wake_schedule("adversarial_stagger", [1, 2, 3, 4], {1}, seed=5, x_n=9)
    b = wake_schedule("adversarial_stagger", [1, 2, 3, 4], {1}, seed=5, x_n=9)
    assert a == b


def test_unknown_policy_rejected():
    with pytest.raises(InvalidPolicy):
        wake_schedule("everyone_late", [1, 2], set(), 0, 5)
    with pytest.raises(InvalidPolicy):
        wake_schedule("all_at_once", [1], {1}, 0, 5)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        make_strategy("teleport", 1, 0, 1)


def test_random_walk_is_seed_deterministic():
    class World:
        x_n = 4

        def position(self, aid):
            return 0

        def degree(self, node):
            return 3

    a = RandomWalk(9, seed=7, f=1)
    b = RandomWalk(9, seed=7, f=1)
    c = RandomWalk(9, seed=8, f=1)
    w = World()
    seq_a = [a.step(w, 9)[1] for _ in range(30)]
    seq_b = [b.step(w, 9)[1] for _ in range(30)]
    seq_c = [c.step(w, 9)[1] for _ in range(30)]
    assert seq_a == seq_b
    assert seq_a != seq_c
    assert all(1 <= p <= 3 for p in seq_a)


def test_lure_flips_its_claim_once_hunted():
    class FakeStepper:
        def __init__(self, tar):
            self.state = type("S", (), {"tar": tar})()

    class World:
        x_n = 4
        round = 1

        def __init__(self):
            self.hunter = FakeStepper(9)

        def good_ids(self):
            return [5]

        def status(self, aid):
            return 1

        def position(self, aid):
            return 0

        def stepper(self, aid):
            return self.hunter

        def view_of(self, aid):
            return view([entry(5), entry(9)]), None  # the hunter shares the lure's node

    lure = Lure(9, seed=0, f=1)
    world = World()
    presented, _ = lure.step(world, 9)
    assert presented.tar == 9  # clean pose at first
    presented, _ = lure.step(world, 9)  # second round of company: betrayal
    assert presented is not None and presented.tar != 9
    presented, _ = lure.step(world, 9)  # holds the flipped pose, no re-send
    assert presented is None


def _quick(variant, strategy, seed=0):
    ids, byz = default_agent_ids(17, 1, seed)
    cfg = ScenarioConfig(
        scenario_id=f"adv-{strategy}-{variant}", variant=variant, family="ring",
        n=5, graph_seed=seed % 3, N=5, ids=ids, byzantine_ids=byz,
        strategy=strategy, wake_policy="all_at_once", seed=seed)
    return run_scenario(cfg)


def test_mimic_good_cannot_break_gathering():
    verdict, _ = _quick("NS", "mimic_good")
    assert verdict.ok


def test_crashed_impostor_gets_blacklisted():
    verdict, trace = _quick("NS", "crash", seed=0)  # even seed: impostor id 1
    assert verdict.ok
    adds = {tar for _, _, tar in trace.events_of("bl_add")}
    assert adds == {1}


def test_fake_group_never_enters_reliable_sets():
    verdict, trace = _quick("NS", "fake_group", seed=0)
    assert verdict.ok
    final_nodes = {node for _, (rn, node) in trace.termination.items()}
    # All good agents end together even though gid 0 was being advertised.
    assert len({node for aid, (rn, node) in trace.termination.items()
                if aid in trace.good_ids}) == 1
