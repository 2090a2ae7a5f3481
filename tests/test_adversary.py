import pytest
from conftest import entry, view

from byzgather.adversary import (
    FAKE_ID,
    STRATEGY_NAMES,
    InvalidPolicy,
    Lure,
    RandomWalk,
    make_strategy,
    wake_schedule,
)
from byzgather.harness import ScenarioConfig, default_agent_ids, run_scenario
from byzgather.portgraph import build


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


def test_strategy_names_keep_their_order():
    # Matrix files, the acceptance matrix and bench/run.py list strategies in this order.
    assert STRATEGY_NAMES == ("crash", "random_walk", "fake_target", "lure", "fake_group",
                              "estf_liar", "id_inflator", "mimic_good")


@pytest.mark.parametrize("name, shown", [
    ("crash", None),
    ("fake_target", {"sta": "S_MG_TA", "tar": 7, "gid": None, "il": frozenset((7,))}),
    ("fake_group", {"sta": "S_G_WG", "tar": None, "gid": 0, "il": frozenset((7,))}),
    ("id_inflator", {"sta": "S_MG_SA", "tar": None, "gid": None, "il": frozenset((7, FAKE_ID))}),
])
def test_held_poses_show_one_pose_and_never_move(name, shown):
    stepper = make_strategy(name, 7, seed=0, f=1)
    presented, action = stepper.step(None, 7)
    assert action is None and stepper.wait() == (None, None, None)
    assert type(stepper).name == "crash"
    if shown is None:
        assert presented is None  # keeps the state it woke with
    else:
        assert presented.estf == 1
        assert {key: getattr(presented, key) for key in shown} == shown


def test_random_walk_is_seed_deterministic():
    class World:
        x_n = 4
        round = 0
        graph = build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])  # degree 3

        def position(self, aid):
            return 0

    def ports(walker):
        w = World()
        seq = []
        for r in range(1, 31):
            w.round = r
            seq.append(walker.step(w, 9)[1])
        return seq

    seq_a = ports(RandomWalk(9, seed=7, f=1))
    seq_b = ports(RandomWalk(9, seed=7, f=1))
    seq_c = ports(RandomWalk(9, seed=8, f=1))
    assert seq_a == seq_b
    assert seq_a != seq_c
    assert all(1 <= p <= 3 for p in seq_a)


def test_lure_flips_its_claim_once_hunted():
    class World:
        x_n = 4
        round = 0

        def good_ids(self):
            return [12]

        def view_of(self, aid):
            # The hunter shares the lure's node: a good agent above the
            # lure's id that shows the lure's id as its target.
            return view([entry(9), entry(12, tar=9)]), None

    lure = Lure(9, seed=0, f=1)
    world = World()

    def step():
        world.round += 1
        return lure.step(world, 9)[0]

    presented = step()
    assert presented.tar == 9  # clean pose at first
    presented = step()  # second round of company: betrayal
    assert presented is not None and presented.tar != 9
    presented = step()  # holds the flipped pose, no re-send
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
