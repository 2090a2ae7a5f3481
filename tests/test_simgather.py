import copy

from conftest import entry, seq_of, view

from byzgather.simcore import TERMINATE
from byzgather.simgather import SimGatheringAgent, termination_threshold, trusted_max_id


def test_threshold_example():
    # idm 8: 2*10 + 3 * (2*3 + 6) * 31 = 20 + 1116.
    assert termination_threshold(10, 8) == 1136


def test_threshold_grows_with_idm_and_walk_length():
    assert termination_threshold(10, 8) < termination_threshold(10, 16)
    assert termination_threshold(10, 8) < termination_threshold(11, 8)


def test_trusted_max_filters_singletons():
    v = view([
        entry(1, il={1, 2}), entry(2, il={1, 2}), entry(3, il={1, 9}),
    ])
    assert trusted_max_id(v, gef=1) == 2  # the lone 9 claim does not count


def test_trusted_max_single_agent_zero_gef():
    v = view([entry(4, il={1, 2, 4})])
    assert trusted_max_id(v, gef=0) == 4


def test_trusted_max_identical_lists():
    v = view([entry(i, il={1, 5, 9}) for i in (1, 5, 9)])
    assert trusted_max_id(v, gef=2) == 9


def test_trusted_max_none_when_nothing_qualifies():
    v = view([entry(4, il={4})])
    assert trusted_max_id(v, gef=3) is None


def sim_agent(agent_id=5, x_n=4, r_i=100, estf=1):
    agent = SimGatheringAgent(agent_id, seq_of((0,) * x_n, 5))
    agent.sim_active = True
    agent.r_i = r_i
    agent.state.count = r_i - 1
    agent.state.estf = estf
    agent.state.il = {agent_id, 2, 3}
    agent.state.sta = "S_G_WG"
    agent.state.end_ci = True
    return agent


def own_entry(agent, **kw):
    kw.setdefault("il", frozenset(agent.state.il))
    kw.setdefault("estf", agent.state.estf)
    kw.setdefault("flag_t", agent.flag_t)
    return entry(agent.state.id, sta="S_G_WG", end_ci=True, **kw)


def test_quorum_of_flags_terminates():
    agent = sim_agent(estf=1)
    peers = [own_entry(agent),
             entry(2, estf=1, flag_t=True, il={2}),
             entry(3, estf=1, flag_t=True, il={3})]
    assert agent.step(view(peers), None) is TERMINATE


def test_byzantine_flags_alone_cannot_reach_quorum():
    # gef votes to 1, so one raised flag (a single liar) is not enough.
    agent = sim_agent(estf=1)
    peers = [own_entry(agent),
             entry(2, estf=1, il={2}),
             entry(3, estf=1, il={3}),
             entry(9, estf=1, flag_t=True, il={9})]
    assert agent.step(view(peers), None) is None


def test_flag_waits_for_x_rounds_after_completion():
    # Alone on the node: gef 0, trusted max is the agent's own largest id.
    x_n = 4
    threshold = termination_threshold(x_n, 5)
    agent = sim_agent(x_n=x_n, r_i=threshold - 1, estf=0)
    agent.state.count = threshold  # past the waiting threshold, 2 rounds past r_i
    agent.step(view([own_entry(agent)]), None)
    assert agent.flag_t is False

    agent2 = sim_agent(x_n=x_n, r_i=threshold - 1, estf=0)
    agent2.state.count = threshold + x_n  # both conditions hold next round
    agent2.step(view([own_entry(agent2)]), None)
    assert agent2.flag_t is True
    assert ("flag_t", agent2.state.count) in agent2.events


def test_flag_not_raised_before_threshold():
    x_n = 4
    agent = sim_agent(x_n=x_n, r_i=10, estf=0)
    agent.state.count = 20  # way below the waiting threshold for id 5
    agent.step(view([own_entry(agent)]), None)
    assert agent.flag_t is False


def test_flag_is_monotone_once_set():
    x_n = 2
    agent = sim_agent(x_n=x_n, r_i=5, estf=0)
    agent.state.count = termination_threshold(x_n, 5) + 100
    agent.step(view([own_entry(agent)]), None)
    assert agent.flag_t
    agent.step(view([own_entry(agent, il={5})]), None)  # trusted max unchanged
    assert agent.flag_t


def test_inflated_claim_needs_corroboration():
    agent = sim_agent(estf=1)
    peers = [own_entry(agent),
             entry(2, estf=1, il={2, 3}),
             entry(3, estf=1, il={2, 3}),
             entry(9, estf=1, il={9, 1_000_003})]
    agent.step(view(peers), None)
    assert agent.idm == 3  # ids 2 and 3 are double-vouched; the huge claim is not


def test_sim_agent_enters_checking_mode_instead_of_terminating():
    agent = sim_agent(estf=0)
    agent.sim_active = False
    agent.state.gid = 3
    agent.state.gl = {(3, 2), (3, 4)}
    # Force the base protocol's terminate: waiting-group member of the
    # smallest reliable group at the last round of the second phase.
    agent.state.count = agent.X + 2 * agent.P  # round 1 of a second phase
    for _ in range(agent.P):
        action = agent.step(view([own_entry(agent)]), None)
    assert action is None
    assert agent.sim_active
    assert agent.r_i == agent.state.count + 1
    assert ("sim_mode", agent.r_i) in agent.events
    assert agent.wait() == (agent.r_i, None, None)  # the first wait round is always stepped


def test_next_due_while_waiting_is_the_flag_round():
    # Alone on the node: gef 0 and a trusted maximum, so only the clock can
    # raise the flag; every wait round before that is a no-op.
    x_n = 4
    agent = sim_agent(x_n=x_n, r_i=10, estf=0)
    agent.state.count = 20
    v = view([own_entry(agent)])
    agent.step(v, None)
    agent.events.clear()
    due, wants, walk = agent.wait()
    assert walk is None
    assert due == max(agent.r_i + x_n, termination_threshold(x_n, 5))
    twin = copy.deepcopy(agent)
    before = twin.build_presented()
    while twin.state.count + 1 < due:
        assert twin.step(v, None) is None
        assert twin.events == [] and not twin.presented_dirty
        assert twin.build_presented() == before
    # After a wait round only a new (gef, flags, idm) triple wakes it: a
    # newcomer that keeps the vote, the flag count and the trusted maximum
    # does not, one that raises a flag or the maximum does.
    keeps = view([own_entry(agent), entry(4, estf=0, il={4})])
    assert callable(wants) and not wants(v) and not wants(keeps)
    quiet = copy.deepcopy(agent)
    assert quiet.step(keeps, None) is None
    assert quiet.events == [] and not quiet.presented_dirty
    assert wants(view([own_entry(agent), entry(4, estf=0, flag_t=True, il={4})]))
    assert wants(view([own_entry(agent), entry(7, estf=0, il={7})]))
    assert wants(view([own_entry(agent), entry(4, estf=1, il={4}), entry(6, estf=1, il={6})]))
    twin.step(v, None)
    assert twin.flag_t and twin.presented_dirty
    twin.presented_dirty = False
    assert twin.wait()[0] is None  # raised: only a changed view matters now
