"""Shared test helpers: fabricated views, scripted engine agents, random worlds."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from byzgather.adversary import STRATEGY_NAMES, WAKE_POLICIES
from byzgather.exploration import ExplorationSequence
from byzgather.harness import ScenarioConfig, default_agent_ids, hypothesis_team_size, strict_team_size
from byzgather.portgraph import FAMILY_KINDS, FAMILY_MIN_NODES
from byzgather.simcore import ObservationView, PresentedState

_VERSION = itertools.count(1)


def presented(**kw) -> PresentedState:
    base = dict(sta="S_CI", end_ci=False, in_mgst=False, estf=None, tar=None,
                gid=None, il=frozenset(), flag_t=False, terminated=False)
    base.update(kw)
    if not isinstance(base["il"], frozenset):
        base["il"] = frozenset(base["il"])
    return PresentedState(**base)


def entry(agent_id: int, **kw) -> tuple[int, PresentedState]:
    """One agent of a fabricated view: its true id and presented state."""
    kw.setdefault("il", frozenset((agent_id,)))
    return agent_id, presented(**kw)


def view(entries=(), degree: int = 2, version: int | None = None) -> ObservationView:
    """A view of ``entries``, (id, presented) pairs, in its id-ordered columns."""
    entries = sorted(entries, key=lambda e: e[0])
    if version is None:
        version = next(_VERSION)
    order = [aid for aid, _ in entries]
    return ObservationView(degree, order, [p for _, p in entries], frozenset(order), version)


def seq_of(offsets, bound: int) -> ExplorationSequence:
    return ExplorationSequence(tuple(offsets), bound, seed=0)


class ScriptedAgent:
    """Engine test double: plays back a fixed action list, then stays."""

    def __init__(self, actions=(), presented_state=None):
        self.actions = list(actions)
        self.events: list = []
        self.presented_dirty = False
        self.terminated = False
        self.i = 0
        self.seen: list = []
        self._presented = presented_state

    def step(self, view_, entry_port):
        self.seen.append((tuple(view_.order), entry_port))
        action = self.actions[self.i] if self.i < len(self.actions) else None
        self.i += 1
        return action

    def build_presented(self):
        if self._presented is not None:
            return self._presented._replace(terminated=self.terminated)
        return presented(terminated=self.terminated)


@st.composite
def worlds(draw, max_n: int = 5, max_N: int = 6, max_f: int = 2, explicit_ids: bool = True):
    """A valid scenario: any family, n from its smallest size to ``max_n``,
    N from n to ``max_N``, f up to ``max_f`` under either team rule, either
    variant, any strategy and wake policy, graph and scenario seeds 0..5.
    Ids come from ``default_agent_ids``, or, where ``explicit_ids``, are k
    distinct ids up to 2**20 of which f are faulty."""
    family = draw(st.sampled_from(FAMILY_KINDS))
    n = draw(st.integers(FAMILY_MIN_NODES.get(family, 1), max_n))
    f = draw(st.integers(0, max_f))
    rule = draw(st.sampled_from(["strict", "hypothesis"]))
    k = (strict_team_size if rule == "strict" else hypothesis_team_size)(f)
    seed = draw(st.integers(0, 5))
    if explicit_ids and draw(st.booleans()):
        drawn = draw(st.lists(st.integers(1, 2**20), min_size=k, max_size=k, unique=True))
        ids, byz = tuple(sorted(drawn)), tuple(sorted(drawn[:f]))
    else:
        ids, byz = default_agent_ids(k, f, seed)
    return ScenarioConfig(
        scenario_id="world", variant=draw(st.sampled_from(["NS", "SIM"])), family=family, n=n,
        graph_seed=draw(st.integers(0, 5)), N=draw(st.integers(n, max_N)), ids=ids,
        byzantine_ids=byz, strategy=draw(st.sampled_from(STRATEGY_NAMES)),
        wake_policy=draw(st.sampled_from(WAKE_POLICIES)), seed=seed, team_rule=rule)
