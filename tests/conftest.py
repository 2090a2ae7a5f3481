"""Shared test helpers: fabricated views, scripted engine agents."""

from __future__ import annotations

import itertools

from byzgather.exploration import ExplorationSequence
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
