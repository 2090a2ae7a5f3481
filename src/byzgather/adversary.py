"""Everything the model leaves to the adversary.

Byzantine agents receive the full world state every round (true states,
positions, the lot) and answer with an arbitrary presented state plus a
move.  Their true id is attached by the engine and cannot be forged.
Wake-up scheduling is also adversary-controlled, subject to one rule:
at least one good agent wakes in round 1.
"""

from __future__ import annotations

import random

from .gathering import GatheringAgent
from .simcore import (
    ACTIVE,
    STA_G_WG,
    STA_MG_SA,
    STA_MG_TA,
    PresentedState,
    WorldView,
)
from .simgather import SimGatheringAgent


class InvalidPolicy(ValueError):
    pass


WAKE_POLICIES = ("all_at_once", "single_good_first", "adversarial_stagger")

STRATEGY_NAMES = (
    "crash",
    "random_walk",
    "fake_target",
    "lure",
    "fake_group",
    "estf_liar",
    "id_inflator",
    "mimic_good",
)


def wake_schedule(policy: str, agent_ids: list[int], byzantine_ids: set[int],
                  seed: int, x_n: int) -> dict[int, int | None]:
    """Wake round per agent; None means woken only by a visit."""
    good = sorted(a for a in agent_ids if a not in byzantine_ids)
    if not good:
        raise InvalidPolicy("no good agents to wake at round 1")
    if policy == "all_at_once":
        return {aid: 1 for aid in agent_ids}
    if policy == "single_good_first":
        sched: dict[int, int | None] = {aid: None for aid in agent_ids}
        sched[good[0]] = 1
        return sched
    if policy == "adversarial_stagger":
        rng = random.Random(f"wake:{seed}")
        sched = {aid: rng.randint(1, x_n + 1) for aid in sorted(agent_ids)}
        if not any(sched[aid] == 1 for aid in good):
            sched[good[0]] = 1
        return sched
    raise InvalidPolicy(f"unknown wake policy {policy!r}")


class ByzantineStrategy:
    """Base stepper for faulty agents: stationary, frozen presented state.

    A strategy that holds one fixed pose and never moves sets ``static =
    True``; the engine steps it only in its wake round, so its ``step``
    just returns that pose.
    """

    name = "crash"
    static = False

    def __init__(self, agent_id: int, seed: int, f: int):
        self.agent_id = agent_id
        self.f = f
        self.rng = random.Random(f"{self.name}:{seed}:{agent_id}")

    def step(self, world: WorldView, agent_id: int):
        return None, None


class Crash(ByzantineStrategy):
    name = "crash"
    static = True


class RandomWalk(ByzantineStrategy):
    """Moves through a uniformly random port every round."""

    name = "random_walk"

    def step(self, world, agent_id):
        d = world.degree(world.position(agent_id))
        return None, (self.rng.randint(1, d) if d > 0 else None)


class FakeTarget(ByzantineStrategy):
    """Poses as a waiting group-making target forever, hoping to be adopted."""

    name = "fake_target"
    static = True

    def _pose(self) -> PresentedState:
        return PresentedState(STA_MG_TA, True, True, self.f, self.agent_id,
                              None, frozenset((self.agent_id,)), False, False)

    def step(self, world, agent_id):
        return self._pose(), None


class Lure(FakeTarget):
    """Acts as a clean target until hunters settle, then betrays its pose.

    Once searchers hunting this agent have sat with it for two rounds it
    flips its presented target field away from its id for a stretch of X
    rounds, which is exactly the evidence watching searchers blacklist on.
    """

    name = "lure"
    static = False

    def __init__(self, agent_id, seed, f):
        super().__init__(agent_id, seed, f)
        self._sent = False
        self._streak = 0
        self._flip_left = 0
        self._flipped = False
        self._good: frozenset[int] = frozenset()

    def step(self, world, agent_id):
        first = not self._sent
        self._sent = True
        if first:
            self._good = frozenset(world.good_ids())
        hunters = 0
        for g in world.view_of(agent_id)[0].ids & self._good:
            if world.status(g) == ACTIVE and world.stepper(g).state.tar == agent_id:
                hunters += 1
        want_flip = False
        if self._flip_left > 0:
            self._flip_left -= 1
            want_flip = True
        elif hunters:
            self._streak += 1
            if self._streak >= 2:
                self._flip_left = world.x_n
                self._streak = 0
                want_flip = True
        else:
            self._streak = 0
        presented = None
        if want_flip != self._flipped or first:
            self._flipped = want_flip
            pose = self._pose()
            presented = pose._replace(tar=0) if want_flip else pose
        return presented, None


class FakeGroup(ByzantineStrategy):
    """Advertises membership in a nonexistent group with the smallest possible id."""

    name = "fake_group"
    static = True

    def step(self, world, agent_id):
        presented = PresentedState(STA_G_WG, True, False, self.f, None, 0,
                                   frozenset((self.agent_id,)), True, False)
        return presented, None


class EstfLiar(ByzantineStrategy):
    """Swings its presented fault estimate between extremes to skew votes."""

    name = "estf_liar"

    def __init__(self, agent_id, seed, f):
        super().__init__(agent_id, seed, f)
        self._tar: int | None = None
        self._last: int | None = None

    def step(self, world, agent_id):
        if self._tar is None:
            self._tar = min(world.good_ids())
        lie = 0 if world.round % 2 == 0 else 99
        if lie == self._last:
            return None, None
        self._last = lie
        presented = PresentedState(STA_MG_SA, True, True, lie, self._tar, None,
                                   frozenset((self.agent_id,)), False, False)
        return presented, None


class IdInflator(ByzantineStrategy):
    """Claims to have met an enormous id, attacking the trusted-maximum vote."""

    name = "id_inflator"
    static = True
    FAKE_ID = 1_000_003

    def step(self, world, agent_id):
        presented = PresentedState(STA_MG_SA, True, True, self.f, None, None,
                                   frozenset((self.agent_id, self.FAKE_ID)), True, False)
        return presented, None


class MimicGood(ByzantineStrategy):
    """Runs the honest protocol; the hardest case for detection-based checks."""

    name = "mimic_good"

    def __init__(self, agent_id, seed, f, variant="NS", seq=None):
        super().__init__(agent_id, seed, f)
        cls = SimGatheringAgent if variant == "SIM" else GatheringAgent
        self.inner = cls(agent_id, seq)
        self._done = False

    def step(self, world, agent_id):
        if self._done:
            return None, None
        view, entry = world.view_of(agent_id)
        action = self.inner.step(view, entry)
        self.inner.events.clear()
        presented = None
        if self.inner.presented_dirty:
            self.inner.presented_dirty = False
            presented = self.inner.build_presented()
        if action is not None and not isinstance(action, int):
            # The engine never lets a Byzantine agent truly terminate; it
            # forges the terminated marker and sits still instead.
            self._done = True
            self.inner.terminated = True
            presented = self.inner.build_presented()
            action = None
        return presented, action


_STRATEGIES = {
    cls.name: cls
    for cls in (Crash, RandomWalk, FakeTarget, Lure, FakeGroup, EstfLiar, IdInflator, MimicGood)
}


def make_strategy(name: str, agent_id: int, seed: int, f: int, *,
                  variant: str = "NS", seq=None) -> ByzantineStrategy:
    if name not in _STRATEGIES:
        raise ValueError(f"unknown Byzantine strategy {name!r}")
    if name == "mimic_good":
        return MimicGood(agent_id, seed, f, variant=variant, seq=seq)
    return _STRATEGIES[name](agent_id, seed, f)
