"""Everything the model leaves to the adversary.

A Byzantine strategy receives the full world state (true states,
positions, the lot) and answers with an arbitrary presented state plus a
move; ``mimic_good`` instead runs the honest stepper, which the engine
drives as it drives a good agent.  A faulty agent's true id is attached
by the engine and cannot be forged.
Wake-up scheduling is also adversary-controlled, subject to one rule:
at least one good agent wakes in round 1.
"""

from __future__ import annotations

import functools
import random

from .gathering import GatheringAgent
from .simcore import STA_G_WG, STA_MG_SA, STA_MG_TA, PresentedState, WorldView
from .simgather import SimGatheringAgent


class InvalidPolicy(ValueError):
    pass


WAKE_POLICIES = ("all_at_once", "single_good_first", "adversarial_stagger")

#: The id ``id_inflator`` claims to have met; no scenario assigns it.
FAKE_ID = 1_000_003


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
    """Base of the world-fed steppers for faulty agents, each answering
    ``step(world, agent_id) -> (presented, action)``."""

    def __init__(self, agent_id: int, seed: int, f: int):
        self.agent_id = agent_id
        self.f = f


class HeldPose(ByzantineStrategy):
    """Shows one pose from its wake round on and never moves: never due
    again, no watch, no walk, so it is stepped in its wake round only.

    The pose is ``pose(agent_id, f)``; without one the agent keeps the
    state it woke with, which is a crash.
    """

    name = "crash"

    def __init__(self, agent_id, seed, f, pose=None):
        super().__init__(agent_id, seed, f)
        self._pose = None if pose is None else pose(agent_id, f)

    def step(self, world: WorldView, agent_id: int):
        return self._pose, None

    def wait(self):
        return None, None, None


class RandomWalk(ByzantineStrategy):
    """Moves through a uniformly random port every round.

    It draws its ports in legs of ``LEG`` moves along its own path, one
    ``rng.randint(1, d)`` per move, as one draw per round would, and each
    step moves through the port drawn for its own count.  ``wait()`` names
    the rest of the leg as a walk, so the engine makes those moves.
    """

    name = "random_walk"
    LEG = 64

    def __init__(self, agent_id, seed, f):
        super().__init__(agent_id, seed, f)
        self.rng = random.Random(f"{self.name}:{seed}:{agent_id}")
        self._shift: int | None = None  # own count c falls in round c + shift
        self._base = 0  # own count of the leg's first port
        self._ports: list[int] = []
        self._offsets: list[int] = []

    def step(self, world, agent_id):
        if self._shift is None:
            self._shift = world.round - 1
        c = world.round - self._shift
        if c - self._base >= len(self._ports):
            # A new leg from here.  Each offset gives back its port under the
            # walk rule; offset 0 is this step's own move, which the engine
            # does not read.  A degree-0 node (a one-node graph) has none.
            adj, v, e, randint = world.graph.adj, world.position(agent_id), 1, self.rng.randint
            ports, offsets = [], []
            for _ in range(self.LEG):
                row = adj[v]
                d = len(row)
                if d == 0:
                    break
                p = randint(1, d)
                ports.append(p)
                offsets.append((p - e) % d)
                v, e = row[p - 1]
            self._base, self._ports, self._offsets = c, ports, offsets
        return None, (self._ports[c - self._base] if self._ports else None)

    def wait(self):
        if not self._ports:
            return None, None, None
        return self._base + len(self._ports), None, (self._base, self._offsets)


def _target_pose(agent_id: int, f: int) -> PresentedState:
    """A waiting group-making target that claims itself: ``fake_target``
    holds it forever, hoping to be adopted, and ``lure`` shows it while clean."""
    return PresentedState(STA_MG_TA, True, True, f, agent_id, None, frozenset((agent_id,)), False, False)


def _group_pose(agent_id: int, f: int) -> PresentedState:
    """``fake_group`` advertises membership in a nonexistent group with the smallest possible id."""
    return PresentedState(STA_G_WG, True, False, f, None, 0, frozenset((agent_id,)), True, False)


def _inflated_pose(agent_id: int, f: int) -> PresentedState:
    """``id_inflator`` claims to have met an enormous id, attacking the trusted-maximum vote."""
    return PresentedState(STA_MG_SA, True, True, f, None, None, frozenset((agent_id, FAKE_ID)), True, False)


class Lure(ByzantineStrategy):
    """Acts as a clean target until hunters settle, then betrays its pose.

    Once searchers hunting this agent have sat with it for two rounds it
    flips its presented target field away from its id for a stretch of X
    rounds, which is exactly the evidence watching searchers blacklist on.

    A hunter is a good agent, not terminated, that targets this agent.  A
    good agent targets no id above its own (its own, or the least it
    collected and did not blacklist), so only agents stepped after the
    lure can hunt it, and each shows in the round's view the target it
    holds at the lure's step: the lure reads hunters from its view.
    """

    name = "lure"

    def __init__(self, agent_id, seed, f):
        super().__init__(agent_id, seed, f)
        self._shift: int | None = None  # own count c falls in round c + shift
        self._round = 0  # round of the last step
        self._streak = 0
        self._flip_until = 0  # last round of the flip stretch
        self._flipped = False
        self._good: frozenset[int] = frozenset()

    def step(self, world, agent_id):
        r = self._round = world.round
        first = self._shift is None
        if first:
            self._shift = r - 1
            self._good = frozenset(world.good_ids())
        want_flip = r <= self._flip_until
        if not want_flip:
            if self._hunted(world.view_of(agent_id)[0]):
                self._streak += 1
                if self._streak >= 2:
                    self._flip_until = r + world.x_n
                    self._streak = 0
                    want_flip = True
            else:
                self._streak = 0
        presented = None
        if want_flip != self._flipped or first:
            self._flipped = want_flip
            pose = _target_pose(self.agent_id, self.f)
            presented = pose._replace(tar=0) if want_flip else pose
        return presented, None

    def _hunted(self, view) -> bool:
        """A hunter shares ``view``."""
        aid, good = self.agent_id, self._good
        return any(p.tar == aid and not p.terminated and g in good
                   for g, p in zip(view.order, view.states))

    def wait(self):
        """Due after a flip stretch and in the round after a first hunted
        one; otherwise idle until a view shows a hunter."""
        if self._round <= self._flip_until:
            return self._flip_until + 1 - self._shift, None, None
        if self._streak == 1:
            return self._round + 1 - self._shift, None, None
        return None, self._hunted, None


class EstfLiar(ByzantineStrategy):
    """Swings its presented fault estimate between extremes every round to skew votes."""

    name = "estf_liar"

    def __init__(self, agent_id, seed, f):
        super().__init__(agent_id, seed, f)
        self._tar: int | None = None

    def step(self, world, agent_id):
        if self._tar is None:
            self._tar = min(world.good_ids())
        lie = 0 if world.round % 2 == 0 else 99
        presented = PresentedState(STA_MG_SA, True, True, lie, self._tar, None,
                                   frozenset((self.agent_id,)), False, False)
        return presented, None


#: Each world-fed strategy's constructor, by name; a held pose is a row.
_STRATEGIES = {
    "crash": HeldPose,
    "random_walk": RandomWalk,
    "fake_target": functools.partial(HeldPose, pose=_target_pose),
    "lure": Lure,
    "fake_group": functools.partial(HeldPose, pose=_group_pose),
    "estf_liar": EstfLiar,
    "id_inflator": functools.partial(HeldPose, pose=_inflated_pose),
}

STRATEGY_NAMES = (*_STRATEGIES, "mimic_good")


def make_strategy(name: str, agent_id: int, seed: int, f: int, *,
                  variant: str = "NS", seq=None):
    """The stepper of faulty agent ``agent_id`` under strategy ``name``.

    ``mimic_good`` is the honest stepper itself, ``SimGatheringAgent``
    for SIM and ``GatheringAgent`` otherwise, on the sequence ``seq``:
    what makes it faulty is its seat, not its code.  Every other name is
    a world-fed ``ByzantineStrategy``.
    """
    if name == "mimic_good":
        return (SimGatheringAgent if variant == "SIM" else GatheringAgent)(agent_id, seq)
    if name not in _STRATEGIES:
        raise ValueError(f"unknown Byzantine strategy {name!r}")
    return _STRATEGIES[name](agent_id, seed, f)
