"""Per-layer tracing for the byzgather benchmark.

``install(tracer)`` wraps the program's public callables where they are
looked up (module globals such as ``harness.build_sequence``, class
attributes such as ``Engine.run``), so no program file is edited.  There
are two kinds of boundary:

* coarse boundaries (scenario, ``Engine.run``, ``check``, export,
  replay, replay parsing, matrix build, ``build_sequence``) each record
  one in-memory span with its parent span and scenario id;
* hot boundaries (stepper ``step``, ``Engine.node_view``, ``generate``,
  the ``WorldView`` accessors, ``certify``, view construction) run
  millions of times per workload, so they only add to per-scenario sums
  and counts.

A span's self time is its duration minus the time covered by the wrapped
callees inside it, spans and timed hot boundaries alike.  Every other
``_s`` figure is inclusive.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

perf = time.perf_counter

STAGES = ("explo", "cist", "mgst", "gst1", "gst2")

WORLDVIEW_METHODS = ("ids", "good_ids", "status", "position", "stepper",
                     "presented", "degree", "view_of")
WORLDVIEW_PROPERTIES = ("round", "graph", "x_n", "p_n")


class Tracer:
    """In-memory spans plus per-scenario sums for the hot boundaries."""

    def __init__(self):
        self.spans: list[dict] = []
        self.scenario: str | None = None
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.x_n_max = 0
        self.next_span_id = 0
        # Traces returned by Engine.run since the caller last took them.
        self.traces: list = []
        # View version each good agent saw at its last step, and at its
        # last SIM wait step; keyed by stepper, cleared per scenario.
        self.last_version: dict = {}
        self.last_wait_version: dict = {}

    # -- scenarios ----------------------------------------------------------

    def begin_scenario(self, scenario_id: str) -> None:
        self.flush()
        self.scenario = scenario_id
        self.traces = []
        self.last_version.clear()
        self.last_wait_version.clear()

    def end_scenario(self, **counts) -> None:
        """Attach the scenario's hot sums and trace counts to its span."""
        self.sums.update(counts)
        sums = self.flush()
        for span in reversed(self.spans):
            if span["name"] == "scenario" and span["scenario"] == self.scenario:
                span["sums"] = sums
                break
        self.scenario = None

    def flush(self) -> dict:
        sums = dict(self.sums)
        for key, value in sums.items():
            self.totals[key] += value
        self.sums.clear()
        return sums

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- results ------------------------------------------------------------

    def span_sum(self, name: str, field: str = "inclusive") -> float:
        if field == "self":
            return sum(s["self_s"] for s in self.spans if s["name"] == name)
        return sum(s["t1"] - s["t0"] for s in self.spans if s["name"] == name)


def install(tracer: Tracer) -> None:
    """Wrap the freshly imported program's boundaries (see module doc).

    Also sets ``tracer.span(name, fn)``, which wraps any callable as a
    coarse boundary.  The wrappers share two closure cells: the time
    covered by wrapped callees of the innermost open boundary, and
    whether an outermost stepper step is running (a SIM agent's base
    step and a mimicking strategy's inner step belong to their caller).
    """
    adversary = importlib.import_module("byzgather.adversary")
    exploration = importlib.import_module("byzgather.exploration")
    gathering = importlib.import_module("byzgather.gathering")
    harness = importlib.import_module("byzgather.harness")
    portgraph = importlib.import_module("byzgather.portgraph")
    simcore = importlib.import_module("byzgather.simcore")
    simgather = importlib.import_module("byzgather.simgather")

    sums, spans = tracer.sums, tracer.spans
    last_version, last_wait_version = tracer.last_version, tracer.last_wait_version
    open_spans: list[int] = []
    covered = 0.0
    in_step = False

    def span(name, fn):
        def wrapper(*args, **kwargs):
            nonlocal covered
            sid = tracer.next_span_id
            tracer.next_span_id += 1
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            outer, covered = covered, 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                inner, covered = covered, outer + (t1 - t0)
                open_spans.pop()
                spans.append({"id": sid, "parent": parent, "scenario": tracer.scenario,
                              "name": name, "t0": t0, "t1": t1, "self_s": t1 - t0 - inner})
        return wrapper

    def timed(key, fn):
        # Leaf boundary: nothing timed runs inside it.
        key_s, key_calls = key + "_s", key + "_calls"

        def wrapper(*args):
            nonlocal covered
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dt = perf() - t0
                covered += dt
                sums[key_s] += dt
                sums[key_calls] += 1
        return wrapper

    def counted(key, fn):
        def wrapper(*args):
            sums[key] += 1
            return fn(*args)
        return wrapper

    def base_step(fn):
        # Stage from the agent's public state before the call.
        def step(agent, view, entry_port):
            nonlocal covered, in_step
            if in_step:
                return fn(agent, view, entry_port)
            st = agent.state
            c = st.count + 1
            X = agent.X
            if c <= X:
                key = "gathering.stage.explo_s"
            else:
                slot = ((c - X - 1) // agent.P) % 3
                if slot == 0:
                    key = "gathering.stage.mgst_s" if st.end_ci else "gathering.stage.cist_s"
                else:
                    key = "gathering.stage.gst1_s" if slot == 1 else "gathering.stage.gst2_s"
            in_step = True
            t0 = perf()
            try:
                action = fn(agent, view, entry_port)
            finally:
                dt = perf() - t0
                in_step = False
            covered += dt
            sums[key] += dt
            sums["gathering.step_calls"] += 1
            version = view.version
            if action is None and last_version.get(agent) == version:
                sums["gathering.idle_steps"] += 1
            last_version[agent] = version
            return action
        return step

    def sim_step(fn, base):
        def step(agent, view, entry_port):
            nonlocal covered, in_step
            if in_step or not agent.sim_active:
                return base(agent, view, entry_port)
            version = view.version
            if last_wait_version.get(agent) != version:
                last_wait_version[agent] = version
                sums["simgather.memo_lookups"] += 1
                if view.memo:
                    sums["simgather.memo_hits"] += 1
            in_step = True
            t0 = perf()
            try:
                action = fn(agent, view, entry_port)
            finally:
                dt = perf() - t0
                in_step = False
            covered += dt
            sums["simgather.wait_step_s"] += dt
            sums["simgather.wait_steps"] += 1
            last_version[agent] = version
            return action
        return step

    def byzantine_step(name, fn):
        # Inclusive of the world-view calls the strategy makes.
        key = f"adversary.{name}.step_s"

        def step(strategy, world, agent_id):
            nonlocal covered, in_step
            outer, covered = covered, 0.0
            in_step = True
            t0 = perf()
            try:
                return fn(strategy, world, agent_id)
            finally:
                dt = perf() - t0
                in_step = False
                covered = outer + dt
                sums[key] += dt
                sums["adversary.step_calls"] += 1
        return step

    tracer.span = span

    portgraph.generate = harness.generate = timed("portgraph.generate", portgraph.generate)

    build = harness.build_sequence

    def build_sequence(*args, **kwargs):
        seq = build(*args, **kwargs)
        tracer.x_n_max = max(tracer.x_n_max, seq.length)
        return seq

    harness.build_sequence = span("exploration.build_sequence", build_sequence)

    certify = exploration.certify

    def counted_certify(seq, g):
        result = certify(seq, g)
        sums["exploration.certify_calls"] += 1
        if result.passed:
            sums["exploration.certify_passes"] += 1
        return result

    exploration.certify = counted_certify

    engine = simcore.Engine
    engine_run = engine.run

    def run_and_keep(self):
        trace = engine_run(self)
        tracer.traces.append(trace)
        return trace

    engine.run = span("simcore.engine_run", run_and_keep)
    engine.node_view = timed("simcore.node_view", engine.node_view)
    simcore.ObservationView = counted("simcore.node_view_builds", simcore.ObservationView)
    world = simcore.WorldView
    for name in WORLDVIEW_METHODS:
        setattr(world, name, counted("simcore.worldview_calls", getattr(world, name)))
    for name in WORLDVIEW_PROPERTIES:
        setattr(world, name, property(counted("simcore.worldview_calls", getattr(world, name).fget)))

    # The SIM agent's own step runs its base step outside waiting mode.
    gathering.GatheringAgent.step = base_step(gathering.GatheringAgent.step)
    sim = simgather.SimGatheringAgent
    sim.step = sim_step(sim.step, base_step(sim.step))
    strategies = {obj: obj.step for obj in vars(adversary).values()
                  if isinstance(obj, type) and issubclass(obj, adversary.ByzantineStrategy)
                  and obj is not adversary.ByzantineStrategy}
    for cls, step in strategies.items():
        cls.step = byzantine_step(cls.name, step)

    for name, attr in (("harness.check", "check"),
                       ("harness.export", "export_trace_text"),
                       ("harness.replay_parse", "config_from_trace_text"),
                       ("harness.replay", "replay_trace_file"),
                       ("harness.matrix_build", "acceptance_matrix"),
                       ("harness.matrix_build", "baseline_matrix")):
        setattr(harness, attr, span(name, getattr(harness, attr)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, strategy_names, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures as {name: (value, unit)}; call after the traced run."""
    tracer.flush()
    t = tracer.totals
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("portgraph.generate_s", t["portgraph.generate_s"], "s")
    put("portgraph.generate_calls", t["portgraph.generate_calls"], "count")
    put("exploration.build_sequence_s", tracer.span_sum("exploration.build_sequence"), "s")
    put("exploration.certify_calls", t["exploration.certify_calls"], "count")
    put("exploration.certify_pass_ratio",
        _ratio(t["exploration.certify_passes"], t["exploration.certify_calls"]), "ratio")
    put("exploration.x_n_max", tracer.x_n_max, "moves")

    put("simcore.run_self_s", tracer.span_sum("simcore.engine_run", "self"), "s")
    put("simcore.rounds", t["rounds"], "count")
    put("simcore.agent_rounds", t["agent_rounds"], "count")
    step_calls = t["gathering.step_calls"] + t["simgather.wait_steps"] + t["adversary.step_calls"]
    put("simcore.step_calls", step_calls, "count")
    put("simcore.step_calls_per_agent_round", _ratio(step_calls, t["agent_rounds"]), "ratio")
    put("simcore.eventful_round_frac", _ratio(t["eventful_rounds"], t["rounds"]), "ratio")
    put("simcore.node_view_s", t["simcore.node_view_s"], "s")
    put("simcore.node_view_calls", t["simcore.node_view_calls"], "count")
    put("simcore.node_view_build_frac",
        _ratio(t["simcore.node_view_builds"], t["simcore.node_view_calls"]), "ratio")
    put("simcore.worldview_calls", t["simcore.worldview_calls"], "count")

    stage_s = {stage: t[f"gathering.stage.{stage}_s"] for stage in STAGES}
    put("gathering.step_s", sum(stage_s.values()), "s")
    put("gathering.step_calls", t["gathering.step_calls"], "count")
    for stage in STAGES:
        put(f"gathering.stage.{stage}_s", stage_s[stage], "s")
    put("gathering.idle_step_frac", _ratio(t["gathering.idle_steps"], t["gathering.step_calls"]), "ratio")

    put("simgather.wait_step_s", t["simgather.wait_step_s"], "s")
    put("simgather.wait_steps", t["simgather.wait_steps"], "count")
    put("simgather.memo_hit_ratio",
        _ratio(t["simgather.memo_hits"], t["simgather.memo_lookups"]), "ratio")

    for name in strategy_names:
        put(f"adversary.{name}.step_s", t[f"adversary.{name}.step_s"], "s")
    put("adversary.step_calls", t["adversary.step_calls"], "count")

    put("harness.matrix_build_s", tracer.span_sum("harness.matrix_build"), "s")
    put("harness.check_s", tracer.span_sum("harness.check"), "s")
    put("harness.export_s", tracer.span_sum("harness.export"), "s")
    put("harness.replay_parse_s", tracer.span_sum("harness.replay_parse"), "s")
    put("harness.replay_s", tracer.span_sum("harness.replay"), "s")
    put("harness.trace_bytes", t["trace_bytes"], "bytes")

    put("tracing.overhead_s", overhead_s, "s")
    return out
