#!/usr/bin/env python3
"""Benchmark for byzgather: verification throughput on three workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload adversarial-mix --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of that checkout and driven only
through its public harness functions, one scenario at a time in this
process (``run_suite(..., workers=1)`` semantics).  Every verdict is
checked against the golden CSV rows in ``bench/golden``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics (from a traced run, see ``tracing.py``)
with ``--trace 1``.  README.md beside this file explains the workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = ROOT / ".bench_out"

WORKLOADS = ("adversarial-mix", "baseline-f0", "trace-replay")
GOLDEN_SUITES = ("acceptance-ns", "acceptance-sim", "baseline-f0")
SETUP_REPEATS = 7
REPLAY_STRATEGIES = ("lure", "random_walk", "mimic_good", "fake_group")

perf = time.perf_counter
cpu = time.process_time


# -- program under test ---------------------------------------------------------

def import_fresh():
    """Import ``byzgather.harness`` from this checkout, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "byzgather" or m.startswith("byzgather.")]:
        del sys.modules[name]
    harness = importlib.import_module("byzgather.harness")
    if Path(harness.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"byzgather imported from {harness.__file__}, not from {SRC}")
    return harness


def select(workload: str, harness, seed: int) -> list:
    """The workload's scenario configs, drawn from the built-in matrices by seed."""
    if workload == "baseline-f0":
        configs = harness.baseline_matrix()
        random.Random(f"baseline-f0:{seed}").shuffle(configs)
        return configs
    matrix = harness.acceptance_matrix("NS") + harness.acceptance_matrix("SIM")
    if workload == "trace-replay":
        by_id = {c.scenario_id: c for c in matrix}
        return [by_id[f"{variant}-random-connected-n5-f2-k38-{strategy}-adversarial_stagger-s{seed % 3}"]
                for variant in ("NS", "SIM") for strategy in REPLAY_STRATEGIES]
    if workload == "adversarial-mix":
        # One scenario per (variant, f, strategy, wake policy) cell; the
        # family, team rule and matrix seed of each are drawn by the seed,
        # from a sorted list so the draw does not depend on matrix order.
        cells: dict[tuple, list] = {}
        for c in matrix:
            cells.setdefault((c.variant, c.f, c.strategy, c.wake_policy), []).append(c)
        rng = random.Random(f"adversarial-mix:{seed}")
        return [rng.choice(sorted(cells[key], key=lambda c: c.scenario_id)) for key in sorted(cells)]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(harness, workload: str, seed: int) -> list:
    """Matrix build plus the certified sequence for every bound the workload uses."""
    configs = select(workload, harness, seed)
    for N, exploration_seed in sorted({(c.N, c.exploration_seed) for c in configs}):
        harness.certified_sequence(N, exploration_seed)
    return configs


def setup(workload: str, seed: int) -> tuple[object, list, float]:
    t0 = perf()
    harness = import_fresh()
    configs = prepare(harness, workload, seed)
    return harness, configs, perf() - t0


def load_golden() -> dict[str, str]:
    rows: dict[str, str] = {}
    for suite in GOLDEN_SUITES:
        lines = (GOLDEN / f"{suite}.csv").read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            rows[line.split(",", 1)[0]] = line
    return rows


# -- one pass over a workload ------------------------------------------------------

def agent_rounds(trace) -> int:
    """Model rounds each agent spends from its wake to its termination or the end."""
    total = 0
    for aid, wake in trace.wake_round.items():
        term = trace.termination.get(aid)
        total += (term[0] if term else trace.rounds) - wake + 1
    return total


def eventful_rounds(trace) -> int:
    """Rounds with a wake, a move, a protocol event or a termination."""
    rounds = set(trace.wake_round.values())
    for log in trace.position_log.values():
        rounds.update(r - 1 for r, _ in log[1:])
    rounds.update(r for r, _, _, _ in trace.events)
    rounds.update(r for r, _ in trace.termination.values())
    return len(rounds)


def run_pass(harness, configs, golden, replay: bool, tracer=None) -> dict:
    """Run, check (and, with ``replay``, export and replay) every scenario once."""
    res = {"wall": 0.0, "cpu": 0.0, "samples": [], "rounds": 0, "agent_rounds": 0,
           "trace_bytes": 0, "attempted": 0, "failed": 0, "rows": []}
    workdir = tempfile.mkdtemp(prefix="replay-", dir=OUT) if replay else None

    def scenario(cfg):
        t0 = perf()
        verdict, trace = harness.run_scenario(cfg)
        t1 = perf()
        replayed = True
        if replay:
            path = os.path.join(workdir, f"{cfg.scenario_id}.trace")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(harness.export_trace_text(trace, cfg))
            replayed, _ = harness.replay_trace_file(path)
        return verdict, trace, t1 - t0, replayed

    if tracer is not None:
        scenario = tracer.span("scenario", scenario)
    try:
        for cfg in configs:
            res["attempted"] += 1
            if tracer is not None:
                tracer.begin_scenario(cfg.scenario_id)
            w0, c0 = perf(), cpu()
            try:
                verdict, trace, sample, replayed = scenario(cfg)
            except Exception:
                traceback.print_exc()
                res["failed"] += 1
                continue
            finally:
                res["wall"] += perf() - w0
                res["cpu"] += cpu() - c0
            res["samples"].append(sample)
            row = verdict.csv_row()
            res["rows"].append(row)
            size = 0
            if replay:
                path = os.path.join(workdir, f"{cfg.scenario_id}.trace")
                size = os.path.getsize(path)
                os.remove(path)
            counts = {"rounds": trace.rounds, "agent_rounds": agent_rounds(trace), "trace_bytes": size}
            for key, value in counts.items():
                res[key] += value
            if tracer is not None:
                # A replay simulates the scenario again: count every engine run.
                runs, tracer.traces = tracer.traces, []
                tracer.end_scenario(rounds=sum(t.rounds for t in runs),
                                    agent_rounds=sum(agent_rounds(t) for t in runs),
                                    eventful_rounds=sum(eventful_rounds(t) for t in runs),
                                    trace_bytes=size)
            if row != golden.get(cfg.scenario_id) or not replayed:
                res["failed"] += 1
                print(f"MISMATCH {cfg.scenario_id}: got {row!r}, golden {golden.get(cfg.scenario_id)!r}"
                      + ("" if replayed else ", replay diverged"), file=sys.stderr)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    return res


# -- metrics ------------------------------------------------------------------------

def end_to_end(passes: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    """Metrics as {name: (value, unit)}, plus sample counts and the median for ``info``."""
    wall = sum(p["wall"] for p in passes)
    samples = [s for p in passes for s in p["samples"]]
    p85 = statistics.quantiles(samples, n=20, method="inclusive")[16] if len(samples) > 1 else samples[0]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "scenarios_per_s": (len(samples) / wall, "1/s"),
        "rounds_per_s": (sum(p["rounds"] for p in passes) / wall, "1/s"),
        "agent_rounds_per_s": (sum(p["agent_rounds"] for p in passes) / wall, "1/s"),
        "scenario_p85_s": (p85, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {
        "setup_s": len(setup_times), "wall_s": len(passes), "cpu_s": len(passes),
        "scenarios_per_s": len(samples), "rounds_per_s": len(samples),
        "agent_rounds_per_s": len(samples), "scenario_p85_s": len(samples),
        "scenario_p85_s_beyond": sum(s > p85 for s in samples),
    }
    # The median is reported but not bounded: under the bimodal speed of a
    # shared host it follows whichever speed held for most of the run.
    return metrics, {"samples": counts, "scenario_p50_s": statistics.median(samples)}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": git_commit()}


# -- modes --------------------------------------------------------------------------

def measure(args, golden) -> tuple[dict, dict, list]:
    """Untraced run: repeated set-up, then whole passes for about ``--seconds``."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        harness, configs, took = setup(args.workload, args.seed)
        setup_times.append(took)
    replay = args.workload == "trace-replay"
    passes = []
    start = perf()
    while True:
        passes.append(run_pass(harness, configs, golden, replay))
        if perf() - start + passes[-1]["wall"] > args.seconds:
            break
    if not any(p["samples"] for p in passes):
        raise RuntimeError("no scenario completed; nothing to measure")
    metrics, info = end_to_end(passes, setup_times)
    info.update(passes=len(passes), pass_wall_s=[p["wall"] for p in passes])
    return metrics, info, passes


def measure_layers(args, golden) -> tuple[dict, dict, list]:
    """Traced run: one untraced pass, then the same pass with wrappers installed."""
    harness, configs, _ = setup(args.workload, args.seed)
    replay = args.workload == "trace-replay"
    plain = run_pass(harness, configs, golden, replay)

    tracer = tracing.Tracer()
    harness = import_fresh()
    tracing.install(tracer)
    configs = prepare(harness, args.workload, args.seed)
    traced = run_pass(harness, configs, golden, replay, tracer)
    overhead = traced["wall"] - plain["wall"]
    strategies = importlib.import_module("byzgather.adversary").STRATEGY_NAMES
    metrics = tracing.layer_metrics(tracer, strategies, overhead)
    tracer.write_spans(str(OUT / f"spans-{args.workload}-s{args.seed}.jsonl"))
    info = {"passes": 1, "untraced_wall_s": plain["wall"], "traced_wall_s": traced["wall"],
            "tracing_overhead_s": overhead, "tracing_overhead_ratio": traced["wall"] / plain["wall"],
            "spans": len(tracer.spans)}
    return metrics, info, [plain, traced]


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':<36}{'unit':>8}" + "".join(f"{w:>18}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<36}{unit:>8}"
              + "".join(f"{results[w]['metrics'][name]['value']:>18.6g}" for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "byzgather" / "__init__.py").is_file():
        print(f"no byzgather sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    golden = load_golden()
    metrics, info, passes = (measure_layers if args.trace else measure)(args, golden)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info.update(environment(args))
    info["failed_frac"] = failed / attempted
    info["counts"] = {k: passes[-1][k] for k in ("rounds", "agent_rounds", "trace_bytes")}
    print(json.dumps({"info": info}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
