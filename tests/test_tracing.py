"""The benchmark's tracer still finds every name it wraps in the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from byzgather import harness
cfg = harness.parse_scenario_text("family = ring\\nn = 5\\nk = 17\\nf = 1\\nstrategy = fake_target\\n")
verdict, _ = harness.run_scenario(cfg)
assert verdict.ok, verdict.reasons()
print(len(tracer.traces), tracer.sums["adversary.step_calls"])
"""


def test_bench_tracer_installs_and_captures_a_run():
    # A name dropped from src/ fails here instead of breaking `bench/run.py --trace 1`.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traces, byzantine_steps = proc.stdout.split()
    assert traces == "1"
    assert float(byzantine_steps) >= 1  # a held pose is stepped in its wake round
