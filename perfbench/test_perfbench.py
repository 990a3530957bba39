"""Checks of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_perfbench.py

The child-process tests tag every process they start with a unique
environment variable and then look for survivors carrying it: no server may
outlive a normal run, a parent that raises, or a parent killed with SIGKILL.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, in_window, layer_totals, self_times  # noqa: E402
from workloads import rows_match  # noqa: E402

#: runs one server child from a separate interpreter, then misbehaves.
PARENT = """
import sys, time
sys.path.insert(0, {here!r})
from child import Child
with Child(["serve"]) as child:
    child.wait_event("ready")
    print("up", flush=True)
    if sys.argv[1] == "raise":
        raise RuntimeError("parent failed while the server was up")
    time.sleep(120)
"""


def _tagged_env():
    marker = uuid.uuid4().hex
    return marker, {**os.environ, "PERFBENCH_TEST_MARKER": marker}


def _survivors(marker: str):
    """Pids of live processes whose environment carries ``marker``."""
    needle = f"PERFBENCH_TEST_MARKER={marker}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ.split(b"\0") and state != "Z":
            found.append(int(entry.name))
    return found


def _wait_gone(marker: str, timeout: float):
    deadline = time.monotonic() + timeout
    while _survivors(marker) and time.monotonic() < deadline:
        time.sleep(0.2)
    return _survivors(marker)


def _start_parent(mode: str, env):
    parent = subprocess.Popen(
        [sys.executable, "-c", PARENT.format(here=str(HERE)), mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    assert parent.stdout.readline().strip() == "up"
    return parent


def test_normal_run_leaves_no_child():
    marker, env = _tagged_env()
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_http",
         "--seed", "0", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["failed"] == 0
    assert _survivors(marker) == []


def test_raising_parent_reaps_its_server():
    marker, env = _tagged_env()
    parent = _start_parent("raise", env)
    assert parent.wait(timeout=60) != 0
    parent.stdout.close()
    assert _survivors(marker) == []


def test_server_ends_when_its_parent_is_killed():
    marker, env = _tagged_env()
    parent = _start_parent("sleep", env)
    assert len(_survivors(marker)) == 2          # the parent and its server
    parent.send_signal(signal.SIGKILL)
    parent.wait(timeout=10)
    parent.stdout.close()
    assert _wait_gone(marker, timeout=15) == []


def test_self_time_subtracts_direct_children():
    spans = [("outer", 0.0, 10.0, -1, 0), ("mid", 1.0, 6.0, 0, 0),
             ("leaf", 2.0, 3.0, 1, 0), ("leaf", 7.0, 9.0, 0, 0), None]
    assert self_times(spans) == [3.0, 4.0, 1.0, 2.0, 0.0]
    totals = layer_totals(spans, in_window(spans, 0.0, 10.0))
    assert totals["leaf"]["calls"] == 2 and totals["leaf"]["self_s"] == 3.0


def test_tracer_restores_entry_points_and_keeps_outputs():
    from repro.nn.models import build_model_with_dataset
    from repro.nn.network import Network

    network, dataset, _ = build_model_with_dataset("lenet", seed=0)
    network.eval()
    original = Network.forward
    untraced = network.forward(dataset.val_x[:8])
    with Tracer() as tracer:
        traced = network.forward(dataset.val_x[:8])
    assert Network.forward is original
    assert traced.tobytes() == untraced.tobytes()
    assert [span[0] for span in tracer.spans] == ["nn.forward"]



def test_rows_match_checks_outputs_within_tolerance():
    want = {"score": "0x1.6p-4", "outputs": [[1.0, -2.0], [float("nan"), 3.0]]}
    close = {"score": "0x1.6p-4", "outputs": [[1.0000001, -2.0], [float("nan"), 3.0]]}
    wrong = {"score": "0x1.6p-4", "outputs": [[1.5, -2.0], [float("nan"), 3.0]]}
    assert rows_match(close, want)
    assert not rows_match(wrong, want)
    assert not rows_match({**want, "score": "0x1.9p-4"}, want)
    assert not rows_match({"score": "0x1.6p-4"}, want)
