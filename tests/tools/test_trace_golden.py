"""Golden-output guard for the tracer's readers.

What the wire views, the span timeline, the critical path and the
Chrome-trace exporter print is pinned byte-for-byte: the stdout of
``examples/protocol_trace.py`` and, on both networks, the stdout of
``repro trace`` (less its ``wrote …`` line, which names the output
path) and the JSON file it writes.

Each command runs as a subprocess, the way a user runs it: the pins
cover the real command line and its stdout, with no state carried over
from the test process (an installed decision table, for one).  Packet
``wire_id``s are numbered per fabric, so they do not depend on what
ran before in the same process.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLE_STDOUT = "271603b3bac5e3c5b91455705895c232cae7fb332688f5a51c79cea68ddb232a"

TRACE = {
    "myrinet": (
        "396e7d31ded850e85f2e2316874020582242c4eb36e517b9a2e2c5247fe54c7e",
        "7f028a3538f6c7f8f98ff38858bb917b97a95e6489dda9fffb4f62dcb77d3cd8",
    ),
    "quadrics": (
        "2df786dde337bae867e009eb9d0785187ae07a7de514b1dbc65751ad66e9e54c",
        "db90a815fd281d2198c36ba71d4818536576f1d9344127fc84163fbdf63099d3",
    ),
}


def _run(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_protocol_trace_example_is_pinned():
    out = _run(str(ROOT / "examples" / "protocol_trace.py"))
    assert _sha256(out.encode()) == EXAMPLE_STDOUT, out


@pytest.mark.parametrize("network", sorted(TRACE))
def test_repro_trace_is_pinned(network, tmp_path):
    stdout_digest, json_digest = TRACE[network]
    out_path = tmp_path / "trace.json"
    out = _run("-m", "repro", "trace", "--network", network, "-n", "8",
               "--no-cache", "--out", str(out_path))
    kept = "".join(
        line for line in out.splitlines(keepends=True)
        if not line.startswith("wrote ")
    )
    assert _sha256(kept.encode()) == stdout_digest, kept
    assert _sha256(out_path.read_bytes()) == json_digest
