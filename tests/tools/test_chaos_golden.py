"""Golden-output guard for ``repro chaos``.

The stdout of a small catalogue campaign and a small fuzz block is
pinned byte-for-byte: every run's end time, failure count and verdict
must survive any restructuring of the chaos runner unchanged.
"""

import hashlib

import pytest

from repro.cli import main

GOLDEN = {
    "catalogue": (
        ["chaos", "--nodes", "8", "--iterations", "3", "--rounds", "0",
         "--no-cache"],
        "e6f84838fc2dd6646d9e42ef9862afe7b59a3455b0cbc29af81ed7eb08109dce",
    ),
    "fuzz": (
        ["chaos", "--fuzz", "--nodes", "8", "--fuzz-seeds", "2",
         "--rounds", "0"],
        "bf26bd287ef1154ee447686cfdbb723927cb3b0ec931f11a36ec68fff0e690b4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chaos_stdout_is_pinned(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
