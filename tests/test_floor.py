"""The floor runner, run in-process on the running interpreter, so that the
check it makes under older and newer interpreters cannot rot."""

from __future__ import annotations

import sys

import floor


def test_the_floor_check_holds_on_the_running_interpreter(capsys):
    assert floor.main([]) == 0
    out = capsys.readouterr().out
    assert out.startswith("floor: ") and out.endswith(f" {sys.executable}\n") and out.count("\n") == 1
