"""The reach tracer's hook, keying and verdict checks (``tests/reach.py``)."""

import os

from tests import reach

TOY = '''
def called():
    def nested():
        return 1

    return nested()


def never_called():
    return 2


class Box:
    @property
    def size(self):
        return 3

    @staticmethod
    def make():
        return Box()
'''

SCRIPT = '''
from toy.mod import Box, called

called()
Box.make().size
'''


def _trace(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    (tmp_path / "script.py").write_text(SCRIPT)
    out = str(tmp_path / "reached.json")
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = reach.spawn([str(tmp_path / "script.py")], out, env, cwd=tmp_path)
    assert proc.wait(timeout=60) == 0
    return reach.functions(package), reach.entered(out)


def test_only_the_uncalled_function_is_reported(tmp_path):
    found, reached = _trace(tmp_path)
    assert sorted(name for name, _ in found.values()) == [
        "toy.mod:Box.make",
        "toy.mod:Box.size",
        "toy.mod:called",
        "toy.mod:called.<locals>.nested",
        "toy.mod:never_called",
    ]
    report, errors = reach.audit(found, reached, {})
    assert [line.split()[1] for line in report] == ["toy.mod:never_called"]
    assert errors == ["unreached with no verdict: toy.mod:never_called"]


def test_verdicts_are_checked(tmp_path):
    found, reached = _trace(tmp_path)
    ok = {"toy.mod:never_called": "path: kept for a test"}
    assert reach.audit(found, reached, ok)[1] == []
    stale = {**ok, "toy.mod:gone": "path: deleted", "toy.mod:called": "path: reached"}
    assert reach.audit(found, reached, stale)[1] == [
        "stale verdict, no such function: toy.mod:gone",
        "stale verdict, the trace reached it: toy.mod:called",
    ]
    dead = {"toy.mod:never_called": "dead: delete it"}
    assert reach.audit(found, reached, dead)[1] == [
        f"verdict category not in {reach.CATEGORIES}: toy.mod:never_called"
    ]
