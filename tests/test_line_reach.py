"""tools/line_reach.py finds the one line of a tiny module that a call never runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "line_reach.py"
_SPEC = importlib.util.spec_from_file_location("line_reach", _PATH)
line_reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_reach)

TINY = '''"""A tiny module."""


def sign(x):
    if x < 0:
        return -1
    return 1
'''


def test_lists_the_one_unreached_line(tmp_path):
    path = (tmp_path / "tiny.py").resolve()
    path.write_text(TINY, encoding="utf-8")
    assert line_reach.executable_lines(path) == {1, 4, 5, 6, 7}
    recorder = line_reach.LineRecorder([path])
    namespace = {}
    recorder.start()
    try:
        exec(compile(TINY, str(path), "exec"), namespace)
        assert namespace["sign"](3) == 1
    finally:
        recorder.stop()
    assert recorder.unreached() == [(str(path), 6)]
