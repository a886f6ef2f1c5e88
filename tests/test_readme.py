"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert abs(float(lines[0]) - 4 / 9) < 1e-12
    assert lines[1:3] == ["(9, 4)", "True"]
    assert abs(float(lines[3]) - 2 / 9) < 1e-12
    assert "(True, True, True)" in lines
