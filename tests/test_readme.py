"""The Python example of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5          # four outcomes, then the scan maximum
    assert float(lines[-1]) <= 0.5
