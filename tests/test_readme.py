"""The examples of README.md run as written."""

import json
import re
from pathlib import Path

from bellsym.cli import main

from conftest import assert_valid_for_schema

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5          # four outcomes, then the scan maximum
    assert float(lines[-1]) <= 0.5


def test_readme_bath_file_loads(tmp_path):
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", text, re.DOTALL)
    assert_valid_for_schema(json.loads(example), "bath_spec")
    bath_file = tmp_path / "mybath.json"
    bath_file.write_text(example, encoding="utf-8")
    assert main(["spinbath", "--bath-file", str(bath_file), "--t-max", "10",
                 "-o", str(tmp_path / "bath.csv")]) == 0
