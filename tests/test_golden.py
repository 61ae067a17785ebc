"""Golden sha256 digests of CLI outputs.

Criterion 10 only proves that two runs of one build agree; these digests pin
the output bytes across refactors. Each case reruns one CLI invocation at a
small size and compares the sha256 of the file it writes with the digest in
``golden/cli_sha256.json``. Digests can depend on the numpy/BLAS build, which
is recorded next to them.

A change that alters output bytes on purpose regenerates the digests of
the cases it changes, and only those, with

    PYTHONPATH=src python tests/test_golden.py NAME...

and says which fields changed, and why. The tool refuses a name that is not
a case, and refuses to run on a build other than the recorded one, whose
digests of the other cases could differ.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bellsym.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_sha256.json"

CASES = {
    "symmetry-scan-B3-g0-2k": ["--seed", "7", "symmetry-scan", "--state", "B3",
                               "--gamma", "0.0", "--n-samples", "2000"],
    "symmetry-scan-B1-g0.5-2k": ["--seed", "8", "symmetry-scan", "--state",
                                 "B1", "--gamma", "0.5", "--n-samples", "2000"],
    "symmetry-scan-B2-g0.7-1k": ["--seed", "9", "symmetry-scan", "--state",
                                 "B2", "--gamma", "0.7", "--n-samples", "1000"],
    "optimize-B3-123": ["--seed", "7", "optimize", "--state", "B3",
                        "--gamma", "0.0", "--pattern", "1,2,3",
                        "--budget", "200", "--scan-samples", "500"],
    "optimize-B3-1-g0": ["--seed", "11", "optimize", "--state", "B3",
                         "--gamma", "0.0", "--pattern", "1",
                         "--budget", "2400", "--scan-samples", "200"],
    "optimize-B3-1-g0.3": ["--seed", "12", "optimize", "--state", "B3",
                           "--gamma", "0.3", "--pattern", "1",
                           "--budget", "2400", "--scan-samples", "200"],
    "optimize-B3-12-g0": ["--seed", "13", "optimize", "--state", "B3",
                          "--gamma", "0.0", "--pattern", "1,2",
                          "--budget", "2400", "--scan-samples", "200"],
    "optimize-B3-12-g0.3": ["--seed", "14", "optimize", "--state", "B3",
                            "--gamma", "0.3", "--pattern", "1,2",
                            "--budget", "2400", "--scan-samples", "200"],
    "montecarlo-B1-5k": ["--seed", "7", "montecarlo", "--state", "B1",
                         "--rate", "1.0", "--time", "1.0",
                         "--n-trajectories", "5000"],
    "kraus-canonical": ["kraus", "--gamma", "0.5"],
    "kraus-choi": ["kraus", "--gamma", "0.5", "--method", "choi"],
    "evolve-B3": ["evolve", "--state", "B3", "--rate", "1.0", "--t-max", "5",
                  "--n-points", "21"],
    "evolve-B1-rate0": ["evolve", "--state", "B1", "--rate", "0", "--t-max",
                        "5", "--n-points", "21"],
    "evolve-B2-1pt": ["evolve", "--state", "B2", "--rate", "1.0", "--t-max",
                      "5", "--n-points", "1"],
    "spinbath-random-state-B4": ["--seed", "7", "spinbath", "--n-spins", "10",
                                 "--amplitudes", "random", "--t-max", "20",
                                 "--n-points", "21", "--state", "B4"],
    "spinbath": ["--seed", "7", "spinbath", "--n-spins", "10", "--t-max", "20",
                 "--n-points", "21"],
    "spinbath-state-B3": ["--seed", "7", "spinbath", "--n-spins", "10",
                          "--t-max", "20", "--n-points", "21",
                          "--state", "B3"],
}


def output_sha256(argv, directory: Path) -> str:
    out = directory / "out"
    assert main(argv + ["-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def build_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    digest = output_sha256(CASES[name], tmp_path)
    assert digest == golden["sha256"][name], (
        f"{name}: output bytes changed (digests recorded with "
        f"{golden['build']}, running {build_info()})")


def regenerate(names, path: Path = GOLDEN) -> None:
    """Rewrite the digests of the cases ``names`` in ``path``, no other."""
    golden = json.loads(path.read_text())
    unknown = sorted(set(names) - set(CASES))
    if not names or unknown:
        raise SystemExit(f"name the cases to regenerate; unknown: {unknown}")
    if golden["build"] != build_info():
        raise SystemExit(f"digests were recorded with {golden['build']}, "
                         f"running {build_info()}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            golden["sha256"][name] = output_sha256(CASES[name], Path(tmp))
    path.write_text(json.dumps(golden, indent=2) + "\n")


@pytest.fixture
def golden_copy(tmp_path) -> Path:
    path = tmp_path / "cli_sha256.json"
    path.write_bytes(GOLDEN.read_bytes())
    return path


def test_regenerate_rewrites_only_the_named_digests(golden_copy):
    golden = json.loads(golden_copy.read_text())
    golden["sha256"]["kraus-canonical"] = "0" * 64
    golden["sha256"]["kraus-choi"] = "1" * 64
    golden_copy.write_text(json.dumps(golden, indent=2) + "\n")
    regenerate(["kraus-canonical"], golden_copy)
    golden["sha256"]["kraus-canonical"] = \
        json.loads(GOLDEN.read_text())["sha256"]["kraus-canonical"]
    assert golden_copy.read_text() == json.dumps(golden, indent=2) + "\n"


@pytest.mark.parametrize("names", [[], ["kraus-canonical", "no-such-case"]])
def test_regenerate_refuses_unknown_names(golden_copy, names):
    with pytest.raises(SystemExit, match="unknown"):
        regenerate(names, golden_copy)
    assert golden_copy.read_bytes() == GOLDEN.read_bytes()


def test_regenerate_refuses_another_build(golden_copy):
    golden = json.loads(golden_copy.read_text())
    golden["build"]["blas"] = "another-blas 0.0"
    before = json.dumps(golden, indent=2) + "\n"
    golden_copy.write_text(before)
    with pytest.raises(SystemExit, match="recorded with"):
        regenerate(["kraus-canonical"], golden_copy)
    assert golden_copy.read_text() == before


if __name__ == "__main__":
    regenerate(sys.argv[1:])
