"""The benchmark's span tracer still finds the bellsym names it patches.

``perfbench/spans.py`` looks up some bellsym functions and class methods by
name (``symmetry.minimize``, ``KrausFactors.from_gamma``,
``KrausFactors.diagonals``, ``ChannelParams.identical_rates``,
``ScanResult.to_dict``) when a ``Tracer`` is built, and raises if one is
gone. Building one here makes a rename fail the suite rather than only the
traced benchmark run.
"""

import importlib
from pathlib import Path

from bellsym import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_its_names_and_records_spans(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with tracer.installed(0):       # patches cli.main itself, so look it up
        assert cli.main(["kraus", "--gamma", "0.5",
                         "-o", str(tmp_path / "k.json")]) == 0
    totals = spans.layer_totals(tracer.names, tracer.arrays())
    assert totals["cli"]["calls"] == 1
    assert totals["kraus"]["calls"] >= 1
