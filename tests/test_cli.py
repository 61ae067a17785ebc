import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import bellsym
from bellsym import cli, kraus, spinbath, symmetry
from bellsym.cli import main
from bellsym.kraus import CompletePositivityError

from conftest import assert_valid_for_schema


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestEvolve:
    def test_corner_decay_values(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(["evolve", "--state", "B1", "--rate", "1.0",
                     "--t-max", "2.0", "--n-points", "3", "-o", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        t_col = header.index("t")
        corner_re = header.index("rho14_re")
        assert np.allclose(rows[:, t_col], [0.0, 1.0, 2.0], atol=0)
        expected = [0.5, 0.5 * math.exp(-1.0), 0.5 * math.exp(-2.0)]
        assert np.allclose(rows[:, corner_re], expected, atol=1e-12)

    def test_time_zero_row_is_projector(self, tmp_path):
        out = tmp_path / "evolve.csv"
        main(["evolve", "--state", "B2", "--rate", "2.0", "--t-max", "1.0",
              "--n-points", "2", "-o", str(out)])
        header, rows = read_csv(out)
        rho0 = symmetry.BellState.B2.density()
        cells = rows[0][2:]
        recon = (cells[0::2] + 1j * cells[1::2]).reshape(4, 4)
        assert np.array_equal(recon, rho0)

    def test_populations_constant(self, tmp_path):
        out = tmp_path / "evolve.csv"
        main(["evolve", "--state", "B3", "--rate", "1.5", "--t-max", "4.0",
              "--n-points", "9", "-o", str(out)])
        header, rows = read_csv(out)
        for name in ("rho11_re", "rho22_re", "rho33_re", "rho44_re"):
            col = rows[:, header.index(name)]
            assert np.all(col == col[0])

    def test_bad_state_name_is_usage_error(self, tmp_path):
        code = main(["evolve", "--state", "B9", "--rate", "1.0",
                     "--t-max", "1.0"])
        assert code == 2

    def test_negative_rate_is_usage_error(self):
        code = main(["evolve", "--state", "B1", "--rate", "-1.0",
                     "--t-max", "1.0"])
        assert code == 2

    @pytest.mark.parametrize("rate", ["inf", "nan", "-1"])
    def test_bad_rate_is_usage_error(self, tmp_path, capsys, rate):
        out = tmp_path / "evolve.csv"
        code = main(["evolve", "--state", "B1", f"--rate={rate}",
                     "--t-max", "1.0", "--n-points", "3", "-o", str(out)])
        assert code == 2
        assert "rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_rate_times_time_is_silent(self, tmp_path, capsys):
        # rate * t overflows; the factor is an exact 0 with no warning
        out = tmp_path / "evolve.csv"
        code = main(["evolve", "--state", "B3", "--rate", "1e300",
                     "--t-max", "1e300", "--n-points", "3", "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(out)
        assert list(rows[:, 1]) == [1.0, 0.0, 0.0]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["evolve", "--state", "B1", "--rate", "0.7", "--t-max", "3.0",
                "--n-points", "17"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(f1)]) == 0
        assert main(args + ["-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


def kraus_document(tmp_path, gamma: float, method: str) -> dict:
    """The document ``bellsym kraus`` writes for ``gamma`` and ``method``."""
    out = tmp_path / "kraus.json"
    assert main(["kraus", f"--gamma={gamma!r}", "--method", method,
                 "-o", str(out)]) == 0
    return json.loads(out.read_text())


def operators_of(doc: dict) -> np.ndarray:
    """The (k, 4, 4) stack a Kraus document's [re, im] pairs describe."""
    pairs = np.array(doc["operators"], dtype=float)
    return pairs.view(np.complex128).reshape(-1, 4, 4)


def library_operators(gamma: float, method: str) -> np.ndarray:
    """The operators of the set ``bellsym kraus --method`` writes."""
    if method == "canonical":
        return kraus.canonical_kraus(gamma).operators
    choi = kraus.choi_from_factors(gamma, gamma)
    return kraus.kraus_from_choi(choi).operators


class TestKrausCommand:
    def test_canonical_document(self, tmp_path):
        doc = kraus_document(tmp_path, 0.5, "canonical")
        assert_valid_for_schema(doc, "kraus_set")
        assert list(doc) == ["schema", "label", "gamma", "operators"]
        assert doc["label"] == "canonical" and doc["gamma"] == 0.5
        assert operators_of(doc).tobytes() == \
            library_operators(0.5, "canonical").tobytes()

    def test_choi_method_is_channel_equivalent(self, tmp_path):
        doc = kraus_document(tmp_path, 0.3, "choi")
        assert_valid_for_schema(doc, "kraus_set")
        assert doc["label"] == "choi-extracted" and doc["gamma"] == 0.3
        ops = operators_of(doc)
        assert ops.tobytes() == library_operators(0.3, "choi").tobytes()
        assert np.max(np.abs(kraus.choi_of_kraus(ops) - kraus.choi_of_kraus(
            kraus.canonical_kraus(0.3)))) <= 1e-9

    @pytest.mark.parametrize("gamma", ["-0.5", "1.5", "nan"])
    @pytest.mark.parametrize("method", ["canonical", "choi"])
    def test_gamma_out_of_range_is_usage_error(self, tmp_path, capsys,
                                               method, gamma):
        out = tmp_path / "kraus.json"
        assert main(["kraus", f"--gamma={gamma}", "--method", method,
                     "-o", str(out)]) == 2
        assert "gamma must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma", [-0.5, None])
    def test_schema_refuses_gamma_outside_unit_interval(self, tmp_path,
                                                         gamma):
        jsonschema = pytest.importorskip("jsonschema")
        doc = {**kraus_document(tmp_path, 0.5, "choi"), "gamma": gamma}
        with pytest.raises(jsonschema.ValidationError):
            assert_valid_for_schema(doc, "kraus_set")

    def test_numerical_failure_maps_to_exit_4(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise CompletePositivityError("synthetic failure")
        monkeypatch.setattr(kraus, "kraus_from_choi", explode)
        code = main(["kraus", "--gamma", "0.5", "--method", "choi",
                     "-o", str(tmp_path / "x.json")])
        assert code == 4


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gamma=st.floats(0.0, 1.0),
       method=st.sampled_from(["canonical", "choi"]))
def test_kraus_document_round_trips_bitwise(gamma, method):
    # the only Kraus sets a file ever holds are the two methods' sets
    with tempfile.TemporaryDirectory() as tmp:
        doc = kraus_document(Path(tmp), gamma, method)
    assert_valid_for_schema(doc, "kraus_set")
    assert doc["gamma"] == gamma
    assert operators_of(doc).tobytes() == \
        library_operators(gamma, method).tobytes()


class TestSymmetryScanCommand:
    def test_report_shape_and_bound(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["--seed", "9", "symmetry-scan", "--state", "B3",
                     "--gamma", "0.0", "--n-samples", "400",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert_valid_for_schema(doc, "scan_report")
        assert doc["state"] == "B3" and doc["seed"] == 9
        assert doc["p_max"] <= 0.5 + 1e-9
        assert sum(h["count"] for h in doc["histogram"]) == 400

    def test_corner_state_concentrated_at_one(self, tmp_path):
        out = tmp_path / "scan.json"
        main(["symmetry-scan", "--state", "B1", "--gamma", "0.5",
              "--n-samples", "200", "-o", str(out)])
        doc = json.loads(out.read_text())
        top = [h for h in doc["histogram"] if h["count"] > 0]
        assert len(top) == 1 and top[0]["bin"] == pytest.approx(1.0)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["--seed", "3", "symmetry-scan", "--state", "B3",
                "--gamma", "0.2", "--n-samples", "150"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(f1)]) == 0
        assert main(args + ["-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestOptimizeCommand:
    def test_three_row_pattern_report(self, tmp_path):
        out = tmp_path / "opt.json"
        code = main(["--seed", "1", "optimize", "--state", "B3",
                     "--gamma", "0.0", "--pattern", "1,2,3",
                     "--budget", "800", "--scan-samples", "300",
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert_valid_for_schema(doc, "optimize_report")
        assert doc["pattern"] == [1, 2, 3]
        assert doc["p_max"] == pytest.approx(0.5, abs=1e-9)
        assert doc["scan"]["p_max"] == pytest.approx(0.5, abs=1e-9)
        assert doc["agreement"]["within_tolerance"] is True
        mixer = np.array([complex(re, im) for re, im in doc["mixer"]])
        mixer = mixer.reshape(4, 4)
        assert np.max(np.abs(mixer.conj().T @ mixer - np.eye(4))) <= 1e-10

    def test_corner_state_trivial_maximum(self, tmp_path):
        out = tmp_path / "opt.json"
        code = main(["optimize", "--state", "B1", "--gamma", "0.0",
                     "--pattern", "", "--budget", "400",
                     "--scan-samples", "100", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["p_max"] == pytest.approx(1.0, abs=1e-9)
        assert doc["pattern"] == []

    def test_scan_below_the_optimum_agrees(self, tmp_path):
        # a random scan only bounds the maximum from below
        out = tmp_path / "opt.json"
        code = main(["optimize", "--state", "B3", "--gamma", "0",
                     "--pattern", "1", "--budget", "2400", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["agreement"]["difference"] \
            == doc["scan"]["p_max"] - doc["p_max"] < 0.0
        assert doc["agreement"]["within_tolerance"] is True

    def test_scan_above_the_optimum_disagrees(self, tmp_path, monkeypatch):
        monkeypatch.setattr(symmetry, "maximize_symmetric_probability",
                            lambda *args, **kwargs: (0.25, np.eye(4)))
        out = tmp_path / "opt.json"
        code = main(["optimize", "--state", "B3", "--gamma", "0",
                     "--pattern", "1", "--scan-samples", "200",
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["agreement"]["difference"] \
            == doc["scan"]["p_max"] - 0.25 > doc["agreement"]["tolerance"]
        assert doc["agreement"]["within_tolerance"] is False

    def test_four_row_pattern_is_usage_error(self):
        code = main(["optimize", "--state", "B3", "--gamma", "0.0",
                     "--pattern", "1,2,3,4"])
        assert code == 2

    def test_zero_budget_is_usage_error(self):
        code = main(["optimize", "--state", "B3", "--gamma", "0.0",
                     "--pattern", "1", "--budget", "0"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_agreement_tol_is_usage_error(self, tmp_path, capsys,
                                              monkeypatch, tol):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")
        monkeypatch.setattr(symmetry, "maximize_symmetric_probability",
                            no_search)
        out = tmp_path / "opt.json"
        code = main(["optimize", "--state", "B3", "--gamma", "0.0",
                     "--pattern", "1", "--budget", "1", "--scan-samples", "1",
                     f"--agreement-tol={tol}", "-o", str(out)])
        assert code == 2
        assert "--agreement-tol must be finite" in capsys.readouterr().err
        assert not out.exists()


AMP = 1.0 / math.sqrt(2.0)
GOOD_SPIN = {"alpha": [AMP, 0.0], "beta": [AMP, 0.0], "omega": 1.0}

# Bath files that json.load itself refuses: not UTF-8, nested beyond the
# recursion limit, an int of more digits than Python converts.
UNREADABLE_BATH_FILES = [
    b'\xff\xfe{"spins": []}',
    b"[" * 200000,
    b'{"spins": [{"alpha": [1, 0], "beta": [0, 0], "omega": 1'
    + b"0" * 5000 + b"}]}",
]
# A bath file whose omega is an int beyond the float range.
HUGE_OMEGA_BATH_FILE = json.dumps(
    {"spins": [{**GOOD_SPIN, "omega": 10**400}]}).encode()
# Spins of the schema's form whose numbers the bath refuses: an omega that
# json reads as inf, and an amplitude whose square overflows to inf.
OUT_OF_RANGE_SPINS = [
    '{"alpha": [0.7071067811865476, 0], "beta": [0.7071067811865476, 0], '
    '"omega": 1e400}',
    '{"alpha": [0.7071067811865475, 0.0], '
    '"beta": [0.0, 1.3407807929942597e+154], "omega": 0.0}',
]


def bath_file_of(spins: list[str]) -> bytes:
    """A bath file holding the JSON texts ``spins`` as its spins."""
    return ('{"spins": [' + ", ".join(spins) + "]}").encode()


def run_spinbath_on(tmp_path, content: bytes) -> tuple[int, Path]:
    """``spinbath --bath-file`` on a file holding ``content``: the exit
    code and the path of the ``-o`` table."""
    bath_file = tmp_path / "bath.json"
    bath_file.write_bytes(content)
    out = tmp_path / "sb.csv"
    code = main(["spinbath", "--bath-file", str(bath_file), "--t-max", "1",
                 "--n-points", "2", "-o", str(out)])
    return code, out


class TestSpinbathCommand:
    def test_single_spin_cosine_column(self, tmp_path):
        bath_file = tmp_path / "bath.json"
        amp = 1.0 / math.sqrt(2.0)
        bath_file.write_text(json.dumps({
            "label": "one-spin",
            "spins": [{"alpha": [amp, 0.0], "beta": [amp, 0.0], "omega": 1.0}],
        }))
        out = tmp_path / "sb.csv"
        code = main(["spinbath", "--bath-file", str(bath_file),
                     "--t-max", "3.0", "--n-points", "25", "-o", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        t = rows[:, header.index("t")]
        r_abs = rows[:, header.index("r_abs")]
        assert np.allclose(r_abs, np.abs(np.cos(2.0 * t)), atol=1e-12)
        assert rows[0, header.index("r_re")] == 1.0
        assert rows[0, header.index("r_im")] == 0.0

    @pytest.mark.parametrize("with_file, with_n_spins",
                             [(True, True), (False, False)])
    def test_bath_source_is_exactly_one_flag(self, tmp_path, capsys,
                                             with_file, with_n_spins):
        bath_file = tmp_path / "bath.json"
        bath_file.write_bytes(bath_file_of([json.dumps(GOOD_SPIN)]))
        out = tmp_path / "sb.csv"
        argv = ["spinbath", "--t-max", "1", "--n-points", "2", "-o", str(out)]
        if with_file:
            argv += ["--bath-file", str(bath_file)]
        if with_n_spins:
            argv += ["--n-spins", "3"]
        assert main(argv) == 2
        assert "--bath-file" in capsys.readouterr().err
        assert not out.exists()

    def test_random_bath_modulus_bound(self, tmp_path):
        out = tmp_path / "sb.csv"
        code = main(["--seed", "12", "spinbath", "--n-spins", "20",
                     "--t-max", "50.0", "--n-points", "101", "-o", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert np.all(rows[:, header.index("r_abs")] <= 1.0)

    def test_reduced_state_columns(self, tmp_path):
        out = tmp_path / "sb.csv"
        code = main(["--seed", "4", "spinbath", "--n-spins", "6",
                     "--amplitudes", "random", "--t-max", "2.0",
                     "--n-points", "5", "--state", "B3", "-o", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert "rho23_re" in header
        bath = spinbath.random_bath(6, seed=4, equal_amplitudes=False)
        t = rows[3, header.index("t")]
        expected = spinbath.reduced_density(
            *spinbath.identical_bath(bath), symmetry.BellState.B3.vector,
            float(t))
        got_re = rows[3, header.index("rho23_re")]
        got_im = rows[3, header.index("rho23_im")]
        assert complex(got_re, got_im) == pytest.approx(expected[1, 2],
                                                        abs=1e-15)

    def test_malformed_bath_file_exit_3(self, tmp_path, capsys):
        bath_file = tmp_path / "bad.json"
        bath_file.write_text("{ this is not json\n")
        code = main(["spinbath", "--bath-file", str(bath_file),
                     "--t-max", "1.0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "line" in err

    def test_invalid_bath_content_exit_3(self, tmp_path, capsys):
        bath_file = tmp_path / "bad.json"
        bath_file.write_text(json.dumps({
            "label": "broken",
            "spins": [{"alpha": [1.0, 0.0], "beta": [1.0, 0.0], "omega": 1.0}],
        }))
        code = main(["spinbath", "--bath-file", str(bath_file),
                     "--t-max", "1.0"])
        assert code == 3
        assert "malformed" in capsys.readouterr().err

    def test_missing_bath_source_is_usage_error(self):
        assert main(["spinbath", "--t-max", "1.0"]) == 2

    def test_nan_amplitude_in_bath_file_exit_3(self, tmp_path, capsys):
        # Python's json module reads NaN; the bath spec must reject it
        bath_file = tmp_path / "nan.json"
        bath_file.write_text('{"spins": [{"alpha": [NaN, 0], '
                             '"beta": [0.7071067811865476, 0], "omega": 1}]}')
        out = tmp_path / "sb.csv"
        code = main(["spinbath", "--bath-file", str(bath_file),
                     "--t-max", "1.0", "-o", str(out)])
        assert code == 3
        assert "spin 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", UNREADABLE_BATH_FILES
                             + [HUGE_OMEGA_BATH_FILE],
                             ids=["not-utf8", "nested-200000",
                                  "int-of-5000-digits", "omega-10**400"])
    def test_unreadable_bath_file_exit_3(self, tmp_path, capsys, content):
        code, out = run_spinbath_on(tmp_path, content)
        assert code == 3
        assert capsys.readouterr().err.startswith("error: bath file")
        assert not out.exists()

    @pytest.mark.parametrize("spin", [
        {"alpha": [1.0]},
        {**GOOD_SPIN, "alpha": [float("nan"), 0.0]},
        {**GOOD_SPIN, "alpha": [AMP, 0.0, 9.0]},
        {**GOOD_SPIN, "beta": AMP},
        {**GOOD_SPIN, "omega": [1.0]},
        {**GOOD_SPIN, "omega": True},
        {**GOOD_SPIN, "alpha": [True, False]},
        {**GOOD_SPIN, "beta": ["0.5", 0.0]},
        {**GOOD_SPIN, "omega": "0.5"},
        {**GOOD_SPIN, "omega": None},
        {**GOOD_SPIN, "omega": 10**400},
        {**GOOD_SPIN, "extra": 2},
        {**GOOD_SPIN, "label": "x"},
        [AMP, AMP, 1.0],
    ])
    @pytest.mark.parametrize("k", [0, 1])
    def test_bath_spin_that_is_not_the_schema_exit_3(self, tmp_path, capsys,
                                                      spin, k):
        # alpha and beta are two JSON numbers each, omega is one
        spins = [GOOD_SPIN, spin] if k else [spin, GOOD_SPIN]
        code, out = run_spinbath_on(
            tmp_path, json.dumps({"spins": spins}).encode())
        assert code == 3
        assert f"spin {k}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spin", OUT_OF_RANGE_SPINS,
                             ids=["omega-1e400", "beta-1.34e154"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_bath_spin_out_of_range_exit_3(self, tmp_path, capsys, spin, k):
        good = json.dumps(GOOD_SPIN)
        code, out = run_spinbath_on(
            tmp_path, bath_file_of([good, spin] if k else [spin, good]))
        assert code == 3
        assert f"is malformed: spin {k}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"spins": [GOOD_SPIN], "more": 1}, "more"),
        ({"spins": [{**GOOD_SPIN, "extra": 2}], "more": 1}, "more"),
        ({"label": "x", "spins": [GOOD_SPIN], "schema": "v1"}, "schema"),
    ])
    def test_unknown_top_level_key_exit_3(self, tmp_path, capsys, doc, key):
        code, out = run_spinbath_on(tmp_path, json.dumps(doc).encode())
        assert code == 3
        assert f"is malformed: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", [5, None, True, ["x"], {"x": "y"}])
    def test_label_that_is_not_a_string_exit_3(self, tmp_path, capsys,
                                               label):
        doc = {"label": label, "spins": [GOOD_SPIN]}
        code, out = run_spinbath_on(tmp_path, json.dumps(doc).encode())
        assert code == 3
        assert "is malformed: 'label' must be a string" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_label_is_optional(self, tmp_path):
        doc = {"spins": [GOOD_SPIN]}
        assert_valid_for_schema(doc, "bath_spec")
        code, out = run_spinbath_on(tmp_path, json.dumps(doc).encode())
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("doc", [[], {}, {"spins": []}, {"spins": {}},
                                     {"spins": "x"}, "spins", 1, None])
    def test_bath_file_without_spins_exit_3(self, tmp_path, capsys, doc):
        code, out = run_spinbath_on(tmp_path, json.dumps(doc).encode())
        assert code == 3
        assert "'spins' must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_phase_is_numerical_failure(self, tmp_path, capsys):
        # omega * t overflows, so r(t) is NaN: no table may be written
        out = tmp_path / "sb.csv"
        code = main(["spinbath", "--n-spins", "3", "--t-max", "1e300",
                     "--omega-max", "1e300", "--n-points", "3",
                     "-o", str(out)])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("t_max", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["--seed", "1", "spinbath", "--n-spins", "3", "--n-points", "3"],
    ["evolve", "--state", "B1", "--rate", "1.0", "--n-points", "3"],
])
def test_non_finite_t_max_is_usage_error(tmp_path, capsys, command, t_max):
    out = tmp_path / "grid.csv"
    assert main(command + [f"--t-max={t_max}", "-o", str(out)]) == 2
    assert "--t-max must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["evolve", "--state", "B1", "--rate", "1", "--t-max", "1"],
    ["kraus", "--gamma", "0.5"],
])
@pytest.mark.parametrize("target", ["directory", "missing directory"])
def test_unwritable_output_is_file_error(tmp_path, capsys, command, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x"
    assert main(command + ["-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output file")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
def test_failed_write_is_file_error(capsys):
    code = main(["kraus", "--gamma", "0.5", "-o", "/dev/full"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: cannot write output file")


class TestMonteCarloCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "mc.json"
        code = main(["--seed", "8", "montecarlo", "--state", "B1",
                     "--rate", "1.0", "--time", "1.0",
                     "--n-trajectories", "4000", "--dt", "0.05",
                     "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert_valid_for_schema(doc, "montecarlo_report")
        assert doc["stderr"] > 0
        assert doc["max_abs_deviation"] <= 5 * doc["stderr"]
        assert doc["gamma_analytic"] == pytest.approx(math.exp(-0.5),
                                                      abs=1e-15)
        assert doc["gamma_estimate"] == pytest.approx(math.exp(-0.5),
                                                      rel=0.05)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["--seed", "5", "montecarlo", "--state", "B3", "--rate", "2.0",
                "--time", "0.5", "--n-trajectories", "500", "--dt", "0.05"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["-o", str(f1)]) == 0
        assert main(args + ["-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_non_finite_report_is_numerical_failure(self, tmp_path, capsys):
        # one trajectory has no spread estimate: stderr is infinite, which
        # strict JSON cannot hold, so nothing may be written
        out = tmp_path / "mc.json"
        code = main(["montecarlo", "--state", "B1", "--rate", "1.0",
                     "--time", "1.0", "--n-trajectories", "1",
                     "-o", str(out)])
        assert code == 4
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err

    def test_report_does_not_depend_on_dt(self, tmp_path):
        # the phases are drawn exactly; dt is validated and echoed only
        args = ["--seed", "3", "montecarlo", "--state", "B3", "--rate", "2",
                "--time", "0.5", "--n-trajectories", "300"]
        texts = []
        for dt in ("0.01", "0.37", "5e-324"):
            out = tmp_path / f"mc-{dt}.json"
            assert main(args + ["--dt", dt, "-o", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["dt"] == float(dt)
            texts.append(out.read_text().replace(f'"dt": {doc["dt"]!r}', ""))
        assert texts[0] == texts[1] == texts[2]

    def test_overflowing_rate_times_dt(self, tmp_path):
        # rate * dt and rate * time are above the largest double, gamma is
        # exactly 0
        out = tmp_path / "mc.json"
        code = main(["montecarlo", "--state", "B1", "--rate", "1e308",
                     "--time", "1e10", "--dt", "1e9", "--n-trajectories", "4",
                     "-o", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["gamma_analytic"] == 0.0

    def test_overflowing_phase_is_usage_error(self, tmp_path, capsys):
        # rate * time = 1e616: phases of spread 1e308 would overflow
        out = tmp_path / "mc.json"
        code = main(["montecarlo", "--state", "B1", "--rate", "1e308",
                     "--time", "1e308", "--dt", "1e308",
                     "--n-trajectories", "4", "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rate * time" in err
        assert not out.exists()

    def test_infinite_dt_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = main(["montecarlo", "--state", "B1", "--rate", "1", "--time",
                     "1", "--dt", "inf", "--n-trajectories", "2",
                     "-o", str(out)])
        assert code == 2
        assert "dt must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["3", "1e300", "1e-300"])
    def test_report_does_not_depend_on_mu(self, tmp_path, mu):
        args = ["montecarlo", "--state", "B1", "--rate", "1", "--time", "1",
                "--n-trajectories", "4", "--dt", "0.5"]
        unit, scaled = tmp_path / "unit.json", tmp_path / "scaled.json"
        assert main(args + ["-o", str(unit)]) == 0
        assert main(args + ["--mu", mu, "-o", str(scaled)]) == 0
        doc = json.loads(scaled.read_text())
        assert doc.pop("mu") == float(mu)
        expected = json.loads(unit.read_text())
        del expected["mu"]
        assert doc == expected

    def test_zero_trajectories_is_usage_error(self):
        code = main(["montecarlo", "--state", "B1", "--rate", "1.0",
                     "--time", "1.0", "--n-trajectories", "0"])
        assert code == 2


def child_env() -> dict:
    """Environment in which a child process imports the same bellsym as
    this one, installed or not."""
    source = str(Path(bellsym.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point(tmp_path):
    out = tmp_path / "kraus.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bellsym", "kraus", "--gamma", "0.5",
         "-o", str(out)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bellsym/kraus-set/v1"


def run_cli(args, **kwargs) -> subprocess.CompletedProcess:
    """``python -m bellsym`` with ``args`` in a child process."""
    return subprocess.run([sys.executable, "-m", "bellsym", *args],
                          stderr=subprocess.PIPE, text=True, env=child_env(),
                          **kwargs)


def assert_documented_failure(code: int, err: str) -> None:
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX file descriptors")
class TestOutputAtTheProcessBoundary:
    """Failed writes seen by a whole process, past ``main``'s return: the
    interpreter's own flush at exit must not raise either."""

    EVOLVE = ["evolve", "--state", "B3", "--rate", "1", "--t-max", "5"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses every write")
    def test_stdout_on_a_full_device(self):
        with open("/dev/full", "w") as full:
            proc = run_cli(self.EVOLVE + ["--n-points", "3"], stdout=full)
        assert_documented_failure(proc.returncode, proc.stderr)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot write standard output")

    def test_closed_stdout(self):
        proc = run_cli(["kraus", "--gamma", "0.5"],
                       preexec_fn=lambda: os.close(1))
        assert_documented_failure(proc.returncode, proc.stderr)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot write standard output")

    def test_pipe_closed_after_ten_bytes(self):
        # a 100k-row table: far more than a pipe buffer holds
        proc = subprocess.Popen(
            [sys.executable, "-m", "bellsym", *self.EVOLVE,
             "--n-points", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert_documented_failure(proc.wait(), err)
        assert head == b"t,gamma,rh"
        assert proc.returncode == 3
        assert err == ("error: cannot write standard output: "
                       "[Errno 32] Broken pipe\n")

    def test_output_path_is_a_directory(self, tmp_path):
        proc = run_cli(["kraus", "--gamma", "0.5", "-o", str(tmp_path)],
                       stdout=subprocess.PIPE)
        assert_documented_failure(proc.returncode, proc.stderr)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: cannot write output file")
        assert proc.stdout == ""


def test_cold_start_imports_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import bellsym.cli, sys; print(sorted(m for m "
         "in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


# Values of the float flags in the fuzz property below: zero, subnormal,
# tiny, ordinary, huge, negative and non-finite.
FUZZ_FLOATS = ("0", "5e-324", "1e-300", "0.5", "1", "3", "1e300", "-1",
               "nan", "inf", "-inf")


def _flag(name, values):
    return st.sampled_from(values).map(lambda v: [f"--{name}={v}"])


def _argv(command, *flags):
    seed = _flag("seed", ("0", "3", "-1"))
    return st.tuples(seed, *flags).map(
        lambda parts: parts[0] + [command] + sum(parts[1:], []))


_STATE = _flag("state", ("B1", "B2", "B3", "B4"))
_SIZES = tuple(str(n) for n in range(-1, 4))

FUZZ_ARGV = st.one_of(
    _argv("evolve", _STATE, _flag("rate", FUZZ_FLOATS),
          _flag("t-max", FUZZ_FLOATS), _flag("n-points", _SIZES)),
    _argv("kraus", _flag("gamma", FUZZ_FLOATS),
          _flag("method", ("canonical", "choi"))),
    _argv("symmetry-scan", _STATE, _flag("gamma", FUZZ_FLOATS),
          _flag("n-samples", _SIZES)),
    _argv("optimize", _STATE, _flag("gamma", FUZZ_FLOATS),
          _flag("pattern", ("", "1", "1,2,3")), _flag("budget", ("1",)),
          _flag("scan-samples", _SIZES),
          _flag("agreement-tol", FUZZ_FLOATS)),
    _argv("spinbath", _flag("n-spins", _SIZES),
          _flag("amplitudes", ("equal", "random")),
          _flag("omega-min", FUZZ_FLOATS), _flag("omega-max", FUZZ_FLOATS),
          _flag("t-max", FUZZ_FLOATS), _flag("n-points", _SIZES),
          st.sampled_from(([], ["--state=B3"]))),
    _argv("montecarlo", _STATE, _flag("rate", FUZZ_FLOATS),
          _flag("time", FUZZ_FLOATS), _flag("dt", FUZZ_FLOATS),
          _flag("n-trajectories", _SIZES), _flag("mu", FUZZ_FLOATS)),
)

_NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=FUZZ_ARGV)
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main(argv + ["-o", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert not _NON_FINITE_TOKEN.search(out.read_text())
        else:
            assert not out.exists()


# Any JSON value, with the numbers a bath file may get wrong: bools, strings,
# NaN, infinities and ints beyond the float range.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["spins", "alpha", "beta", "omega",
                                       "label", "x"]), inner, max_size=4),
    max_leaves=20)
# Bath-shaped documents, valid ones among them, whose entries may be any
# JSON value, so that the per-spin checks and the bath itself are reached.
_AMPLITUDES = (st.sampled_from([[AMP, 0.0], [0.0, -AMP], [1, 0], [0, 0]])
               | st.lists(st.floats() | st.integers(), min_size=2,
                          max_size=2) | JSON_VALUES)
_OMEGAS = st.floats() | st.integers() | JSON_VALUES
BATH_DOCS = st.fixed_dictionaries({"spins": st.lists(
    st.fixed_dictionaries({"alpha": _AMPLITUDES, "beta": _AMPLITUDES,
                           "omega": _OMEGAS}) | JSON_VALUES,
    min_size=1, max_size=3)}, optional={"label": JSON_VALUES})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(content=st.binary(max_size=64)
       | JSON_VALUES.map(lambda v: json.dumps(v).encode())
       | BATH_DOCS.map(lambda v: json.dumps(v).encode()))
@example(content=UNREADABLE_BATH_FILES[0])
@example(content=UNREADABLE_BATH_FILES[1])
@example(content=HUGE_OMEGA_BATH_FILE)
@example(content=bath_file_of(OUT_OF_RANGE_SPINS[1:]))
@example(content=bath_file_of([json.dumps(GOOD_SPIN), OUT_OF_RANGE_SPINS[0]]))
@example(content=json.dumps({"label": 5, "spins": [GOOD_SPIN]}).encode())
def test_any_bath_file_ends_in_a_documented_exit_code(content):
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_spinbath_on(Path(tmp), content)
        assert code in (0, 2, 3, 4)
        if code == 0:
            # the reader accepts only what the schema describes
            assert_valid_for_schema(json.loads(content), "bath_spec")
        else:
            assert not out.exists()


# Requests of 10**15 items or more: no machine holds them, so the allocation
# is refused at once and nothing is ever really allocated.
HUGE = str(10**15)


@pytest.mark.parametrize("command", [
    ["evolve", "--state", "B1", "--rate", "1", "--t-max", "1",
     "--n-points", HUGE],
    ["spinbath", "--n-spins", "3", "--t-max", "1", "--n-points", HUGE],
    ["spinbath", "--n-spins", HUGE, "--t-max", "1", "--n-points", "3"],
    ["montecarlo", "--state", "B1", "--rate", "1", "--time", "1",
     "--n-trajectories", HUGE],
])
def test_request_too_large_for_memory_is_usage_error(tmp_path, capsys,
                                                      command):
    out = tmp_path / "out"
    assert main(command + ["-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# one more item than a stream's 2^56 indices hold
BEYOND_INDEX_SPACE = str(2**56 + 1)


def test_scan_beyond_index_space_is_refused_up_front(tmp_path, capsys,
                                                     monkeypatch):
    def no_samples(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(symmetry, "fill_normals", no_samples)
    out = tmp_path / "scan.json"
    code = main(["symmetry-scan", "--state", "B3", "--gamma", "0",
                 "--n-samples", BEYOND_INDEX_SPACE, "-o", str(out)])
    assert code == 2
    assert "2^56" in capsys.readouterr().err
    assert not out.exists()


def test_scan_samples_beyond_index_space_are_refused_before_search(
        tmp_path, capsys, monkeypatch):
    def no_samples(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(symmetry, "fill_normals", no_samples)
    out = tmp_path / "opt.json"
    code = main(["optimize", "--state", "B3", "--gamma", "0",
                 "--scan-samples", BEYOND_INDEX_SPACE, "-o", str(out)])
    assert code == 2
    assert "2^56" in capsys.readouterr().err
    assert not out.exists()


# Calls of one process that share the cached parser: a valid spinbath with
# and without -o, a usage error, --help, a rejected --rate, then three more
# subcommands. "{out}" is the output file of the first call.
PARSER_REUSE_SEQUENCE = (
    ["--seed", "4", "spinbath", "--n-spins", "5", "--t-max", "2",
     "--n-points", "4", "--state", "B3", "-o", "{out}"],
    ["--seed", "4", "spinbath", "--n-spins", "5", "--t-max", "2",
     "--n-points", "4", "--state", "B3"],
    ["evolve", "--state", "B1", "--t-max", "1"],
    ["--help"],
    ["evolve", "--state", "B1", "--rate", "nan", "--t-max", "1"],
    ["evolve", "--state", "B2", "--rate", "0.5", "--t-max", "1",
     "--n-points", "3"],
    ["kraus", "--gamma", "0.25"],
    ["--seed", "2", "symmetry-scan", "--state", "B3", "--gamma", "0",
     "--n-samples", "20"],
)


def _run_sequence(out: Path, capsys, fresh_parser: bool) -> list:
    """Exit code, stdout, stderr and output file bytes after each call."""
    results = []
    for argv in PARSER_REUSE_SEQUENCE:
        if fresh_parser:
            cli._parser.cache_clear()
        code = main([arg.replace("{out}", str(out)) for arg in argv])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, out.read_bytes()))
    return results


def test_parser_reuse_matches_a_fresh_parser(tmp_path, capsys):
    reused = _run_sequence(tmp_path / "reused.csv", capsys, False)
    assert cli._parser() is cli._parser()
    fresh = _run_sequence(tmp_path / "fresh.csv", capsys, True)
    assert reused == fresh
    assert [code for code, *_ in reused] == [0, 0, 2, 0, 2, 0, 0, 0]
    first_file = reused[0][3]
    # the second call has no -o: it prints the table and leaves the file
    assert reused[1][1].encode() == first_file
    assert all(file == first_file for *_, file in reused)
    assert reused[0][1] == "" and reused[3][1].startswith("usage: bellsym")


# Finite doubles with the edge cases always in the mix: +-0, the smallest
# subnormal, the subnormal/normal boundary and +-max.
_CSV_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
              2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308)
CSV_CELLS = st.one_of(st.sampled_from(_CSV_EDGES),
                      st.floats(allow_nan=False, allow_infinity=False))


def _csv_text(header, table) -> str:
    with redirect_stdout(io.StringIO()) as buf:
        cli._write_csv(None, header, table)
    return buf.getvalue()


def _csv_column(rows: int):
    """One column: arbitrary cells, one value in every row, or signed zeros."""
    return st.one_of(
        hnp.arrays(np.float64, rows, elements=CSV_CELLS),
        CSV_CELLS.map(lambda x: np.full(rows, x)),
        hnp.arrays(np.float64, rows, elements=st.sampled_from((0.0, -0.0))))


def _csv_table(shape):
    rows, width = shape
    return st.one_of(
        hnp.arrays(np.float64, shape, elements=CSV_CELLS),
        CSV_CELLS.map(lambda x: np.full(shape, x)),
        st.lists(_csv_column(rows), min_size=width,
                 max_size=width).map(np.column_stack))


_ZERO_SIGNS = np.array([[0.0, -0.0, 5e-324, 1.0], [-0.0, -0.0, 5e-324, 1.0],
                        [0.0, -0.0, 5e-324, 2.0]])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=st.tuples(st.integers(1, 6),
                       st.sampled_from((4, 34, 36))).flatmap(_csv_table))
@example(table=_ZERO_SIGNS)
@example(table=_ZERO_SIGNS[:1])
@example(table=np.full((5, 34), -0.0))
def test_csv_matches_per_cell_reference(table):
    header = tuple(f"c{k}" for k in range(table.shape[1]))
    lines = _csv_text(header, table).split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""
    assert len(lines) == len(table) + 2
    for line, row in zip(lines[1:], table.tolist()):
        assert line == ",".join(format(x, ".17g") for x in row)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_table_leaves_existing_output(tmp_path, bad):
    out = tmp_path / "table.csv"
    out.write_text("kept\n")
    table = np.zeros((3, 4))
    table[1, 2] = bad
    with pytest.raises(cli.NonFiniteOutputError):
        cli._write_csv(str(out), ("a", "b", "c", "d"), table)
    assert out.read_text() == "kept\n"


def test_non_finite_spinbath_keeps_existing_output(tmp_path, capsys):
    out = tmp_path / "sb.csv"
    out.write_text("kept\n")
    code = main(["spinbath", "--n-spins", "3", "--t-max", "1e300",
                 "--omega-max", "1e300", "--n-points", "3", "--state", "B3",
                 "-o", str(out)])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_spinbath_state_evaluates_r_once(tmp_path, monkeypatch):
    original = spinbath.decoherence_factor
    calls = []

    def counting(bath, t):
        calls.append(t)
        return original(bath, t)

    monkeypatch.setattr(spinbath, "decoherence_factor", counting)
    out = tmp_path / "sb.csv"
    assert main(["--seed", "4", "spinbath", "--n-spins", "6", "--amplitudes",
                 "random", "--t-max", "2", "--n-points", "9", "--state", "B3",
                 "-o", str(out)]) == 0
    assert len(calls) == 1
    # the state columns are bitwise those of reduced_density
    monkeypatch.undo()
    _, rows = read_csv(out)
    bath = spinbath.random_bath(6, seed=4, equal_amplitudes=False)
    rhos = spinbath.reduced_density(bath, bath, symmetry.BellState.B3.vector,
                                    rows[:, 0])
    assert np.array_equal(rows[:, 4:], cli._state_columns(rhos))
