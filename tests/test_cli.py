import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellsym
from bellsym import kraus, spinbath, symmetry
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


class TestKrausCommand:
    def test_canonical_document(self, tmp_path):
        out = tmp_path / "kraus.json"
        assert main(["kraus", "--gamma", "0.5", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert_valid_for_schema(doc, "kraus_set")
        kset = kraus.kraus_set_from_dict(doc)
        assert kset.gamma == 0.5
        for a, b in zip(kset.operators, kraus.canonical_kraus(0.5).operators):
            assert np.array_equal(a, b)

    def test_choi_method_is_channel_equivalent(self, tmp_path):
        out = tmp_path / "kraus.json"
        assert main(["kraus", "--gamma", "0.3", "--method", "choi",
                     "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert_valid_for_schema(doc, "kraus_set")
        kset = kraus.kraus_set_from_dict(doc)
        assert kset.label == "choi-extracted" and kset.gamma == 0.3
        assert kraus.channels_equal(kset, kraus.canonical_kraus(0.3), 1e-9)

    def test_gamma_out_of_range_is_usage_error(self):
        assert main(["kraus", "--gamma", "1.5"]) == 2

    def test_numerical_failure_maps_to_exit_4(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise CompletePositivityError("synthetic failure")
        monkeypatch.setattr(kraus, "kraus_from_choi", explode)
        code = main(["kraus", "--gamma", "0.5", "--method", "choi",
                     "-o", str(tmp_path / "x.json")])
        assert code == 4


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

    def test_infinite_step_count_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = main(["montecarlo", "--state", "B1", "--rate", "1", "--time",
                     "1", "--dt", "5e-324", "--n-trajectories", "2",
                     "-o", str(out)])
        assert code == 2
        assert "finite step count" in capsys.readouterr().err
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


def test_module_entry_point(tmp_path):
    out = tmp_path / "kraus.json"
    # the child imports the same bellsym as this process, installed or not
    source = str(Path(bellsym.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bellsym", "kraus", "--gamma", "0.5",
         "-o", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bellsym/kraus-set/v1"


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


# Values of the float flags in the fuzz property below: zero, subnormal,
# tiny, ordinary, huge, negative and non-finite.
FUZZ_FLOATS = ("0", "5e-324", "1e-300", "0.5", "1", "3", "1e300", "-1",
               "nan", "inf", "-inf")
# montecarlo times at --dt 0.5: a huge time would ask for a huge step count
FUZZ_TIMES = ("0", "5e-324", "0.25", "1", "nan", "inf", "-1")


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
          _flag("time", FUZZ_TIMES), _flag("dt", ("0.5",)),
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
