import json
import math
import subprocess
import sys

import numpy as np
import pytest

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

    def test_zero_trajectories_is_usage_error(self):
        code = main(["montecarlo", "--state", "B1", "--rate", "1.0",
                     "--time", "1.0", "--n-trajectories", "0"])
        assert code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "kraus.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bellsym", "kraus", "--gamma", "0.5",
         "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bellsym/kraus-set/v1"


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
