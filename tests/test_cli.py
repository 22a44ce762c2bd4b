import json
from fractions import Fraction
from pathlib import Path

import pytest

from qtvd import cli
from qtvd.penalties import NonCrossingReport
from qtvd.solver import Instance, grid_oracle

F = Fraction


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def y_file(tmp_path):
    return write(tmp_path / "y.txt", "1\n3\n2\n")


def run(args):
    return cli.main(args)


class TestInput:
    def test_plain_and_csv_agree(self, tmp_path, capsys):
        plain = write(tmp_path / "a.txt", "1/2\n-3\n0.25\n")
        csvf = write(tmp_path / "b.csv", "y\n1/2\n-3\n0.25\n")
        assert run(["fit", "--input", plain, "--tau", "1/2", "--lambda", "0"]) == 0
        out1 = capsys.readouterr().out
        assert run(["fit", "--input", csvf, "--tau", "1/2", "--lambda", "0"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        assert json.loads(out1)["theta"] == ["1/2", "-3", "1/4"]

    def test_malformed_value_exits_2_with_line(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.txt", "1\nugh\n")
        assert run(["fit", "--input", bad, "--tau", "1/2", "--lambda", "1"]) == 2
        assert "bad.txt:2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope"), "--tau", "1/2", "--lambda", "1"]) == 2

    def test_bad_tau_exits_2(self, y_file):
        assert run(["fit", "--input", y_file, "--tau", "3/2", "--lambda", "1"]) == 2


class TestFitEnvelopeCertify:
    def test_envelope_matches_oracle(self, y_file, capsys):
        assert run(["envelope", "--input", y_file, "--tau", "1/2", "--lambda", "1/4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        orc = grid_oracle(Instance((1, 3, 2), F(1, 2), F(1, 4)))
        assert [F(v) for v in doc["L"]] == list(orc.lower)
        assert [F(v) for v in doc["U"]] == list(orc.upper)

    def test_fit_lambda_zero_echoes_input(self, y_file, capsys):
        assert run(["fit", "--input", y_file, "--tau", "0.31", "--lambda", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == ["1", "3", "2"]
        assert doc["objective"] == "0"
        assert doc["certificate"] is not None

    def test_round_trip_fit_then_certify(self, y_file, tmp_path, capsys):
        out = str(tmp_path / "fit.json")
        assert run(["fit", "--input", y_file, "--tau", "1/2", "--lambda", "1/4",
                    "--extremal", "upper", "--output", out]) == 0
        theta = json.loads(Path(out).read_text())["theta"]
        theta_file = write(tmp_path / "theta.txt", "\n".join(theta) + "\n")
        assert run(["certify", "--input", y_file, "--theta", theta_file,
                    "--tau", "1/2", "--lambda", "1/4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True
        assert len(doc["z"]) == 4

    def test_certify_rejects_suboptimal(self, y_file, tmp_path, capsys):
        theta_file = write(tmp_path / "theta.txt", "9\n9\n9\n")
        assert run(["certify", "--input", y_file, "--theta", theta_file,
                    "--tau", "1/2", "--lambda", "1/4"]) == 0
        assert json.loads(capsys.readouterr().out) == {"feasible": False}

    def test_infinity_encoding_at_extreme_levels(self, y_file, capsys):
        assert run(["envelope", "--input", y_file, "--tau", "1", "--lambda", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["U"] == ["+inf"] * 3
        assert doc["L"] == ["3"] * 3
        assert run(["envelope", "--input", y_file, "--tau", "0", "--lambda", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["L"] == ["-inf"] * 3
        assert doc["U"] == ["1"] * 3

    def test_envelope_cap_and_override(self, tmp_path, capsys):
        big = write(tmp_path / "big.txt", "\n".join(str(k % 7) for k in range(70)) + "\n")
        assert run(["envelope", "--input", big, "--tau", "1/2", "--lambda", "1"]) == 2
        capsys.readouterr()
        assert run(["envelope", "--input", big, "--tau", "1/2", "--lambda", "1",
                    "--allow-large-n"]) == 0


class TestAudit:
    def test_passing_audit_exits_0(self, y_file, capsys):
        assert run(["audit", "--input", y_file, "--tau", "1/4", "--tau2", "3/4",
                    "--lambda", "1/2", "--trials", "300"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["noncross"]["ok"] is True
        assert all(v["violations"] == 0 for v in doc["submodularity"].values())

    def test_noncross_requires_tau2(self, y_file):
        assert run(["audit", "--input", y_file, "--tau", "1/4", "--lambda", "1/2",
                    "--checks", "noncross"]) == 2

    def test_violation_exits_3(self, y_file, capsys, monkeypatch):
        # the estimator itself never violates, so force a violating report
        monkeypatch.setattr(
            cli.penalties,
            "noncrossing_audit",
            lambda *a, **k: NonCrossingReport(ok=False, worst_gap=F(-1)),
        )
        assert run(["audit", "--input", y_file, "--tau", "1/4", "--tau2", "3/4",
                    "--lambda", "1/2", "--checks", "noncross"]) == 3
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_unknown_check_rejected(self, y_file):
        assert run(["audit", "--input", y_file, "--tau", "1/4", "--lambda", "1/2",
                    "--checks", "sorcery"]) == 2


class TestSimulateRate:
    def test_simulate_writes_deterministic_artifacts(self, tmp_path):
        args = ["simulate", "--n", "64", "--reps", "6", "--seed", "11",
                "--signal", "constant", "--noise", "cauchy", "--scale", "1.0",
                "--lambda", "8", "--output", str(tmp_path / "one")]
        assert run(args) == 0
        args2 = args[:]
        args2[-1] = str(tmp_path / "two")
        assert run(args2) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        header = (tmp_path / "one.csv").read_text().splitlines()[0]
        assert header == "seed,n,tau,lambda,location,error"
        doc = json.loads((tmp_path / "one.json").read_text())
        assert doc["schema"] == "qtvd.risk/1"
        assert doc["replications"] == 6
        assert "runtime_seconds" not in doc

    def test_simulate_with_bounds_and_constants(self, tmp_path):
        assert run(["simulate", "--n", "1024", "--reps", "3", "--seed", "1",
                    "--signal", "constant", "--noise", "cauchy", "--scale", "1.0",
                    "--lambda", "30", "--bounds", "--constants", "c_tilde=4.0",
                    "--output", str(tmp_path / "b")]) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["bound_upper"] is not None and doc["coverage"] is not None

    def test_rate_study(self, tmp_path):
        assert run(["rate", "--n-grid", "64,128,256,512", "--reps", "8", "--seed", "2",
                    "--signal", "pwc", "--breaks", "0.2,0.8", "--levels", "1,0,1",
                    "--noise", "cauchy", "--scale", "0.1", "--lambda", "star",
                    "--output", str(tmp_path / "rate")]) == 0
        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["grid"] == [64, 128, 256, 512]
        assert isinstance(doc["slope"], float)
        csv_lines = (tmp_path / "rate.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 4 * 8

    def test_star_needs_valid_signal_params(self, tmp_path):
        assert run(["simulate", "--n", "64", "--reps", "2", "--signal", "pwc",
                    "--lambda", "star", "--output", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "rate"])
    def test_bad_lambda_text_exits_2(self, command, tmp_path, capsys):
        size = ["--n", "64"] if command == "simulate" else ["--n-grid", "64,128,256,512"]
        for text in ("abc", "1e400"):  # unparsable; overflows a float
            assert run([command, *size, "--reps", "2", "--signal", "constant",
                        "--lambda", text, "--output", str(tmp_path / "x")]) == 2
            assert "--lambda" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()
