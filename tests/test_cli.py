import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import grid_oracle

from qtvd import cli, risk, solver
from qtvd.envelope import _RankTables
from qtvd.penalties import NonCrossingReport
from qtvd.risk import RiskConstants
from qtvd.solver import Instance, certify, fit

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

    def test_repeated_texts_parse_like_fresh_ones(self, tmp_path):
        lines = ["1/2", "2/4", "0.5", "-3", "1/2", "3/4", "-3", "0.5", "2/4", "3/4", "1/2"]
        values, _ = cli._read_values(write(tmp_path / "rep.txt", "\n".join(lines) + "\n"))
        expected = [F(t) for t in lines]
        assert len(values) == len(expected)
        for got, want in zip(values, expected):
            assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("text", [
        "1/2\n-3\n0.25\n2/4\n5/7\n-3\n1e-3\n",
        "y\r\n%d\r\n-%d\r\n1/3\r\n0\r\n" % (2**64 + 1, 2**63),
        "7\n7\n-2\n",
    ], ids=["mixed", "past-int64-csv", "integers"])
    def test_reader_ints_equal_solver_scaled(self, text, tmp_path):
        values, scaled = cli._read_values(write(tmp_path / "y.csv", text))
        assert scaled == solver._scaled(values)

    def test_malformed_line_after_repeats_names_its_line(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.txt", "1/2\n1/2\n3\n1/2\n3\n1/x\n1/2\n")
        assert run(["fit", "--input", bad, "--tau", "1/2", "--lambda", "1"]) == 2
        assert "bad.txt:6: could not parse '1/x'" in capsys.readouterr().err

    def test_repeated_malformed_text_names_its_first_line(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.txt", "1\n2\noops\n1\noops\noops\n")
        assert run(["fit", "--input", bad, "--tau", "1/2", "--lambda", "1"]) == 2
        err = capsys.readouterr().err
        assert "bad.txt:3: could not parse 'oops'" in err and "bad.txt:5" not in err

    def test_two_malformed_texts_name_the_earlier_line(self, tmp_path, capsys):
        # "wrong" (line 2) comes before "bad" (line 4); in y.csv, the "y" on line 4 is data, not a header.
        bad = write(tmp_path / "bad.txt", "1\nwrong\n2\nbad\nwrong\n")
        assert run(["fit", "--input", bad, "--tau", "1/2", "--lambda", "1"]) == 2
        err = capsys.readouterr().err
        assert "bad.txt:2: could not parse 'wrong'" in err and "bad.txt:4" not in err
        with pytest.raises(ValueError, match=r"y\.csv:4: could not parse 'y'"):
            cli._read_values(write(tmp_path / "y.csv", "y\n1\n\ny\n2\n"))

    def test_crlf_blank_lines_and_trailing_commas(self, tmp_path):
        path = write(tmp_path / "crlf.csv", "\r\ny,\r\n1/2,\r\n\r\n  -3 ,\r\n0.25\r\n1/2\r\n")
        with pytest.raises(ValueError, match=r"crlf\.csv:2: could not parse 'y'"):
            cli._read_values(path)
        path = write(tmp_path / "crlf.txt", "\r\nY\r\n1/2,\r\n\r\n  -3 ,\r\n0.25\r\n1/2\r\n\r\n")
        assert cli._read_values(path)[0] == [F(1, 2), F(-3), F(1, 4), F(1, 2)]
        path = write(tmp_path / "bad.txt", "1\r\n\r\n,\r\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3: could not parse ''"):
            cli._read_values(path)

    def test_reader_matches_the_per_line_reference(self, tmp_path):
        # Generated files with blank and whitespace-only lines, headers, a BOM, CRLF or CR line ends, the same
        # value under other whitespace or trailing commas, and unparseable lines at any position.
        blank = ("", " ", "\t", "  \t ", "\u00a0")
        header = ("y", "Y", " y ", "y,", "\ty")
        good = ("1", " 1", "1 ", "\t1\t", "1,", "1,,", " 1 ,", "1/2", "2/4", "0.5", "-3", "1e-3", "3/4", "-0")
        bad = ("oops", "1/x", ",", "1/0", "y", "--1", "1 2", "Y ,")
        rng, path, seen = random.Random(35), tmp_path / "y.csv", set()
        for _ in range(2000):
            lines = [rng.choice(good if rng.random() < 0.8 else blank) for _ in range(rng.randint(0, 7))]
            for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
                lines.insert(rng.randint(0, len(lines)), rng.choice(bad))
            if rng.random() < 0.4:
                lines.insert(0, rng.choice(header))
            lines[:0] = [rng.choice(blank) for _ in range(rng.choice((0, 0, 1, 2)))]
            end = rng.choice(("\n", "\r\n", "\r"))
            text = end.join(lines) + rng.choice(("", end, end + end))
            path.write_bytes((b"\xef\xbb\xbf" if rng.random() < 0.2 else b"") + text.encode())
            outcomes = []
            for reader in (cli._read_values, helpers.read_values):
                try:
                    outcomes.append(reader(str(path)))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], text
            # The first word after the path: "could" (not parse), "header" (only) or "no" (data values).
            seen.add(outcomes[0].split(": ")[1].split()[0] if isinstance(outcomes[0], str) else "read")
        assert seen == {"read", "could", "header", "no"}

    def test_byte_order_mark_is_not_data(self, tmp_path, capsys):
        plain = write(tmp_path / "plain.txt", "1\n2\n3\n")
        assert run(["fit", "--input", plain, "--tau", "1/2", "--lambda", "1"]) == 0
        want = capsys.readouterr().out
        for name, text in (("header.csv", "y\r\n1\r\n2\r\n3\r\n"), ("data.csv", "1\r\n2\r\n3\r\n")):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + text.encode())  # as Excel's "CSV UTF-8" writes
            assert run(["fit", "--input", str(tmp_path / name), "--tau", "1/2", "--lambda", "1"]) == 0
            assert capsys.readouterr().out == want

    @pytest.mark.parametrize("header, status", [("Y", 0), ("y", 0), ("y,", 2)])
    def test_header_rules(self, header, status, tmp_path, capsys):
        path = write(tmp_path / "h.csv", f"{header}\n1\n3\n2\n")
        assert run(["fit", "--input", path, "--tau", "1/2", "--lambda", "0"]) == status
        captured = capsys.readouterr()
        if status == 0:
            assert json.loads(captured.out)["theta"] == ["1", "3", "2"]
        else:
            assert "h.csv:1: could not parse 'y'" in captured.err

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope"), "--tau", "1/2", "--lambda", "1"]) == 2

    def test_bad_tau_exits_2(self, y_file):
        assert run(["fit", "--input", y_file, "--tau", "3/2", "--lambda", "1"]) == 2

    @pytest.mark.parametrize("command", ["fit", "envelope", "certify", "audit"])
    @pytest.mark.parametrize("option", ["--tau", "--lambda"])
    def test_unparsable_level_or_penalty_exits_2(self, command, option, y_file, capsys):
        args = [command, "--input", y_file, "--tau", "1/2", "--lambda", "1"]
        args[args.index(option) + 1] = "abc"
        if command == "certify":
            args += ["--theta", y_file]
        assert run(args) == 2
        assert f"error: {option}: could not parse 'abc'" in capsys.readouterr().err


class TestFitEnvelopeCertify:
    def test_envelope_matches_oracle(self, y_file, capsys):
        assert run(["envelope", "--input", y_file, "--tau", "1/2", "--lambda", "1/4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        _, lower, upper = grid_oracle(Instance((1, 3, 2), F(1, 2), F(1, 4)))
        assert tuple(F(v) for v in doc["L"]) == lower
        assert tuple(F(v) for v in doc["U"]) == upper

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

    def test_certify_short_theta_exits_2(self, y_file, tmp_path, capsys):
        theta_file = write(tmp_path / "theta.txt", "1\n3\n")
        out = tmp_path / "cert.json"
        assert run(["certify", "--input", y_file, "--theta", theta_file,
                    "--tau", "1/2", "--lambda", "1/4", "--output", str(out)]) == 2
        assert "theta" in capsys.readouterr().err
        assert not out.exists()

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
        # Above the library's cap, no flag takes the extremal fits and the flag runs the formula: the same bytes
        big = write(tmp_path / "big.txt", "\n".join(str(k % 7) for k in range(70)) + "\n")
        assert run(["envelope", "--input", big, "--tau", "1/2", "--lambda", "1"]) == 0
        fits = capsys.readouterr()
        assert fits.err == ""
        assert run(["envelope", "--input", big, "--tau", "1/2", "--lambda", "1",
                    "--allow-large-n"]) == 0
        assert capsys.readouterr().out == fits.out

    def test_envelope_fits_route_writes_the_formula_bytes(self, tmp_path):
        # Tie-heavy data and lam = 3/7 inside a cell of tau = 1/2, so the fits run on the cell's
        # representative (D = 8, not 14). tau in {0, 1} takes the closed forms on both routes.
        rng = random.Random(65)
        tight = []
        for n in range(1, 129):
            y = [rng.choice(("0", "1", "2", "-1", "1/3", "2/3")) for _ in range(n)]
            data = write(tmp_path / "y.txt", "\n".join(y) + "\n")
            for tau in (*(("0", "1") if n in (1, 8, 64, 65, 128) else ()), "1/2"):
                texts = []
                for flag in ([], ["--allow-large-n"]):
                    out = tmp_path / f"env{len(texts)}.json"
                    argv = ["envelope", "--input", data, "--tau", tau, "--lambda", "3/7", "--output", str(out)]
                    assert run(argv + flag) == 0
                    texts.append(out.read_bytes())
                assert texts[0] == texts[1], (n, tau)
            doc = json.loads(texts[0])  # at tau = 1/2, the last level
            if doc["L"] == doc["U"]:
                tight.append(n)
        assert max(tight) < 20, tight  # every larger instance has L != U somewhere

    def test_envelope_route_follows_the_flag_alone(self, tmp_path, monkeypatch, capsys):
        # The enumeration builds its tables through `_RankTables.tables`; the fits never do, at any n
        class Enumerated(Exception):
            pass

        def tables(self, *sides, at=None):
            raise Enumerated

        monkeypatch.setattr(_RankTables, "tables", tables)
        for n in (8, 64):
            data = write(tmp_path / "y.txt", "\n".join(str(k % 5) for k in range(n)) + "\n")
            argv = ["envelope", "--input", data, "--tau", "1/3", "--lambda", "1/2"]
            assert run(argv) == 0
            assert len(json.loads(capsys.readouterr().out)["L"]) == n
            with pytest.raises(Enumerated):
                run(argv + ["--allow-large-n"])

    def test_envelope_fits_route_at_ten_thousand(self, tmp_path, capsys):
        # No oracle reaches n = 10^4: L <= U, `certify` accepts both ends, and the ends of
        # reversed y are the reversed ends (the objective is symmetric in the index order).
        rng = random.Random(10**4)
        y = [f"{rng.choice((0, 3, -3, 6)) + rng.randint(-4, 4)}/3" for _ in range(10**4)]
        ends = []
        for name, data in (("y", y), ("reversed", y[::-1])):
            path = write(tmp_path / f"{name}.txt", "\n".join(data) + "\n")
            assert run(["envelope", "--input", path, "--tau", "1/3", "--lambda", "5/2"]) == 0
            ends.append(json.loads(capsys.readouterr().out))
        doc, rev = ends
        assert all(F(a) <= F(b) for a, b in zip(doc["L"], doc["U"]))
        assert doc["L"] != doc["U"]
        assert rev == {"L": doc["L"][::-1], "U": doc["U"][::-1]}
        data = str(tmp_path / "y.txt")
        for side in ("L", "U"):
            theta = write(tmp_path / f"{side}.txt", "\n".join(doc[side]) + "\n")
            assert run(["certify", "--input", data, "--theta", theta, "--tau", "1/3", "--lambda", "5/2"]) == 0
            assert json.loads(capsys.readouterr().out)["feasible"] is True

    @pytest.mark.parametrize("tau", ["0", "1"])
    @pytest.mark.parametrize("lam", ["0", "5/2"])
    def test_envelope_closed_forms_at_ten_thousand(self, tmp_path, capsys, tau, lam):
        # tau in {0, 1} needs no enumeration, so no flag at any n; lam = 0 pins the finite side to y
        rng = random.Random(10**4 + 1)
        y = [f"{rng.randint(-50, 50)}/{rng.choice((1, 2, 7))}" for _ in range(10**4)]
        data = write(tmp_path / "y.txt", "\n".join(y) + "\n")
        assert run(["envelope", "--input", data, "--tau", tau, "--lambda", lam]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = [F(v) for v in y]
        finite = [str(v) for v in values] if lam == "0" else [str(min(values) if tau == "0" else max(values))] * len(y)
        infinite = ["-inf" if tau == "0" else "+inf"] * len(y)
        assert doc == ({"L": infinite, "U": finite} if tau == "0" else {"L": finite, "U": infinite})


# (y, tau, lam).  "mixed" and "int64" (y scaled past int64, so the certificate compares Python ints) have
# lower fit != upper fit.  "off-cell": lam = 1/7 lies inside a cell of tau = 1/3, so the fit's D (12)
# differs from the certificate's (21).
_MIXED = ["1/2", "-3", "0.25", "2/3", "5/7", "2", "1/6", "-4/9", "0.25", "2/3", "1/2", "7"]
_EXACT_CASES = {
    "mixed": (_MIXED, "1/3", "1/3"),
    "off-cell": (_MIXED, "1/3", "1/7"),
    "int64": ([str(2**63 + 1), str(2**63 + 5), str(2**63 - 2), str(-(2**63) - 1), "0", str(2**64), "3/2"],
              "1/2", "1/4"),
}


def _write_layout(path, texts, layout):
    """texts as a plain file, or as a CSV with header, CRLF and the byte-order mark Excel writes."""
    if layout == "plain":
        path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    else:
        path.write_bytes(b"\xef\xbb\xbf" + ("y\r\n" + "\r\n".join(texts) + "\r\n").encode())
    return str(path)


def _doc_bytes(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _witness_doc(cert):
    return None if cert is None else {"g": [str(v) for v in cert.g], "z": [str(v) for v in cert.z]}


class TestExactCommandsMatchTheLibrary:
    """`qtvd fit` and `qtvd certify` write the document built from `fit` and `certify(theta, inst)`."""

    @staticmethod
    def _case(name, layout, tmp_path):
        texts, tau, lam = _EXACT_CASES[name]
        path = _write_layout(tmp_path / f"y-{layout}.txt", texts, layout)
        return path, tau, lam, Instance(tuple(F(t) for t in texts), F(tau), F(lam))

    @pytest.mark.parametrize("layout", ["plain", "csv-bom"])
    @pytest.mark.parametrize("name", sorted(_EXACT_CASES))
    @pytest.mark.parametrize("extremality", ["lower", "upper", "any"])
    def test_fit(self, extremality, name, layout, tmp_path, capsys):
        path, tau, lam, inst = self._case(name, layout, tmp_path)
        assert run(["fit", "--input", path, "--tau", tau, "--lambda", lam, "--extremal", extremality]) == 0
        result = fit(inst, extremality)
        cert = certify(result.theta, inst)
        assert cert is not None
        want = {"theta": [str(v) for v in result.theta], "objective": str(result.objective),
                "extremality": extremality, "certificate": _witness_doc(cert)}
        assert capsys.readouterr() == (_doc_bytes(want), "")

    @staticmethod
    def _thetas(inst):
        """(kind, theta, feasible): both extremal fits, a mix needing a larger scale than y, a bumped fit."""
        lower, upper = fit(inst, "lower").theta, fit(inst, "upper").theta
        mix = tuple(a + (b - a) * F(1, 11) for a, b in zip(lower, upper))  # the solution set is convex
        bumped = (upper[0] + F(1, 11),) + upper[1:]  # above the maximal solution
        return [("lower", lower, True), ("upper", upper, True), ("mix", mix, True), ("bumped", bumped, False)]

    @pytest.mark.parametrize("layout", ["plain", "csv-bom"])
    @pytest.mark.parametrize("name", sorted(_EXACT_CASES))
    def test_certify(self, name, layout, tmp_path, capsys):
        path, tau, lam, inst = self._case(name, layout, tmp_path)
        for kind, theta, feasible in self._thetas(inst):
            theta_path = _write_layout(tmp_path / f"theta-{kind}.txt", [str(v) for v in theta], layout)
            assert run(["certify", "--input", path, "--tau", tau, "--lambda", lam, "--theta", theta_path]) == 0
            cert = certify(theta, inst)
            assert (cert is not None) == feasible, kind
            want = {"feasible": False} if cert is None else {"feasible": True, **_witness_doc(cert)}
            assert capsys.readouterr() == (_doc_bytes(want), ""), kind
            if kind == "mix" and name != "off-cell":  # y's ints must be rescaled to theta's larger scale
                assert solver._scaled(inst.y)[0] % solver._scaled(theta)[0] != 0

    @pytest.mark.parametrize("name", sorted(_EXACT_CASES))
    def test_wrong_length_theta(self, name, tmp_path, capsys):
        path, tau, lam, inst = self._case(name, "plain", tmp_path)
        upper = fit(inst, "upper").theta
        for theta in (upper[:-1], upper + (F(1, 3),)):
            with pytest.raises(ValueError) as exc:
                certify(theta, inst)
            theta_path = _write_layout(tmp_path / "theta.txt", [str(v) for v in theta], "plain")
            assert run(["certify", "--input", path, "--tau", tau, "--lambda", lam, "--theta", theta_path]) == 2
            assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def _stdlib_emit(doc, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# Quotes, backslashes, control characters, DEL and non-ASCII up to a lone surrogate and an astral character.
_TEXT = st.text(st.sampled_from('aZ09 "\\/\x00\x07\b\t\n\x1f\x7f\u00e9\u2028\ud800\U0001f600'), max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
            | st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324)))
_DOCS = st.dictionaries(_TEXT, st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(_TEXT, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=12,
), max_size=4)


def _per_fraction_strs(ints, scale):
    """The level strings as str(Fraction) builds them: the reference for `cli._fraction_strs`."""
    text = {v: str(F(v, scale)) for v in set(ints)}
    return list(map(text.__getitem__, ints))


_PRIMES = (2, 3, 5, 7, 11, 13, 2**31 - 1, 2**61 - 1, 2**89 - 1)


class TestJsonLayout:
    """Every JSON artifact reads byte for byte as `json.dumps(doc, sort_keys=True, indent=2)` writes it."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_DOCS)
    def test_writer_matches_stdlib(self, doc):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(doc, None)
        assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.just(0) | st.integers(max_value=-1) | st.integers(min_value=2**64),
           st.just(1) | st.sampled_from(_PRIMES) | st.integers(1, 2**70),
           st.sampled_from((1, 2, 6, 7, 2**64 + 1, 3**41)))
    def test_fraction_strs_match_fraction(self, v, scale, common):
        # common is shared by both ints of the second pair; the third and fourth are whole numbers
        for num, den in ((v, scale), (v * common, scale * common), (v * scale, scale), (v * common, common)):
            assert cli._fraction_strs([num], den) == [str(F(num, den))], (num, den)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.integers() | st.integers(min_value=2**64), max_size=6),
           st.sampled_from(_PRIMES) | st.integers(1, 2**70), st.lists(_TEXT, max_size=4), _TEXT)
    def test_fraction_texts_need_no_escaping(self, ints, scale, texts, key):
        # `_json` writes a marked list with one join, unchecked: only texts the escaper leaves alone may go there.
        marked = cli._fraction_strs(ints, scale)
        assert type(marked) is cli._PlainStrs
        assert all(s == _json_str(s)[1:-1] for s in marked)
        doc = {key: marked, "texts": texts, "copy": list(marked), "mixed": texts + marked,
               "empty": cli._PlainStrs(), "none": [], "nested": {"g": marked, "z": texts, "e": cli._PlainStrs()}}
        assert cli._json(doc, "") == json.dumps(doc, sort_keys=True, indent=2)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.sampled_from(('"', "\\", "\x1f", "\u00e9", "\ud800", None)), st.integers(0, 1199))
    def test_long_string_list_with_one_escape_matches_stdlib(self, char, position):
        # Unmarked lists go item by item, so one string that needs escaping is escaped; None needs none.
        values = [str(F(k, 7)) for k in range(-600, 600)]
        if char is not None:
            values[position] = f"1/{char}7"
        doc = {"z": values, "g": values[:position], "theta": ["1/3"] * 1000}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(doc, None)
        assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_many_levels_write_per_fraction_bytes(self, tmp_path, monkeypatch):
        # A step at lam = n: the fit is one constant, and the z of fit and certify runs through 302 levels.
        rng, n = random.Random(3), 600
        y_file = write(tmp_path / "y.txt", "".join(
            f"{rng.randint(0, 3) + 3 * (i >= n // 2)}/{rng.choice((1, 3))}\n" for i in range(n)))
        exact = ["--input", y_file, "--tau", "1/3", "--lambda", str(n)]
        written = {}
        for name in ("ours", "per-fraction"):
            if name == "per-fraction":
                monkeypatch.setattr(cli, "_fraction_strs", _per_fraction_strs)
                monkeypatch.setattr(cli, "_emit", _stdlib_emit)
            fit_out, cert_out = tmp_path / f"fit-{name}.json", tmp_path / f"certify-{name}.json"
            assert run(["fit", *exact, "--extremal", "upper", "--output", str(fit_out)]) == 0
            theta_file = write(tmp_path / f"theta-{name}.txt", "\n".join(json.loads(fit_out.read_text())["theta"]))
            assert run(["certify", *exact, "--theta", theta_file, "--output", str(cert_out)]) == 0
            written[name] = fit_out.read_bytes(), cert_out.read_bytes()
        assert written["ours"] == written["per-fraction"]
        assert len(set(json.loads(written["ours"][1])["z"])) >= 300

    @pytest.mark.parametrize("command", ["fit", "certify", "envelope", "envelope-inf", "audit", "simulate", "rate"])
    def test_commands_write_stdlib_bytes(self, command, tmp_path, monkeypatch):
        y_file = write(tmp_path / "y.txt", "1/2\n-3\n0.25\n2\n2\n1/3\n")
        exact = ["--input", y_file, "--tau", "1/3", "--lambda", "1/2"]
        theta_file = write(tmp_path / "theta.txt", "1/4\n1/4\n0.25\n1/3\n1/3\n2/6\n")  # the fit, so g and z are written
        model = ["--reps", "3", "--seed", "5", "--lambda", "30"]
        argv = {
            "fit": ["fit", *exact, "--extremal", "lower"],
            "certify": ["certify", *exact, "--theta", theta_file],
            "envelope": ["envelope", *exact],
            "envelope-inf": ["envelope", "--input", y_file, "--tau", "1", "--lambda", "1/2"],  # U is "+inf"
            "audit": ["audit", *exact, "--tau2", "3/4", "--trials", "20"],
            "simulate": ["simulate", "--n", "1024", *model, "--bounds"],
            "rate": ["rate", "--n-grid", "32,64,128,256", *model],
        }[command]
        suffix = ".json" if command in ("simulate", "rate") else ""
        written = {}
        for name, emit in (("ours", cli._emit), ("stdlib", _stdlib_emit)):
            monkeypatch.setattr(cli, "_emit", emit)
            out = tmp_path / name
            assert run([*argv, "--output", str(out)]) == 0
            written[name] = Path(str(out) + suffix).read_bytes()
        assert written["ours"] == written["stdlib"]
        assert json.loads(written["ours"]).get("feasible", True)


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

    @pytest.mark.parametrize("check", ["noncross", "submodular", "noncross,submodular"])
    @pytest.mark.parametrize("option, value", [("--tau", "3/2"), ("--tau", "0"), ("--lambda", "-1")])
    def test_invalid_level_or_penalty_exits_2_for_every_check(self, check, option, value, y_file, tmp_path, capsys):
        out = tmp_path / "audit.json"
        args = ["audit", "--input", y_file, "--tau", "1/4", "--tau2", "3/4", "--lambda", "1/2",
                "--checks", check, "--trials", "5", "--output", str(out)]
        args[args.index(option) + 1] = value
        assert run(args) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("check", ["noncross", "submodular", "noncross,submodular"])
    @pytest.mark.parametrize("text", ["", "\n\n", "y\n"])
    def test_empty_data_exits_2_for_every_check(self, check, text, tmp_path, capsys):
        out = tmp_path / "audit.json"
        assert run(["audit", "--input", write(tmp_path / "y.txt", text), "--tau", "1/4", "--tau2", "3/4",
                    "--lambda", "1/2", "--checks", check, "--trials", "5", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("checks", ["", ",,", " , "])
    def test_empty_check_list_exits_2(self, checks, y_file, tmp_path, capsys):
        out = tmp_path / "audit.json"
        assert run(["audit", "--input", y_file, "--tau", "1/2", "--lambda", "1",
                    "--checks", checks, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert all(name in captured.err for name in ("noncross", "submodular")) and "lattice" not in captured.err
        assert not out.exists()

    def test_unknown_check_rejected(self, y_file):
        for check in ("sorcery", "lattice"):
            assert run(["audit", "--input", y_file, "--tau", "1/4", "--lambda", "1/2",
                        "--checks", check]) == 2, check


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

    def test_simulate_reports_a_rejected_certificate(self, tmp_path, monkeypatch):
        real, calls = risk.certify_float, []
        monkeypatch.setattr(risk, "certify_float", lambda *args: calls.append(args) or (len(calls) != 2 and real(*args)))
        out = tmp_path / "sim"
        assert run(["simulate", "--n", "64", "--reps", "3", "--seed", "5", "--lambda", "4", "--output", str(out)]) == 0
        text = Path(str(out) + ".json").read_text(encoding="utf-8")
        assert len(calls) == 3 and '"certificate_failures": 1,' in text

    def test_simulate_with_bounds_and_constants(self, tmp_path):
        assert run(["simulate", "--n", "1024", "--reps", "3", "--seed", "1",
                    "--signal", "constant", "--noise", "cauchy", "--scale", "1.0",
                    "--lambda", "30", "--bounds", "--constants", "c_tilde=4.0",
                    "--output", str(tmp_path / "b")]) == 0
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["bound_upper"] is not None and doc["coverage"] is not None

    def test_given_c1_leaves_delta_at_one(self, tmp_path):
        args = ["simulate", "--n", "1024", "--reps", "3", "--seed", "1", "--lambda", "30", "--bounds"]
        assert run([*args, "--constants", "c1=0.2", "--output", str(tmp_path / "a")]) == 0
        assert run([*args, "--constants", "c1=0.2", "delta=1", "--output", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

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

    def test_lambda_below_the_bound_threshold_exits_2_naming_it(self, tmp_path, capsys):
        assert run(["simulate", "--n", "1024", "--lambda", "2", "--bounds", "--output", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        floor = RiskConstants.for_noise(cli._NOISES["cauchy"](1.0), 0.5).lambda_floor(1024, 0.5)
        assert f"{floor:.6g}" in err and "allow_small_lambda" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("option, value", [("--breaks", "0.5,"), ("--levels", "1,x")])
    def test_bad_pwc_value_exits_2_naming_the_option(self, option, value, tmp_path, capsys):
        args = {"--breaks": "0.5", "--levels": "1,0", option: value}
        assert run(["simulate", "--n", "64", "--reps", "2", "--lambda", "8", "--signal", "pwc",
                    *(t for item in args.items() for t in item), "--output", str(tmp_path / "x")]) == 2
        assert f"error: {option}: bad value '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_star_needs_valid_signal_params(self, tmp_path):
        assert run(["simulate", "--n", "64", "--reps", "2", "--signal", "pwc",
                    "--lambda", "star", "--output", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("norm", ["0", "-1"])
    def test_star_needs_positive_cusp_norm(self, norm, tmp_path, capsys):
        assert run(["simulate", "--n", "64", "--reps", "2", "--signal", "cusp", "--L0", norm,
                    "--lambda", "star", "--output", str(tmp_path / "x")]) == 2
        assert "error: holder_norm must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "rate"])
    def test_bad_lambda_text_exits_2(self, command, tmp_path, capsys):
        size = ["--n", "64"] if command == "simulate" else ["--n-grid", "64,128,256,512"]
        for text in ("abc", "1e400"):  # unparsable; overflows a float
            assert run([command, *size, "--reps", "2", "--signal", "constant",
                        "--lambda", text, "--output", str(tmp_path / "x")]) == 2
            assert "--lambda" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "rate"])
    @pytest.mark.parametrize("x0", ["5", "nan"])
    def test_bad_x0_exits_2(self, command, x0, tmp_path, capsys):
        size = ["--n", "64"] if command == "simulate" else ["--n-grid", "64,128,256,512"]
        args = [command, *size, "--reps", "2", "--lambda", "8"]
        assert run([*args, "--x0", "0.25", "--output", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert run([*args, "--x0", x0, "--output", str(tmp_path / "x")]) == 2
        assert "--x0" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "rate"])
    @pytest.mark.parametrize("signal, x0, where", [([], "1", "at an end of [0, 1]"), ([], "0", "at an end of [0, 1]"),
                                                   (["--signal", "pwc", "--breaks", "0.5", "--levels", "0,1"], "0.5",
                                                    "on a break")])
    def test_star_lambda_at_a_degenerate_x0_exits_2(self, command, signal, x0, where, tmp_path, capsys):
        size = ["--n", "64"] if command == "simulate" else ["--n-grid", "64,128,256,512"]
        args = [command, *size, "--reps", "2", *signal, "--lambda", "star"]
        assert run([*args, "--x0", "0.25", "--output", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert run([*args, "--x0", x0, "--output", str(tmp_path / "x")]) == 2
        assert f"error: lam* is undefined at x0 = {float(x0)}: it lies {where}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("signal, name", [(["--level", "nan"], "level"), (["--signal", "cusp", "--L0", "inf"], "norm"),
                                              (["--signal", "pwc", "--breaks", "0.5", "--levels", "0,nan"], "levels")])
    def test_non_finite_signal_parameter_exits_2(self, signal, name, tmp_path, capsys):
        assert run(["simulate", "--n", "64", "--reps", "2", "--lambda", "8", *signal,
                    "--output", str(tmp_path / "x")]) == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("noise", ["cauchy", "gaussian", "laplace"])
    @pytest.mark.parametrize("scale", ["0", "nan", "inf"])
    def test_bad_noise_scale_exits_2(self, noise, scale, tmp_path, capsys):
        assert run(["simulate", "--n", "64", "--reps", "2", "--noise", noise, "--scale", scale,
                    "--lambda", "8", "--bounds", "--output", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_constants_without_bounds_exit_2(self, tmp_path, capsys):
        assert run(["simulate", "--n", "64", "--reps", "2", "--lambda", "8", "--constants", "c1=0.2",
                    "--output", str(tmp_path / "x")]) == 2
        assert "--constants" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("field", dataclasses.fields(RiskConstants), ids=lambda f: f.name)
    def test_constants_accept_every_field(self, field, tmp_path, capsys):
        value = 0.2 if field.default is dataclasses.MISSING else field.default
        assert run(["simulate", "--n", "1024", "--reps", "2", "--lambda", "30", "--bounds",
                    "--constants", f"{field.name}={value}", "--output", str(tmp_path / "x")]) == 0
        assert json.loads((tmp_path / "x.json").read_text())["bound_upper"] is not None

    def test_unknown_constant_exits_2_naming_the_fields(self, tmp_path, capsys):
        assert run(["simulate", "--n", "1024", "--reps", "2", "--lambda", "30", "--bounds",
                    "--constants", "bogus=1", "--output", str(tmp_path / "x")]) == 2
        assert "unknown constant 'bogus' (known: ['C1', 'c', 'c1', 'c_tilde', 'delta'])" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_rate_rejects_constants(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["rate", "--n-grid", "64,128,256,512", "--reps", "2", "--lambda", "8",
                 "--constants", "c1=0.2", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("pair", ["c1=0", "c1=nan", "C1=nan", "c=nan", "c_tilde=nan", "delta=0"])
    def test_degenerate_constants_exit_2(self, pair, tmp_path, capsys):
        args = ["simulate", "--n", "1024", "--reps", "2", "--lambda", "30", "--bounds"]
        assert run([*args, "--constants", "c_tilde=4", "--output", str(tmp_path / "ok")]) == 0
        assert run([*args, "--constants", pair, "--output", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestParserReuse:
    """`main` reuses one parser; no option may leak from one call into the next."""

    @staticmethod
    def _outputs(tmp_path, commands, order):
        cli._parser.cache_clear()
        out = {}
        for name in order:
            argv, paths = commands(tmp_path / f"{name}-after-{order[0]}")
            assert run(argv) in (0, 3)
            out[name] = [path.read_bytes() for path in paths]
        return out

    def test_simulate_bounds_does_not_leak(self, tmp_path):
        def commands(prefix):
            bounds = ["--bounds"] if prefix.name.startswith("bounds") else []
            argv = ["simulate", "--n", "1024", "--reps", "2", "--seed", "3", "--lambda", "30",
                    *bounds, "--output", str(prefix)]
            return argv, [prefix.with_suffix(".csv"), prefix.with_suffix(".json")]

        first = self._outputs(tmp_path, commands, ["plain", "bounds"])
        second = self._outputs(tmp_path, commands, ["bounds", "plain"])
        assert first == second
        assert json.loads(first["bounds"][1])["bound_upper"] is not None
        assert json.loads(first["plain"][1])["bound_upper"] is None

    def test_audit_checks_do_not_leak(self, tmp_path, y_file):
        def commands(prefix):
            checks = ["--checks", "noncross"] if prefix.name.startswith("noncross") else []
            argv = ["audit", "--input", y_file, "--tau", "1/4", "--tau2", "3/4", "--lambda", "1/2",
                    "--trials", "50", *checks, "--output", str(prefix)]
            return argv, [prefix]

        first = self._outputs(tmp_path, commands, ["default", "noncross"])
        second = self._outputs(tmp_path, commands, ["noncross", "default"])
        assert first == second
        assert set(json.loads(first["noncross"][0])) == {"noncross", "ok"}
        assert set(json.loads(first["default"][0])) == {"noncross", "submodularity", "ok"}


class TestEveryOptionIsRead:
    """Each option a subcommand accepts is read by its handler on some valid call."""

    @staticmethod
    def _argvs(y_file, out):
        exact = ["--input", y_file, "--tau", "1/2", "--lambda", "1/4", "--output", out]
        model = ["--reps", "2", "--tau", "0.5", "--noise", "cauchy", "--scale", "1", "--x0", "0.5", "--seed", "1",
                 "--output", out]
        signals = [["--signal", "constant", "--level", "1", "--lambda", "8"],
                   ["--signal", "cusp", "--alpha", "1", "--L0", "1", "--lambda", "star"],
                   ["--signal", "pwc", "--breaks", "0.5", "--levels", "0,1", "--lambda", "8"]]
        return {
            "fit": [["fit", *exact, "--extremal", "upper"]],
            "envelope": [["envelope", *exact, "--allow-large-n"]],
            "certify": [["certify", *exact, "--theta", y_file]],
            "audit": [["audit", *exact, "--tau2", "3/4", "--checks", "noncross,submodular", "--trials", "20"]],
            "simulate": [["simulate", "--n", "64", *model, *signal] for signal in signals]
            + [["simulate", "--n", "1024", *model, "--lambda", "30", "--bounds", "--constants", "c_tilde=4"]],
            "rate": [["rate", "--n-grid", "32,64,128,256", *model, *signal] for signal in signals],
        }

    def test_no_option_is_parsed_but_never_read(self, y_file, tmp_path):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        argvs = self._argvs(y_file, str(tmp_path / "out"))
        assert set(argvs) == set(subparsers.choices)
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        unread = {}
        for command, calls in argvs.items():
            names = {a.dest for a in subparsers.choices[command]._actions if not isinstance(a, argparse._HelpAction)}
            for argv in calls:
                args = parser.parse_args(argv, namespace=Recorder())
                handler = args.handler
                reads.clear()  # parsing reads the namespace too; count the handler's reads only
                assert handler(args) == 0, argv
                names -= reads
            if names:
                unread[command] = sorted(names)
        assert unread == {}


_PROBE = """
import json, sys
import qtvd.cli
ran = []
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    status = qtvd.cli.main(argv)
    ran.append((status, sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")))
print(json.dumps(ran))
"""


def _numpy_modules_loaded(*argvs) -> list:
    """[(exit status, numpy modules it loaded)] per command, run in turn in a fresh interpreter after `import qtvd.cli`."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    return [tuple(entry) for entry in json.loads(proc.stdout)]


class TestNumpySubmodules:
    """A command loads only the numpy submodules it needs: importing one costs every fresh process."""

    def test_exact_commands_load_none(self, tmp_path, y_file):
        exact = ["--input", y_file, "--tau", "1/3", "--lambda", "1/2", "--output"]
        theta = write(tmp_path / "theta.txt", "2\n2\n2\n")
        ran = _numpy_modules_loaded(
            ["fit", *exact, str(tmp_path / "fit.json")],
            ["certify", *exact, str(tmp_path / "certify.json"), "--theta", theta],
            ["audit", *exact, str(tmp_path / "audit.json"), "--tau2", "2/3", "--trials", "20"],
            ["envelope", *exact, str(tmp_path / "fits.json")],
            ["envelope", *exact, str(tmp_path / "formula.json"), "--allow-large-n"],
        )
        assert ran == [(0, [])] * 5

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "64", "--reps", "3"],
        ["simulate", "--n", "1024", "--reps", "2", "--lambda", "30", "--bounds"],
        ["rate", "--n-grid", "64,128,256,512", "--reps", "2"],
    ], ids=["simulate", "simulate-bounds", "rate"])
    def test_model_commands_load_numpy_random_alone(self, tmp_path, argv):
        # numpy.random draws the noise; numpy's median would also load numpy.ma
        [(status, loaded)] = _numpy_modules_loaded([*argv, "--output", str(tmp_path / "out")])
        assert status == 0 and "numpy.random" in loaded
        assert {m.split(".")[1] for m in loaded} == {"random"}


def _rate_args(grid):
    return cli._parser().parse_args(["rate", "--n-grid", grid, "--reps", "2", "--output", "never-written"])


@pytest.mark.parametrize("call, message", [
    (lambda: cli._parse_constants(["c1"], risk.Cauchy(1.0), 0.5), "--constants expects k=v, got 'c1'"),
    (lambda: cli._parse_constants(["c1=abc"], risk.Cauchy(1.0), 0.5), "--constants c1: bad float 'abc'"),
    (lambda: cli._cmd_rate(_rate_args("64,x")), "--n-grid: bad value '64,x'"),
], ids=["constants-without-equals", "constants-bad-float", "n-grid-bad-int"])
def test_argument_checks_raise(call, message):
    # `main` turns these into exit status 2; called directly, each raises its own ValueError.
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError and str(exc.value) == message
