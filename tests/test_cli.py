import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rfunc import cli, dump_state, max_entangled_state
from rfunc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_r_at_m(self, capsys):
        code, out, _ = run(capsys, "eval", "--m", "5", "--lambda", "5",
                           "--which", "R")
        assert code == 0
        assert out.strip() == f"{np.log2(5):.15g}"

    def test_r2_natural_closed_form(self, capsys):
        code, out, _ = run(capsys, "eval", "--m", "5", "--lambda", "4",
                           "--which", "R2", "--log", "natural")
        assert code == 0
        assert float(out) == pytest.approx(-(np.log(3 / 8) + 1) / 4, abs=1e-15)

    def test_domain_violation_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--m", "5", "--lambda", "0.5",
                           "--which", "R")
        assert code == 2
        assert "domain [1, 5]" in err

    def test_nan_lambda_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "--m", "5", "--lambda", "nan",
                             "--which", "R")
        assert code == 2
        assert out == ""
        assert "domain [1, 5]" in err

    @pytest.mark.parametrize("which", ["R", "R1", "R2", "gamma", "g", "f", "hull"])
    def test_all_functions_print_a_number(self, capsys, which):
        code, out, _ = run(capsys, "eval", "--m", "6", "--lambda", "3.5",
                           "--which", which)
        assert code == 0
        float(out)  # parseable

    def test_env_var_overrides_base(self, capsys, monkeypatch):
        monkeypatch.setenv("RFUN_LOG_BASE", "natural")
        code, out, _ = run(capsys, "eval", "--m", "5", "--lambda", "5",
                           "--which", "R")
        assert code == 0
        assert float(out) == pytest.approx(np.log(5), abs=1e-14)


class TestCertify:
    def test_single_m(self, capsys):
        code, out, _ = run(capsys, "certify", "--m", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 5 and doc["overall"] is True

    def test_range(self, capsys):
        code, out, _ = run(capsys, "certify", "--m", "5..8")
        assert code == 0
        docs = json.loads(out)
        assert [d["m"] for d in docs] == [5, 6, 7, 8]
        assert all(d["overall"] for d in docs)

    def test_m2_no_inflection_still_exit_0(self, capsys):
        code, out, _ = run(capsys, "certify", "--m", "2")
        assert code == 0
        doc = json.loads(out)
        unique = next(c for c in doc["checks"] if c["name"] == "unique_inflection")
        # no sign change of R'': (g - f)'' <= -4/(m sqrt(m-1)) = -2
        assert unique["claim"].startswith("exactly 0 sign change(s)") and unique["pass"]
        assert unique["measured"] == -2.0

    def test_invalid_dimension_exit_2(self, capsys):
        code, _, err = run(capsys, "certify", "--m", "1")
        assert code == 2 and err

    def test_empty_range_exit_2(self, capsys):
        code, out, err = run(capsys, "certify", "--m", "8..5")
        assert code == 2 and out == ""
        assert "empty range" in err

    @pytest.mark.parametrize("m", [str(2**53 + 1), str(10**17 + 1), f"{2**53 - 992}..{2**53 + 1}"],
                             ids=["2**53+1", "10**17+1", "range-across"])
    def test_dimension_past_certify_limit_exit_2(self, capsys, monkeypatch, m):
        # refused before any certificate is built, for a range that crosses the bound too
        def certify_proof(m):
            pytest.fail(f"certified m = {m}")
        monkeypatch.setattr(cli, "certify_proof", certify_proof)
        code, out, err = run(capsys, "certify", "--m", m)
        assert code == 2 and out == ""
        assert err == ("error: the certifier needs m and m - 1 exact in doubles, "
                       f"m <= {2**53}, got {m.split('..')[-1]}\n")

    def test_grid_option_is_a_usage_error(self, capsys):
        # the certifier samples no grid; rfunc table keeps its --grid
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--m", "5", "--grid", "10000"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --grid" in captured.err

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "certify", "--m", "6")
        _, out2, _ = run(capsys, "certify", "--m", "6")
        assert out1 == out2


class TestTable:
    def test_columns_and_sign_change(self, capsys):
        code, out, _ = run(capsys, "table", "--m", "4", "--grid", "1000")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,R,R_second,hull"
        assert len(lines) == 1001
        assert "\r" not in out
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        r2 = rows[:, 2]
        signs = np.sign(r2)
        assert np.count_nonzero(np.diff(signs[signs != 0])) == 1
        assert abs(rows[0, 1]) < 1e-10  # R ~ 0 at the first row

    def test_m2_hull_equals_r(self, capsys):
        code, out, _ = run(capsys, "table", "--m", "2", "--grid", "500")
        assert code == 0
        rows = np.array([[float(v) for v in ln.split(",")]
                         for ln in out.strip().split("\n")[1:]])
        assert np.max(np.abs(rows[:, 1] - rows[:, 3])) <= 1e-12

    def test_csv_round_trip(self, capsys, tmp_path):
        from rfunc import hull_value, r_second, r_value
        from rfunc.core import convert_base
        path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", "--m", "4", "--grid", "50",
                         "--output", str(path))
        assert code == 0
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        lam = np.linspace(1 + cli._GRID_LEFT_OFFSET, 4 - cli._GRID_RIGHT_OFFSET, 50)
        direct = np.column_stack([lam, r_value(lam, 4),
                                  convert_base(r_second(lam, 4), "two"),
                                  hull_value(lam, 4)])
        denom = np.maximum(np.abs(direct), 1e-300)
        assert np.max(np.abs(rows - direct) / denom) <= 1e-15

    def test_unwritable_output_exit_3(self, capsys):
        code, _, err = run(capsys, "table", "--m", "3", "--grid", "100",
                           "--output", "/nonexistent/dir/out.csv")
        assert code == 3 and err

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "table", "--m", "5", "--grid", "200")
        _, out2, _ = run(capsys, "table", "--m", "5", "--grid", "200")
        assert out1 == out2

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_exit_2(self, capsys, grid):
        code, out, err = run(capsys, "table", "--m", "4", "--grid", grid)
        assert code == 2 and out == ""
        assert "--grid" in err

    def test_grid_one_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--m", "4", "--grid", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 and lines[0] == "lambda,R,R_second,hull"
        assert float(lines[1].split(",")[0]) == 1.0 + 1e-6

    def test_dimension_at_grid_limit(self, capsys):
        code, out, _ = run(capsys, "table", "--m", str(2**40), "--grid", "3")
        assert code == 0 and len(out.strip().split("\n")) == 4

    # past 2**40 the grid's right end m - 1e-4 rounds to m: the limit is named,
    # not an R'' error about a lambda the user never gave
    @pytest.mark.parametrize("m", [2**40 + 1, 2**53 + 1], ids=["2**40+1", "2**53+1"])
    def test_dimension_past_grid_limit_exit_2(self, capsys, m):
        code, out, err = run(capsys, "table", "--m", str(m), "--grid", "3")
        assert code == 2 and out == ""
        assert err == (f"error: m = {m} is too large for the lambda grid: "
                       "its right end m - 0.0001 rounds to m\n")


class TestEof:
    def test_isotropic_maximal_qubit(self, capsys):
        code, out, _ = run(capsys, "eof", "isotropic", "--d", "2", "--F", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_isotropic_below_threshold(self, capsys):
        code, out, _ = run(capsys, "eof", "isotropic", "--d", "3", "--F", "0.2")
        assert code == 0
        assert float(out) == 0.0

    def test_bound_from_state_file(self, capsys, tmp_path):
        path = tmp_path / "bell33.json"
        dump_state(max_entangled_state(3), str(path))
        code, out, _ = run(capsys, "eof", "bound", "--state", str(path))
        assert code == 0
        assert float(out) == pytest.approx(np.log2(3), abs=1e-9)

    def test_missing_state_file_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "eof", "bound", "--state",
                           str(tmp_path / "missing.json"))
        assert code == 3 and err

    def test_malformed_state_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "matrix": [[1, 2], [3, 4]]}')
        code, _, err = run(capsys, "eof", "bound", "--state", str(path))
        assert code == 2
        assert "matrix must be rows of [re, im] pairs" in err

    @pytest.mark.parametrize("content, message", [
        (b'{"dims": [2, 2], "matrix": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "nests too deeply"),
        (b'\xff{"dims": [2, 2], "matrix": []}', "not UTF-8"),
        # read as numbers, the rows would be the valid pure state |00><00|
        (json.dumps({"dims": [2, 2], "matrix": [[[i == j == 0, False] for j in range(4)]
                                                for i in range(4)]}).encode(),
         "must be numbers"),
        # past 4300 digits int() raises a plain ValueError
        (b'{"dims": [1' + b"0" * 5000 + b', 2], "matrix": []}', "integer of 5001 digits"),
    ], ids=["deeply_nested", "not_utf8", "booleans", "integer_too_long"])
    def test_undecodable_state_file_exit_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "eof", "bound", "--state", str(path))
        assert code == 2 and out == ""
        assert err.startswith("invalid state file: ") and message in err

    def test_invalid_state_names_first_failure(self, capsys, tmp_path):
        rows = [[[0.5 if i == j else 0.0, 0.0] for j in range(4)]
                for i in range(4)]
        path = tmp_path / "trace2.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
        code, _, err = run(capsys, "eof", "bound", "--state", str(path))
        assert code == 2
        assert "trace" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--m", "1" + "0" * 400, "--lambda", "2", "--which", "R"],
        ["certify", "--m", "1" + "0" * 400],
        ["certify", "--m", "2..1" + "0" * 400],
        ["eof", "isotropic", "--d", "1" + "0" * 400, "--F", "0.5"],
    ], ids=["eval", "certify", "certify-range", "eof-isotropic"])
    def test_dimension_beyond_float_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "beyond the float range" in err

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.45 GiB"),
                                     MemoryError()], ids=["numpy", "bare"])
    def test_memory_error_exit_2(self, capsys, monkeypatch, exc):
        # an --m range too large for memory; nothing is allocated here
        def certify_proof(m):
            raise exc
        monkeypatch.setattr(cli, "certify_proof", certify_proof)
        code, out, err = run(capsys, "certify", "--m", "5")
        assert code == 2 and out == ""
        assert err == f"error: {str(exc) or 'MemoryError'}\n"

    def test_exit_codes_disjoint(self):
        from rfunc.cli import EXIT_CERTIFY_FAIL, EXIT_IO, EXIT_OK, EXIT_USAGE
        assert len({EXIT_OK, EXIT_CERTIFY_FAIL, EXIT_USAGE, EXIT_IO}) == 4

    @pytest.mark.parametrize("argv", [
        ["eval", "--m", "5", "--lambda", "5", "--which", "R"],
        ["table", "--m", "3", "--grid", "100"],
        ["eof", "isotropic", "--d", "3", "--F", "0.2"],  # 0 without a base conversion
        ["eof", "bound", "--state", "unread.json"],
    ])
    def test_invalid_env_base_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("RFUN_LOG_BASE", "bits")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "RFUN_LOG_BASE" in err and "'bits'" in err

    def test_certify_ignores_env_base(self, capsys, monkeypatch):
        monkeypatch.delenv("RFUN_LOG_BASE", raising=False)
        _, plain, _ = run(capsys, "certify", "--m", "5")
        for base in ("bits", "natural"):
            monkeypatch.setenv("RFUN_LOG_BASE", base)
            code, out, _ = run(capsys, "certify", "--m", "5")
            assert code == 0 and out == plain


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch, tmp_path):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        cli._parser.cache_clear()
        path = tmp_path / "bell22.json"
        dump_state(max_entangled_state(2), str(path))
        for _ in range(3):
            assert run(capsys, "eof", "bound", "--state", str(path))[0] == 0
        assert run(capsys, "eval", "--m", "5", "--lambda", "5", "--which", "R")[0] == 0
        assert len(calls) == 1

    def test_import_builds_no_parser(self):
        # a fresh interpreter, so that no earlier test has built the parser
        script = ("import argparse\n"
                  "built = []\n"
                  "init = argparse.ArgumentParser.__init__\n"
                  "argparse.ArgumentParser.__init__ = "
                  "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
                  "import rfunc, rfunc.cli\n"
                  "print(len(built), rfunc.cli._parser.cache_info().currsize)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]

    def test_env_base_read_on_every_call(self, capsys, monkeypatch):
        argv = ["eval", "--m", "5", "--lambda", "5", "--which", "R"]
        monkeypatch.setenv("RFUN_LOG_BASE", "natural")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and float(out) == pytest.approx(np.log(5), abs=1e-14)
        monkeypatch.setenv("RFUN_LOG_BASE", "two")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip() == f"{np.log2(5):.15g}"
        monkeypatch.setenv("RFUN_LOG_BASE", "bits")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "'bits'" in err

    def test_log_flag_does_not_carry_over(self, capsys, monkeypatch):
        monkeypatch.delenv("RFUN_LOG_BASE", raising=False)
        argv = ["eof", "isotropic", "--d", "3", "--F", "0.9"]
        _, natural, _ = run(capsys, *argv, "--log", "natural")
        _, default, _ = run(capsys, *argv)
        _, two, _ = run(capsys, *argv, "--log", "two")
        assert default == two != natural
