import codecs
import csv
import json
import math
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fwdreg import cli, experiment, forward_select, oracle, theory_bounds
from fwdreg import simulate as simulate_module
from fwdreg.cli import (
    EXIT_BOUND_FAILURE,
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    compare_csv,
    fit_csv,
    main,
    read_csv,
)
from fwdreg.core_linalg import gram, standardize
from fwdreg.experiment import run_rates
from fwdreg.forward_select import forward_regression
from fwdreg.simulate import SimConfig, oracle_threshold, simulate_dataset
from helpers import child_env

DATA = pathlib.Path(__file__).parent / "data"


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def csv_gram(path):
    """The Gram matrix that sparse-eig computes for a CSV."""
    _names, x, _y, _yi = read_csv(str(path))
    standardize(x)
    return gram(x)


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    write_rows(path, ["x1", "y"], [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    return str(path)


class TestFit:
    def test_single_covariate_identity(self, tiny_csv):
        report = fit_csv(tiny_csv, t=0.1)
        assert report["support_names"] == ["x1"]
        assert report["coefficients"]["x1"] == pytest.approx(1.0, abs=1e-12)
        assert report["intercept"] == pytest.approx(0.0, abs=1e-12)

    def test_threshold_dominates(self, tiny_csv):
        report = fit_csv(tiny_csv, t=10.0)
        assert report["support"] == []
        assert report["intercept"] == pytest.approx(1.0)  # response mean

    def test_golden_file(self, tmp_path):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "-i", str(DATA / "golden_fit_input.csv"),
            "-t", "0.1", "-o", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == (DATA / "golden_fit_output.json").read_bytes()

    def test_back_transform_round_trip(self):
        names, raw, y, _yi = read_csv(str(DATA / "golden_fit_input.csv"))
        report = fit_csv(str(DATA / "golden_fit_input.csv"), t=0.1)
        beta = np.zeros(len(names))
        for name, value in report["coefficients"].items():
            beta[names.index(name)] = value
        fitted = report["intercept"] + raw @ beta
        resid = y - fitted
        assert (resid**2).mean() == pytest.approx(report["loss"], rel=1e-10)

    def test_zero_variance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_rows(path, ["x1", "x2", "y"],
                   [[5.0, 1.0, 1.0], [5.0, 2.0, 2.0], [5.0, 3.0, 2.5]])
        out = tmp_path / "o.json"
        code = main(["fit", "-i", str(path), "-t", "0.1", "-o", str(out)])
        assert code == EXIT_DEGENERATE
        assert capsys.readouterr().err == (
            f"degenerate input: {path}: column 'x1' (CSV column 1) has zero sample variance\n")
        assert not out.exists()

    def test_malformed_csv_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,abc\n2.0,3.0\n")
        code = main(["fit", "-i", str(path), "-t", "0.1",
                     "-o", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "noy.csv"
        write_rows(path, ["x1", "x2"], [[1.0, 2.0], [3.0, 4.0]])
        code = main(["fit", "-i", str(path), "-t", "0.1",
                     "-o", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT

    def test_duplicate_column_name(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        write_rows(path, ["a", "a", "y"],
                   [[1.0, 0.0, 1.0], [2.0, 1.0, 0.0], [3.0, 0.0, 2.0]])
        code = main(["fit", "-i", str(path), "-t", "0.1",
                     "-o", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT
        assert "duplicate column name 'a'" in capsys.readouterr().err

    def test_single_row(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        write_rows(path, ["x1", "y"], [[1.0, 2.0]])
        code = main(["fit", "-i", str(path), "-t", "0.1",
                     "-o", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT
        assert "needs at least two observations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, header, bad_row, column",
    [
        (["fit", "-t", "0.1"], ["x1", "x2", "y"], [1.0, 0.5, float("nan")], "y"),
        (["fit", "-t", "0.1"], ["x1", "x2", "y"], [1.0, float("inf"), 0.5], "x2"),
        (["sparse-eig", "--s", "1"], ["x1", "x2"], [float("nan"), 0.5], "x1"),
    ],
)
def test_non_finite_cell_rejected(tmp_path, capsys, command, header, bad_row, column):
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((5, len(header))).tolist() + [bad_row]
    path = tmp_path / "d.csv"
    write_rows(path, header, rows)
    out = tmp_path / "o.json"
    code = main(command + ["-i", str(path), "-o", str(out)])
    assert code == EXIT_INPUT
    assert f"non-finite value in column '{column}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("x1,y\n", "no data rows"),
        ("x1,x2,y\n1,2,3\n4,5\n6,7,8\n", "number of columns changed"),
        ("x1,y\n1,2,3\n4,5,6\n7,8,9\n", "row width does not match header"),
        ("x1,x2,y\n1,2\n4,5\n7,8\n", "row width does not match header"),
        ("x1,y\n1,2 #c\n4,5\n7,8\n", "could not convert string '2 #c'"),
    ],
    ids=["empty", "header_only", "ragged", "wider", "narrower", "hash_in_cell"],
)
def test_malformed_csv_rejected(tmp_path, capsys, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    out = tmp_path / "o.json"
    code = main(["fit", "-t", "0.1", "-i", str(path), "-o", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "non-numeric" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["fit", "-t", "0.1"], ["sparse-eig", "--s", "1"]], ids=["fit", "sparse_eig"]
)
def test_csv_without_covariates_rejected(tmp_path, capsys, command):
    path = tmp_path / "d.csv"
    path.write_text("y\n1\n2\n3\n")
    out = tmp_path / "o.json"
    assert main(command + ["-i", str(path), "-o", str(out)]) == EXIT_INPUT
    assert "need at least one observation and one covariate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("3,abc", "could not convert string 'abc' to float64 on line 4, column 2"),
        ("3", "the number of columns changed from 2 to 1 on line 4"),
        ("3,nan", "non-finite value in column 'y' on line 4"),
    ],
    ids=["bad_cell", "ragged", "nan_cell"],
)
def test_csv_errors_name_the_file_line(tmp_path, capsys, bad_line, message):
    """Row errors count file lines: the header is line 1, blanks count."""
    path = tmp_path / "d.csv"
    path.write_text(f"x1,y\n1,2\n\n{bad_line}\n5,6\n")
    code = main(["fit", "-t", "0.1", "-i", str(path), "-o", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "row" not in err
    assert "usecols" not in err


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("3,x", "could not convert string 'x' to float64 on line {}, column 2"),
        ("3", "the number of columns changed from 2 to 1 on line {}"),
        ("3,nan", "non-finite value in column 'y' on line {}"),
    ],
    ids=["bad_cell", "ragged", "nan_cell"],
)
@pytest.mark.parametrize("blank", ["", "\n"], ids=["no_blank", "blank_after_header"])
def test_csv_errors_count_every_header_line(tmp_path, capsys, bad_line, message, blank):
    """A quoted column name may hold a line end, so the header spans two
    file lines here and the bad row is on line 4, or 5 after a blank."""
    path = tmp_path / "d.csv"
    path.write_text(f'"a\nb",y\n{blank}1,2\n{bad_line}\n5,6\n')
    code = main(["fit", "-t", "0.1", "-i", str(path), "-o", str(tmp_path / "o.json")])
    assert code == EXIT_INPUT
    assert message.format(4 + len(blank)) in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, column",
    [("x1,,y", 2), ("x1, ,y", 2), (",x1,y", 1), ("x1,y,", 3), ("x1,,y,", 2)],
    ids=["middle", "blank", "first", "trailing", "two_empty"],
)
@pytest.mark.parametrize(
    "command", [["fit", "-t", "0.1"], ["sparse-eig", "--s", "1"]], ids=["fit", "sparse_eig"]
)
def test_empty_column_name_rejected(tmp_path, capsys, command, header, column):
    width = header.count(",") + 1
    rows = "\n".join(",".join(str(i + j * j) for j in range(width)) for i in range(4))
    path = tmp_path / "d.csv"
    path.write_text(f"{header}\n{rows}\n")
    out = tmp_path / "o.json"
    code = main(command + ["-i", str(path), "-o", str(out)])
    assert code == EXIT_INPUT
    assert f"empty column name in column {column}" in capsys.readouterr().err
    assert not out.exists()


def test_quoted_cells_and_blank_lines_accepted(tmp_path):
    rng = np.random.default_rng(6)
    header = ["x1", "x2", "x3", "y"]
    rows = [repr(v) for v in rng.standard_normal(48).tolist()]
    rows = [rows[i:i + 4] for i in range(0, 48, 4)]
    rows[0] = [" 2.25 ", ".5", "1E-3", "-0"]
    rows[1] = ["5.", "4.9e-324", "-1e3", "+7"]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_rows(plain, header, rows)
    with open(quoted, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_ALL)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
            fh.write("\n")
    # Python's float() is the reference parse, bit for bit
    reference = np.array([[float(v) for v in row] for row in rows])
    for path in (plain, quoted):
        names, raw, y, _yi = read_csv(str(path))
        assert names == header[:3]
        assert np.column_stack([raw, y]).tobytes() == reference.tobytes()
    assert fit_csv(str(quoted), t=0.05) == fit_csv(str(plain), t=0.05)


@pytest.mark.parametrize("header", [["y", "x1", "x2"], ["x1", "y", "x2"]],
                         ids=["y_first", "y_inside"])
def test_utf8_byte_order_mark_dropped(tmp_path, header):
    """A CSV saved as Excel's "CSV UTF-8" starts with a byte-order mark; it
    must neither hide a leading "y" nor end up in the first column name."""
    rng = np.random.default_rng(8)
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_rows(plain, header, rng.standard_normal((12, 3)).tolist())
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    names, _raw, y, yi = read_csv(str(bom))
    assert names == [h for h in header if h != "y"]
    assert yi == header.index("y")
    assert y is not None
    reports = []
    for path in (plain, bom):
        out = tmp_path / f"{path.stem}.json"
        assert main(["fit", "-i", str(path), "-t", "0.01", "-o", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv, header, name, column",
    [
        (["fit", "-t", "0.1"], ["y", "a"], "a", 2),
        (["compare", "-t", "0.1"], ["a", "y", "b"], "b", 3),
        (["sparse-eig", "--s", "1"], ["a", "b"], "b", 2),
    ],
    ids=["fit_y_first", "compare_y_inside", "sparse_eig_no_y"],
)
def test_constant_column_is_named(tmp_path, capsys, argv, header, name, column):
    """A constant covariate is reported by its header name and its 1-based
    column in the file, which counts the "y" column where there is one."""
    path = tmp_path / "flat.csv"
    columns = {"y": [1.0, 2.0, 3.0], "a": [3.0, 1.0, 2.0], "b": [2.0, 2.0, 2.0]}
    columns[name] = [2.0, 2.0, 2.0]
    write_rows(path, header, zip(*(columns[h] for h in header)))
    out = tmp_path / "o.json"
    assert main([*argv, "-i", str(path), "-o", str(out)]) == EXIT_DEGENERATE
    assert capsys.readouterr().err == (f"degenerate input: {path}: column {name!r} "
                                       f"(CSV column {column}) has zero sample variance\n")
    assert not out.exists()


_OVERFLOW_COLUMN = [[1.0, 1e200, 2.0], [-1.0, -1e200, 1.0], [3.0, 3e200, 5.0], [2.0, 4.0, 4.0]]
_OVERFLOW_Y = [[1e200, 1.0, 2.0], [-1e200, -1.0, 1.0], [3e200, 3.0, 5.0], [2.0, 4.0, 4.0]]
_COLUMN_MESSAGE = ("{path}: column 'a' (CSV column 2) is too large to standardize: "
                   "its second moment overflows float64")
_Y_MESSAGE = "the response is too large: its (1/n) second moment E_n[y^2] overflows float64"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, rows, message",
    [
        (["sparse-eig", "--s", "2"], _OVERFLOW_COLUMN, _COLUMN_MESSAGE),
        (["fit", "-t", "0.1"], _OVERFLOW_COLUMN, _COLUMN_MESSAGE),
        (["compare", "-t", "0.1"], _OVERFLOW_COLUMN, _COLUMN_MESSAGE),
        (["fit", "-t", "0.1"], _OVERFLOW_Y, _Y_MESSAGE),
        (["compare", "-t", "0.1"], _OVERFLOW_Y, _Y_MESSAGE),
    ],
    ids=["sparse_eig_column", "fit_column", "compare_column", "fit_y", "compare_y"],
)
def test_overflowing_csv_rejected(tmp_path, capsys, argv, rows, message):
    """A column or a response too large to square in float64 exits 2 with
    one error line and no numpy warning (made an error here), where
    sparse-eig used to report phi = 0 for a column standardized to zeros
    and fit to raise OverflowError."""
    path = tmp_path / "big.csv"
    write_rows(path, ["y", "a", "b"], rows)
    out = tmp_path / "o.json"
    assert main([*argv, "-i", str(path), "-o", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(path=path)}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, flags",
    [("verify", ["--replications", "2"]),
     ("rates", ["--n-grid", "10,15,20,30", "--replications", "2"])],
    ids=["verify", "rates"],
)
@pytest.mark.parametrize(
    "field, value, message",
    [("c", 1e200, _Y_MESSAGE),
     ("noise_sd", 1e300, "the oracle threshold t overflows float64 (noise sup-norm "
                         "||E_n[x_i eps_i]||_inf = "),
     ("c", 1e308, "the simulated response y overflows float64; lower c or noise_sd")],
    ids=["c", "noise_sd", "c_past_float64"],
)
def test_overflowing_simulation_rejected(tmp_path, capsys, command, flags, field, value,
                                         message):
    """A finite config whose model overflows float64 exits 2 with one error
    line, where the fit or the oracle threshold used to raise OverflowError."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 30, "p": 4, "s0": 2, field: value}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *flags, "-o", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


_DEV_MODE_SCRIPT = """
import sys
import fwdreg.cli
sys.exit(fwdreg.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["fit", "-t", "0.1"], EXIT_OK, ""),
        (["sparse-eig", "--s", "2"], EXIT_OK, ""),
        (["fit", "-t", "0.1"], EXIT_INPUT,
         "could not convert string 'abc' to float64 on line 5, column 2"),
    ],
    ids=["fit", "sparse_eig", "fit_bad_cell"],
)
def test_dev_mode_run_is_clean(tmp_path, argv, code, stderr):
    """The CSV rows stream from an open file into the parser. Under
    ``python -X dev -W error`` a file left open, or any other warning,
    shows up on stderr, so stderr holds the error line or nothing. The bad
    cell stops the parser part way through the file."""
    rows = "1,2\n3,1\n\n" + ("3,abc\n" if code else "") + "4,6\n0,1\n"
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n" + rows)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _DEV_MODE_SCRIPT,
         *argv, "-i", str(path), "-o", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == code, proc.stderr
    if stderr:
        assert proc.stderr.startswith("error: ") and stderr in proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("fit", "-t", "threshold t must be finite and positive"),
        ("compare", "-t", "threshold t must be finite and positive"),
        ("verify", "--safety", "safety factor must be finite and >= 1"),
        ("rates", "--safety", "safety factor must be finite and >= 1"),
    ],
)
def test_non_finite_threshold_or_safety_rejected(
    tmp_path, capsys, command, flag, message, value
):
    if command in ("fit", "compare"):
        source = ["-i", str(DATA / "golden_fit_input.csv")]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(n=60, p=8, s0=2, seed=5)))
        source = ["--config", str(cfg), "--replications", "1"]
        if command == "rates":
            source += ["--n-grid", "60,80,100,120"]
    out = tmp_path / "out"
    code = main([command, *source, f"{flag}={value}", "-o", str(out)])
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config_seed, flags, message",
    [
        ("verify", 5, ["--seed", "-5"], "seed must be >= 0"),
        ("verify", -1, [], "seed must be >= 0"),
        ("rates", 5, ["--seed", "-5"], "seed must be >= 0"),
        ("verify", 5, ["--phi-size", "0"], "phi_size must be >= 1"),
        ("verify", 5, ["--phi-size", "-3"], "phi_size must be >= 1"),
    ],
    ids=["verify-flag", "verify-config", "rates-flag",
         "verify-phi-size-0", "verify-phi-size-negative"],
)
def test_negative_seed_rejected(tmp_path, capsys, command, config_seed, flags, message):
    # numpy's own "expected non-negative integer" named no input
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(n=60, p=8, s0=2, seed=config_seed)))
    source = ["--config", str(cfg), "--replications", "1"]
    if command == "rates":
        source += ["--n-grid", "60,80,100,120"]
    out = tmp_path / "out"
    code = main([command, *source, *flags, "-o", str(out)])
    assert code == EXIT_INPUT
    # an error in the config file names the file; one in a flag does not
    where = f"{cfg}: " if config_seed < 0 else ""
    assert f"error: {where}{message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [("verify", ["--replications", "2"]),
     ("rates", ["--n-grid", "50,60,70,80", "--replications", "2"])],
    ids=["verify", "rates"],
)
@pytest.mark.parametrize(
    "config, message",
    [({"n": 50, "p": 0, "s0": 0}, "p must be >= 1, got 0"),
     ({"n": 50, "p": 10, "s0": 2, "design": "equicorrelated", "rho": -0.5},
      "an equicorrelated design needs rho > -1/(p - 1) = -0.1111111111111111 "
      "at p = 10, got -0.5")],
    ids=["no-covariates", "equicorrelated-rho"],
)
def test_unsimulable_config_rejected(tmp_path, capsys, command, flags, config, message):
    # these used to fail later, on an unrelated check or in numpy's Cholesky
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), *flags, "-o", str(out)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"error: {cfg}: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [("verify", ["--replications", "2"]),
     ("rates", ["--n-grid", "50,60,70,80", "--replications", "2"])],
    ids=["verify", "rates"],
)
@pytest.mark.parametrize(
    "text, message",
    [(b'{"n": 50,\n}', "Expecting property name enclosed in double quotes: "
                       "line 2 column 1 (char 10)"),
     (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
     (b'{"n": 50, "p": 8, "s0": 2, "seed": 1, "rho": 1e400}',
      "rho must be a finite real number, got inf"),
     # json itself keeps the last value, which ran the sweep at n = 60
     (b'{"n": 50, "p": 8, "s0": 2, "seed": 1, "n": 60}', "duplicate key 'n'")],
    ids=["malformed", "not-utf8", "infinite-rho", "duplicate-key"],
)
def test_bad_config_file_is_named(tmp_path, capsys, command, flags, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), *flags, "-o", str(out)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [("verify", ["--replications", "2"]),
     ("rates", ["--n-grid", "3,4,5,6", "--replications", "2"])],
)
def test_zero_sparse_eigenvalue_rejected(tmp_path, capsys, command, flags):
    # at n = 3 every subset of the default phi size 4 is singular
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "p": 10, "s0": 2, "seed": 3}))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), *flags, "-o", str(out)])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert ("error: minimum sparse eigenvalue phi = 0.0 is not positive, so no "
            "threshold meets the regularization premise (n = 3;") in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, golden, over_budget",
    [
        (["verify", "--config", str(DATA / "golden_verify_config.json"),
          "--replications", "3", "--threads", "1"], "golden_verify_output.json", False),
        (["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "3"],
         "golden_sparse_eig_exact.json", False),
        (["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "3"],
         "golden_sparse_eig_sampled.json", True),
        (["compare", "-i", str(DATA / "adversarial_compare.csv"), "-t", "0.05"],
         "golden_compare_output.json", False),
    ],
    ids=["verify", "sparse-eig-exact", "sparse-eig-sampled", "compare"],
)
def test_report_matches_golden_file(tmp_path, monkeypatch, argv, golden, over_budget):
    """Pins each report schema: a renamed, dropped or added field changes
    the bytes. The sampled report is what an over-budget request gets,
    forced here on the small golden input by a subset budget of 0."""
    if over_budget:
        monkeypatch.setattr(theory_bounds, "DEFAULT_SUBSET_BUDGET", 0)
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_rates_matches_golden_files(tmp_path, capsys):
    """Pins the rates CSV and its stdout line, header and fields included."""
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", str(DATA / "golden_verify_config.json"),
                 "--n-grid", "100,200,400,800", "--replications", "20",
                 "-o", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / "golden_rates_output.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / "golden_rates_stdout.json").read_text()


def test_rates_with_phi_size_p_checks_no_bound(tmp_path, capsys):
    """At phi_size = p (p = 4, s0 = 2) the descent solves the one subset,
    range(p), so its phi happens to be exact; its interval still reads
    [0, value], so no bound check runs, whose smaller sizes the descent
    cannot certify, and the CSV is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 40, "p": 4, "s0": 2, "seed": 7}))
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", str(cfg), "--n-grid", "20,40,80,160",
                 "--replications", "3", "-o", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        assert [row["n"] for row in csv.DictReader(fh)] == ["20", "40", "80", "160"]


def test_forked_rates_under_two_blas_threads_match_golden_files(tmp_path):
    """Two worker processes, each forked while OpenBLAS runs two threads
    (it stops its pool before a fork and restarts it after), give the
    golden CSV and stdout line. The timeout turns a deadlocked child into
    a failure."""
    out = tmp_path / "rates.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fwdreg.cli", "rates",
         "--config", str(DATA / "golden_verify_config.json"),
         "--n-grid", "100,200,400,800", "--replications", "20", "--threads", "2",
         "-o", str(out)],
        capture_output=True, text=True, timeout=300, env=child_env(OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert out.read_bytes() == (DATA / "golden_rates_output.csv").read_bytes()
    assert proc.stdout == (DATA / "golden_rates_stdout.json").read_text()


@pytest.mark.parametrize(
    "argv",
    [["rates", "--config", str(DATA / "golden_verify_config.json"),
      "--n-grid", "100,200,400,800", "--draws", "500"],
     ["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "3",
      "--draws", "200"],
     ["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "3",
      "--seed", "5"],
     ["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "3",
      "--mode", "exact"]],
    ids=["rates-draws", "sparse-eig-draws", "sparse-eig-seed", "sparse-eig-mode"],
)
def test_removed_sampling_flags_exit_2(tmp_path, capsys, argv):
    # the sampled path draws no random subsets, so it takes no count or seed,
    # and sparse-eig picks its path from C(p, s), so it takes no mode
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-o", str(out)])
    assert exc.value.code == EXIT_INPUT
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


def _scaled_errors(l2_factor, l1_factor):
    """forward_select.parameter_errors with the l2 and l1 errors scaled."""
    plain = forward_select.parameter_errors

    def scaled(*args):
        l2, l1, pred = plain(*args)
        return l2 * l2_factor, l1 * l1_factor, pred

    return scaled


# for each verdict of BoundReport.holds, a patch under which it alone fails
_BROKEN_BOUNDS = {
    # c1 = 0: no prediction error meets the bound
    "prediction": ("pred_bound_holds", theory_bounds, "constant_c1", lambda *args: 0.0),
    # c2 < 0: not even m = 0 false selections meets m <= c2 * s0
    "count": ("count_bound_holds", theory_bounds, "constant_c2", lambda *args: -1.0),
    # l2 far above phi^{-1} * pred_error_norm
    "theorem3_l2": ("theorem3_l2_ok", forward_select, "parameter_errors",
                    _scaled_errors(1e6, 1.0)),
    # l1 far above sqrt(s_hat + s0) * l2
    "theorem3_l1": ("theorem3_l1_ok", forward_select, "parameter_errors",
                    _scaled_errors(1.0, 1e6)),
}


class TestVerifyCommand:
    def _config(self, tmp_path, **overrides):
        cfg = dict(n=100, p=20, s0=2, design="independent", rho=0.0,
                   theta_pattern="constant", c=1.0, rate=1.0,
                   noise_sd=0.5, seed=101)
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", self._config(tmp_path),
                     "--replications", "5", "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["all_bounds_hold"]
        assert len(report["records"]) == 5
        assert report["schema_version"] == "4"

    def test_thread_count_does_not_change_report(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out4 = tmp_path / "r1.json", tmp_path / "r4.json"
        assert main(["verify", "--config", cfg, "--replications", "8",
                     "--threads", "1", "-o", str(out1)]) == EXIT_OK
        assert main(["verify", "--config", cfg, "--replications", "8",
                     "--threads", "4", "-o", str(out4)]) == EXIT_OK
        assert out1.read_bytes() == out4.read_bytes()

    def test_aggregates_recomputable(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "--config", self._config(tmp_path),
              "--replications", "7", "-o", str(out)])
        report = json.loads(out.read_text())
        med = float(np.median([r["s_hat"] for r in report["records"]]))
        assert report["aggregates"]["s_hat"]["median"] == med

    def test_exact_eig_budget_guard(self, tmp_path, capsys):
        # p large enough that exact enumeration is out of budget; the bound
        # checks take exact phi only, so the sampled path is no way out
        cfg = self._config(tmp_path, p=500, n=50, s0=2)
        out = tmp_path / "o.json"
        code = main(["verify", "--config", cfg, "--replications", "1",
                     "--phi-size", "8", "-o", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert (f"error: C(500, 8) = {math.comb(500, 8)} subsets > budget 10000000; "
                "the bound checks take exact phi_min only, so verify needs a "
                "smaller --phi-size (now 8) or p\n") == err
        assert "--mode" not in err
        assert not out.exists()

    def test_budget_guard_at_fit_size_names_p_and_s0(self, tmp_path, capsys):
        # phi_min(1) is cheap, but the bounds are evaluated at s_hat + s0 = 6,
        # which --phi-size does not set; C(60, 6) is refused before enumerating
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 200, "p": 60, "s0": 3, "seed": 1}))
        out = tmp_path / "o.json"
        code = main(["verify", "--config", str(cfg), "--replications", "1",
                     "--phi-size", "1", "-o", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: C(60, 6) = {math.comb(60, 6)} subsets > budget 10000000; "
            "the bound checks take exact phi_min only, so verify needs a smaller "
            "p or s0 (6 is a bound-check size, s_hat + s0 or m + s0)\n")
        assert not out.exists()

    def test_budget_guard_over_two_workers(self, tmp_path, capsys):
        """A job that fails in a forked worker gives the serial run's exit
        code and message, and no report."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 200, "p": 60, "s0": 3, "seed": 1}))
        out = tmp_path / "o.json"
        code = main(["verify", "--config", str(cfg), "--replications", "2",
                     "--threads", "2", "-o", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: C(60, 6) = {math.comb(60, 6)} subsets > budget 10000000; "
            "the bound checks take exact phi_min only, so verify needs a smaller "
            "--phi-size (now 6) or p\n")
        assert not out.exists()

    @pytest.mark.parametrize("verdict, module, name, patch", _BROKEN_BOUNDS.values(),
                             ids=_BROKEN_BOUNDS.keys())
    def test_failed_bound_check_exits_4(self, tmp_path, capsys, monkeypatch,
                                        verdict, module, name, patch):
        """Each verdict that BoundReport.holds combines fails a run on its
        own. The replications run in this process (one worker), where the
        patch holds."""
        monkeypatch.setattr(module, name, patch)
        out = tmp_path / "report.json"
        code = main(["verify", "--config", self._config(tmp_path),
                     "--replications", "2", "--threads", "1", "-o", str(out)])
        assert code == EXIT_BOUND_FAILURE
        assert capsys.readouterr().err == "bound check failed on at least one replication\n"
        report = json.loads(out.read_text())
        assert report["all_bounds_hold"] is False
        keys = [key for key, *_ in _BROKEN_BOUNDS.values()]
        for record in report["records"]:
            assert {key: record[key] for key in keys} == {key: key != verdict for key in keys}

    @pytest.mark.parametrize("c", [1e16, 1e17, 1e20])
    def test_large_signal_passes_within_rounding(self, tmp_path, c):
        """With a signal this strong the refit's rounding, at the scale of y,
        outgrows c1, which does not grow with c; without slack for it the
        prediction check failed on at least one of these 5 seeds."""
        out = tmp_path / "report.json"
        code = main(["verify", "--config", self._config(tmp_path, n=30, p=4, s0=2, c=c,
                                                         noise_sd=1.0, seed=0),
                     "--replications", "5", "-o", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["all_bounds_hold"] is True

    def test_zero_eigenvalue_at_fit_size(self, tmp_path, capsys):
        # s_hat = 4 and s0 = 3 fill the n = 7 sample, so phi_min(7) = 0
        cfg = self._config(tmp_path, n=7, p=12, s0=3, noise_sd=0.3, seed=18)
        out = tmp_path / "o.json"
        code = main(["verify", "--config", cfg, "--replications", "1",
                     "--safety", "1.0", "--phi-size", "1", "-o", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert ("error: minimum sparse eigenvalue phi = 0.0 at size 7 "
                "(s_hat = 4, s0 = 3) is not positive") in err
        assert "(n = 7; phi is 0 at every subset size >= n)" in err
        assert not out.exists()

    def test_seed_flag_matches_config_seed(self, tmp_path):
        outputs = []
        for seed, flags in ((101, ["--seed", "11"]), (11, [])):
            out = tmp_path / f"report{seed}.json"
            assert main(["verify", "--config", self._config(tmp_path, seed=seed),
                         "--replications", "2", *flags, "-o", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["config"]["seed"] == 11

    def test_rejects_zero_threads(self, tmp_path, capsys):
        code = main(["verify", "--config", self._config(tmp_path),
                     "--replications", "2", "--threads", "0",
                     "-o", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 100}))
        code = main(["verify", "--config", str(path), "--replications", "2",
                     "-o", str(tmp_path / "o.json")])
        assert code == EXIT_INPUT
        # a NaN field used to run and fail the bound check (exit 4)
        out = tmp_path / "nan.json"
        code = main(["verify", "--config", self._config(tmp_path, c=float("nan")),
                     "--replications", "2", "-o", str(out)])
        assert code == EXIT_INPUT
        assert "c must be a finite real number" in capsys.readouterr().err
        assert not out.exists()


class TestRates:
    def test_noiseless_slope_flagged(self):
        cfg = SimConfig(n=50, p=10, s0=2, noise_sd=0.0, seed=3)
        summary = run_rates(cfg, [50, 100, 200, 400], replications=3)
        assert summary["slope"] is None
        assert summary["slope_flag"]

    def test_csv_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            dict(n=100, p=10, s0=2, noise_sd=1.0, seed=5)))
        out = tmp_path / "rates.csv"
        code = main(["rates", "--config", str(cfg_path),
                     "--n-grid", "100,200,400,800",
                     "--replications", "5", "-o", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,median_pred_error_norm,median_s_hat"
        assert len(lines) == 5
        assert "slope" in capsys.readouterr().out

    def test_thread_count_does_not_change_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            dict(n=100, p=10, s0=2, noise_sd=1.0, seed=5)))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"rates{threads}.csv"
            assert main(["rates", "--config", str(cfg_path),
                         "--n-grid", "100,200,400,800", "--replications", "5",
                         "--threads", threads, "-o", str(out)]) == EXIT_OK
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_rejects_zero_threads(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(n=100, p=10, s0=2, seed=5)))
        code = main(["rates", "--config", str(cfg_path),
                     "--n-grid", "100,200,400,800", "--replications", "2",
                     "--threads", "0", "-o", str(tmp_path / "rates.csv")])
        assert code == EXIT_INPUT
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_rejects_zero_replications(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(n=100, p=10, s0=2, seed=5)))
        out = tmp_path / "rates.csv"
        code = main(["rates", "--config", str(cfg_path),
                     "--n-grid", "100,200,400,800", "--replications", "0",
                     "-o", str(out)])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert "replications must be >= 1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_seed_flag_matches_config_seed(self, tmp_path, capsys):
        outputs = []
        for seed, flags in ((101, ["--seed", "5"]), (5, [])):
            cfg_path = tmp_path / f"cfg{seed}.json"
            cfg_path.write_text(json.dumps(
                dict(n=100, p=10, s0=2, noise_sd=1.0, seed=seed)))
            out = tmp_path / f"rates{seed}.csv"
            assert main(["rates", "--config", str(cfg_path),
                         "--n-grid", "100,200,400,800", "--replications", "3",
                         *flags, "-o", str(out)]) == EXIT_OK
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_bad_n_grid_names_the_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(n=100, p=10, s0=2, seed=5)))
        out = tmp_path / "rates.csv"
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--config", str(cfg_path), "--n-grid", "50,60,x,80",
                  "--replications", "2", "-o", str(out)])
        assert exc.value.code == EXIT_INPUT
        assert ("argument --n-grid: expected a comma list of integers, "
                "got '50,60,x,80'") in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_short_grid(self):
        cfg = SimConfig(n=50, p=10, s0=2, seed=1)
        with pytest.raises(ValueError):
            run_rates(cfg, [100, 200], replications=2)

    def test_rejects_grid_below_two_rows(self):
        cfg = SimConfig(n=50, p=10, s0=2, seed=1)
        with pytest.raises(ValueError, match="n_grid entries must be >= 2, got 1"):
            run_rates(cfg, [1, 20, 30, 40], replications=2)

    def test_largest_grid_point_fits_a_plain_simulation(self):
        """The last row is the one simulating each replication alone at the
        largest n gives, at seed + 1,000,003 * (grid points - 1) + rep."""
        cfg = SimConfig(n=100, p=30, s0=3, design="toeplitz", rho=0.4,
                        theta_pattern="decaying", noise_sd=1.0, seed=17)
        grid, reps = [60, 90, 150, 240], 5
        summary = run_rates(cfg, grid, replications=reps, threads=2)
        errors, sizes = [], []
        for rep in range(reps):
            seed = cfg.seed + 1_000_003 * (len(grid) - 1) + rep
            ds = simulate_dataset(replace(cfg, n=grid[-1], seed=seed))
            phi = theory_bounds.sparse_eig_sampled(gram(ds.x), 2 * cfg.s0).value
            fr = forward_regression(ds, oracle_threshold(ds, phi, safety=1.1))
            errors.append(fr.pred_error_norm)
            sizes.append(fr.s_hat)
        assert summary["rows"][-1] == {
            "n": grid[-1],
            "median_pred_error_norm": float(np.median(errors)),
            "median_s_hat": float(np.median(sizes)),
        }

    def test_one_draw_per_replication(self, monkeypatch):
        """Each replication simulates once, at the largest n. At the one grid
        point [cfg.n] that is the draw at cfg.n and seed cfg.seed + r, the
        one verify fits as its replication r. The draws are counted in this
        process, so the replications run here (one worker);
        test_thread_count_does_not_change_csv covers two."""
        simulated = []

        def simulate(cfg):
            simulated.append((cfg.n, cfg.seed))
            return simulate_dataset(cfg)

        monkeypatch.setattr(simulate_module, "simulate_dataset", simulate)
        cfg = SimConfig(n=50, p=10, s0=2, noise_sd=1.0, seed=5)
        last = 5 + 1_000_003 * 3
        for run, draws in (
            (lambda: run_rates(cfg, [50, 100, 200, 400], replications=3, threads=1),
             [(400, last + rep) for rep in range(3)]),
            (lambda: experiment.replicate(cfg, [cfg.n], 3, 1, lambda ds: ds.n),
             [(cfg.n, cfg.seed + rep) for rep in range(3)]),
            (lambda: experiment.run_verify(cfg, replications=3, threads=1),
             [(cfg.n, cfg.seed + rep) for rep in range(3)]),
        ):
            simulated.clear()
            run()
            assert sorted(simulated) == draws


class TestSparseEigCommand:
    def test_exact_small(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "d.csv"
        raw = rng.standard_normal((30, 5))
        write_rows(path, [f"x{j}" for j in range(5)],
                   [[float(v) for v in row] for row in raw])
        out = tmp_path / "eig.json"
        code = main(["sparse-eig", "-i", str(path), "--s", "2", "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lower"] == report["value"]
        assert 0.0 <= report["value"] <= 1.0
        assert len(report["witness"]) == 2

    def test_sampled_report(self, tmp_path):
        # C(40, 10) = 847,660,528 subsets are over the enumeration budget, so
        # the request falls back to the sampled upper bound and exits 0
        rng = np.random.default_rng(3)
        path = tmp_path / "wide.csv"
        write_rows(path, [f"x{j}" for j in range(40)],
                   rng.standard_normal((60, 40)).tolist())
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["sparse-eig", "-i", str(path), "--s", "10",
                         "-o", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["lower"] == 0.0 < report["value"]
        assert "method" not in report and "upper_bound_only" not in report
        assert report["witness_names"] == [f"x{j}" for j in report["witness"]]
        sampled = theory_bounds.sparse_eig_sampled(csv_gram(path), 10)
        assert report["value"] == sampled.value
        assert tuple(report["witness"]) == sampled.witness
        assert report["subsets_examined"] == sampled.subsets_examined

    def test_budget_exceeded_guidance(self, tmp_path, capsys, monkeypatch):
        # C(30, 12) = 86,493,225 subsets: the exact search is never called,
        # and the report, not an error, tells the user the value is a bound
        calls = []
        monkeypatch.setattr(theory_bounds, "sparse_eig_exact",
                            lambda g, s: calls.append(s))
        rng = np.random.default_rng(1)
        path = tmp_path / "wide.csv"
        raw = rng.standard_normal((40, 30))
        write_rows(path, [f"x{j}" for j in range(30)],
                   [[float(v) for v in row] for row in raw])
        out = tmp_path / "o.json"
        code = main(["sparse-eig", "-i", str(path), "--s", "12", "-o", str(out)])
        assert code == EXIT_OK
        assert calls == []
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["lower"] == 0.0 < report["value"]
        assert len(report["witness"]) == 12

    def test_small_gram_reports_exact_phi(self, tmp_path):
        # on this Gram the exchange descent stops above the exact phi_min(3);
        # C(8, 3) is within budget, so sparse-eig enumerates instead
        rng = np.random.default_rng(33)
        path = tmp_path / "small.csv"
        write_rows(path, [f"x{j}" for j in range(8)],
                   rng.standard_normal((12, 8)).tolist())
        g = csv_gram(path)
        exact = oracle.sparse_eig_bruteforce(g, 3)
        assert theory_bounds.sparse_eig_sampled(g, 3).value > 1.5 * exact.value
        out = tmp_path / "eig.json"
        assert main(["sparse-eig", "-i", str(path), "--s", "3",
                     "-o", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lower"] == report["value"]
        assert report["value"] == pytest.approx(exact.value, abs=1e-12)
        assert tuple(report["witness"]) == exact.witness


class TestCompare:
    def test_adversarial_fixture_strict_gap(self):
        report = compare_csv(str(DATA / "adversarial_compare.csv"), t=0.05)
        assert report["best_subset_loss"] < report["greedy_loss"]
        assert report["best_subset_support"] != report["greedy_support"]

    def test_noiseless_orthogonal_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((40, 5))
        y = 2.0 * raw[:, 3]
        path = tmp_path / "d.csv"
        write_rows(path, [f"x{j}" for j in range(5)] + ["y"],
                   [[*map(float, raw[i]), float(y[i])] for i in range(40)])
        report = compare_csv(str(path), t=0.5)
        assert report["greedy_support"] == report["best_subset_support"] == [3]

    @pytest.mark.parametrize("k", ["4", "-1"])
    def test_k_outside_selected_size_rejected(self, tmp_path, capsys, monkeypatch, k):
        def no_search(*_args):
            raise AssertionError("exhaustive search ran")

        monkeypatch.setattr(oracle, "best_subset", no_search)
        out = tmp_path / "o.json"
        code = main(["compare", "-i", str(DATA / "adversarial_compare.csv"),
                     "-t", "0.05", "--k", k, "-o", str(out)])
        assert code == EXIT_INPUT
        assert "k must be between 0 and the selected size 3" in capsys.readouterr().err
        assert not out.exists()

    def test_k_zero(self):
        report = compare_csv(str(DATA / "adversarial_compare.csv"), t=0.05, k=0)
        assert report["greedy_support"] == report["best_subset_support"] == []
        assert report["greedy_loss"] == pytest.approx(report["best_subset_loss"])


_NO_SCIPY_SCRIPT = """
import json, sys
import fwdreg, fwdreg.cli
codes = [fwdreg.cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_commands_never_import_scipy(tmp_path):
    """numpy is fwdreg's only runtime dependency: importing the package and
    running fit, verify (Toeplitz), rates and compare loads no scipy module.
    A fresh interpreter is used, since the test process itself loads scipy."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(n=60, p=8, s0=2, design="toeplitz", rho=0.4,
                                   noise_sd=0.5, seed=3)))
    argvs = [
        ["fit", "-i", str(DATA / "golden_fit_input.csv"), "-t", "0.1",
         "-o", str(tmp_path / "fit.json")],
        ["verify", "--config", str(cfg), "--replications", "2",
         "-o", str(tmp_path / "verify.json")],
        ["rates", "--config", str(cfg), "--n-grid", "60,80,100,120",
         "--replications", "2", "-o", str(tmp_path / "rates.csv")],
        ["compare", "-i", str(DATA / "adversarial_compare.csv"), "-t", "0.05",
         "-o", str(tmp_path / "compare.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * 4, "scipy": []}


_ORACLE_SCRIPT = """
import json, sys
import fwdreg.cli
loaded = [(argv[0], fwdreg.cli.main(argv), "fwdreg.oracle" in sys.modules)
          for argv in json.loads(sys.argv[1])]
print(json.dumps(loaded))
"""


def test_only_compare_imports_the_oracle(tmp_path):
    """fit, verify, rates and sparse-eig run without loading fwdreg.oracle,
    the brute-force references; compare, which searches exhaustively, does."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(n=60, p=8, s0=2, noise_sd=0.5, seed=3)))
    argvs = [
        ["fit", "-i", str(DATA / "golden_fit_input.csv"), "-t", "0.1",
         "-o", str(tmp_path / "fit.json")],
        ["verify", "--config", str(cfg), "--replications", "2",
         "-o", str(tmp_path / "verify.json")],
        ["rates", "--config", str(cfg), "--n-grid", "60,80,100,120",
         "--replications", "2", "-o", str(tmp_path / "rates.csv")],
        ["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "2",
         "-o", str(tmp_path / "eig.json")],
        ["compare", "-i", str(DATA / "adversarial_compare.csv"), "-t", "0.05",
         "-o", str(tmp_path / "compare.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLE_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["fit", EXIT_OK, False], ["verify", EXIT_OK, False], ["rates", EXIT_OK, False],
        ["sparse-eig", EXIT_OK, False], ["compare", EXIT_OK, True]]


# ---------------------------------------------------------------------------
# the console script's exit path: cli.entry() freezes the import-time heap
# before main() runs. It is reached only in a fresh interpreter; a call in
# this process would pin the test session's garbage.


def run_module(*argv):
    """``python -m fwdreg.cli ARGV``, which runs cli.entry() as the
    console script does, with stdout and stderr on pipes."""
    return subprocess.run([sys.executable, "-m", "fwdreg.cli", *argv],
                          capture_output=True, text=True, env=child_env())


_FREEZE_SCRIPT = """
import atexit, gc, runpy, sys
print(gc.get_freeze_count())
atexit.register(lambda: print(gc.get_freeze_count() > 0))
sys.argv = ["fwdreg", "--help"]
runpy.run_module("fwdreg.cli", run_name="__main__")
"""


class TestEntry:
    def test_help(self):
        proc = run_module("--help")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("usage: fwdreg ")
        assert proc.stderr == ""

    def test_usage_error(self):
        proc = run_module("fit", "-t", "0.1")
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: fwdreg fit ")
        assert proc.stderr.endswith(
            "error: the following arguments are required: --input/-i, --out/-o\n")

    def test_missing_input_file(self, tmp_path):
        out = tmp_path / "x.json"
        proc = run_module("fit", "-i", str(tmp_path / "missing.csv"), "-t", "0.1",
                          "-o", str(out))
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: [Errno 2] No such file or directory")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_constant_column(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_rows(path, ["y", "a"], [[1.0, 2.0], [2.0, 2.0], [3.0, 2.0]])
        proc = run_module("fit", "-i", str(path), "-t", "0.1", "-o", str(tmp_path / "o.json"))
        assert proc.returncode == EXIT_DEGENERATE
        assert proc.stderr == (f"degenerate input: {path}: column 'a' (CSV column 2) "
                               "has zero sample variance\n")

    def test_rates_output_matches_main(self, tmp_path, capsys):
        """The JSON line arrives whole on a piped stdout, and the CSV is the
        in-process main()'s byte for byte."""
        argv = ["rates", "--config", str(DATA / "golden_verify_config.json"),
                "--n-grid", "100,200,400,800", "--replications", "5", "-o"]
        proc = run_module(*argv, str(tmp_path / "spawned.csv"))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main([*argv, str(tmp_path / "in_process.csv")]) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out
        assert json.loads(proc.stdout)["phi_upper_bound_only"] is True
        assert (tmp_path / "spawned.csv").read_bytes() == (
            tmp_path / "in_process.csv").read_bytes()

    def test_heap_is_frozen_by_exit(self):
        """By exit, the objects built at import sit in the permanent
        generation, which no collection walks; the first line shows the
        count before cli.entry() ran."""
        proc = subprocess.run([sys.executable, "-c", _FREEZE_SCRIPT],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "0" and lines[-1] == "True"
