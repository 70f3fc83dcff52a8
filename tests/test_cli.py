import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fwdreg
from fwdreg import oracle
from fwdreg.cli import (
    EXIT_BOUND_FAILURE,
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    compare_csv,
    fit_csv,
    main,
    read_csv,
    run_rates,
)
from fwdreg.simulate import SimConfig

DATA = pathlib.Path(__file__).parent / "data"

# the fallback that a BudgetExceeded message names
BUDGET_HINT = ("sparse_eig_sampled (sparse-eig --mode sampled) gives an upper bound "
               "without a budget")


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


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
        names, raw, y = read_csv(str(DATA / "golden_fit_input.csv"))
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
        assert "column 0" in capsys.readouterr().err

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
        names, raw, y = read_csv(str(path))
        assert names == header[:3]
        assert np.column_stack([raw, y]).tobytes() == reference.tobytes()
    assert fit_csv(str(quoted), t=0.05) == fit_csv(str(plain), t=0.05)


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
        ("sparse-eig", None, ["--seed", "-1"], "--seed must be >= 0"),
        ("verify", 5, ["--phi-size", "0"], "phi_size must be >= 1"),
        ("verify", 5, ["--phi-size", "-3"], "phi_size must be >= 1"),
    ],
    ids=["verify-flag", "verify-config", "rates-flag", "sparse-eig-flag",
         "verify-phi-size-0", "verify-phi-size-negative"],
)
def test_negative_seed_rejected(tmp_path, capsys, command, config_seed, flags, message):
    # numpy's own "expected non-negative integer" named no input
    if command == "sparse-eig":
        source = ["-i", str(DATA / "golden_fit_input.csv"), "--s", "2",
                  "--mode", "sampled", "--draws", "10"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(n=60, p=8, s0=2, seed=config_seed)))
        source = ["--config", str(cfg), "--replications", "1"]
        if command == "rates":
            source += ["--n-grid", "60,80,100,120"]
    out = tmp_path / "out"
    code = main([command, *source, *flags, "-o", str(out)])
    assert code == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
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
    "argv, golden",
    [
        (["verify", "--config", str(DATA / "golden_verify_config.json"),
          "--replications", "3", "--threads", "1"], "golden_verify_output.json"),
        (["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "3"],
         "golden_sparse_eig_exact.json"),
        (["sparse-eig", "-i", str(DATA / "golden_fit_input.csv"), "--s", "3",
          "--mode", "sampled", "--draws", "200", "--seed", "5"],
         "golden_sparse_eig_sampled.json"),
    ],
    ids=["verify", "sparse-eig-exact", "sparse-eig-sampled"],
)
def test_report_matches_golden_file(tmp_path, argv, golden):
    """Pins each report schema: a renamed, dropped or added field changes
    the bytes."""
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()


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
        assert report["schema_version"] == "2"

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
        # p large enough that exact enumeration is out of budget
        cfg = self._config(tmp_path, p=500, n=50, s0=2)
        out = tmp_path / "o.json"
        code = main(["verify", "--config", cfg, "--replications", "1",
                     "--phi-size", "8", "-o", str(out)])
        assert code == EXIT_INPUT
        assert BUDGET_HINT in capsys.readouterr().err
        assert not out.exists()

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


class TestSparseEigCommand:
    def test_exact_small(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "d.csv"
        raw = rng.standard_normal((30, 5))
        write_rows(path, [f"x{j}" for j in range(5)],
                   [[float(v) for v in row] for row in raw])
        out = tmp_path / "eig.json"
        code = main(["sparse-eig", "-i", str(path), "--s", "2",
                     "--mode", "exact", "-o", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["method"] == "exact"
        assert 0.0 <= report["value"] <= 1.0
        assert len(report["witness"]) == 2

    def test_sampled_report(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "d.csv"
        write_rows(path, [f"x{j}" for j in range(8)],
                   rng.standard_normal((30, 8)).tolist())
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["sparse-eig", "-i", str(path), "--s", "3",
                         "--mode", "sampled", "--draws", "50", "--seed", "9",
                         "-o", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["method"] == "sampled"
        assert report["upper_bound_only"] is True
        assert len(report["witness"]) == 3
        assert report["witness_names"] == [f"x{j}" for j in report["witness"]]

    def test_budget_exceeded_guidance(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "wide.csv"
        raw = rng.standard_normal((40, 30))
        write_rows(path, [f"x{j}" for j in range(30)],
                   [[float(v) for v in row] for row in raw])
        out = tmp_path / "o.json"
        code = main(["sparse-eig", "-i", str(path), "--s", "12",
                     "--mode", "exact", "-o", str(out)])
        assert code == EXIT_INPUT
        assert BUDGET_HINT in capsys.readouterr().err
        assert not out.exists()


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
         "--replications", "2", "--draws", "20", "-o", str(tmp_path / "rates.csv")],
        ["compare", "-i", str(DATA / "adversarial_compare.csv"), "-t", "0.05",
         "-o", str(tmp_path / "compare.json")],
    ]
    src = str(pathlib.Path(fwdreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * 4, "scipy": []}
