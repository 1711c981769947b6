"""Tests for the command-line interface and config files."""

import json

import numpy as np
import pytest

from kernelrisk.cli import build_parser, build_truth, main, parse_domain
from kernelrisk.config import parse_config_file, resolve
from kernelrisk.kernels import Box, Kernel, KernelExpansion, kernel_from_config


class TestConfig:
    def test_parse_key_value_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment\n"
            "alpha = 1.5\n"
            "n-grid = \"100,200\"\n"
            "trials = 7   # inline comment\n"
            "noise = uniform\n"
            "log_factor = true\n",
            encoding="utf-8")
        values = parse_config_file(cfg)
        assert values == {"alpha": 1.5, "n_grid": "100,200", "trials": 7,
                          "noise": "uniform", "log_factor": True}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ValueError):
            parse_config_file(cfg)

    def test_precedence_flag_over_file_over_default(self):
        class Args:
            alpha = 1.2
            trials = None
            seed = None

        merged = resolve(Args(), {"trials": 9, "alpha": 1.9},
                         {"alpha": (float, 2.0), "trials": (int, 5),
                          "seed": (int, 0)})
        assert merged == {"alpha": 1.2, "trials": 9, "seed": 0}


class TestHelpers:
    def test_parse_domain_one_dim(self):
        assert parse_domain("0,1") == Box((0.0,), (1.0,))

    def test_parse_domain_two_dim(self):
        assert parse_domain("0,0;1,2") == Box((0.0, 0.0), (1.0, 2.0))

    def test_build_truth_norm(self):
        kern = Kernel("matern", Box((0.0,), (1.0,)), sobolev_order=1.0,
                      length_scale=0.25)
        truth = build_truth(kern, {"fstar_centers": 5, "fstar_norm": 0.4})
        assert truth.rkhs_norm() == pytest.approx(0.4, rel=1e-9)


class TestCommands:
    def test_fit_writes_loadable_record(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--alpha", "2", "--n", "50", "--lam", "0.1",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        kern = kernel_from_config(record["kernel"])
        f = KernelExpansion(kern, np.array(record["centers"]),
                            np.array(record["coefficients"]))
        assert f.rkhs_norm() <= record["lam"] ** -0.5 + 1e-6
        assert "objective" in record

    def test_bounds_eval_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "eval", "--alpha", "1.5", "--p", "1",
                     "--lam", "0.1", "--n", "1000", "--kappa", "0.8",
                     "--q", "inf", "--csv", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "oracle_epsilon_threshold" in text
        assert "hinge_noise_exponent" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,value"
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["l2_rate_exponent"]) == pytest.approx(
            2 / 3 - (0.8 - 2 / 3) * 4)
        assert float(values["hinge_noise_exponent"]) == pytest.approx(4 / 3)

    def test_covering_fit_csv(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        code = main(["covering", "fit", "--n", "150", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta,log_cover_lower,log_cover_upper,used_in_fit"
        assert len(lines) == 17

    def test_rates_run_csv_plot_ready(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(["rates", "run", "--alpha", "2", "--n-grid", "40,80",
                     "--trials", "3", "--seed", "1", "--kappa", "0.5",
                     "--covering-exponent", "1.0", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,mean_excess_l2,stderr"
        assert len(lines) == 3

    def test_two_dim_domain_rates_and_oracle(self, capsys):
        model = ["--kernel-family", "gaussian", "--domain", "0,0;1,1"]
        assert main(["rates", "run", *model, "--trials", "2",
                     "--n-grid", "100,200"]) == 0
        assert main(["covering", "fit", *model]) == 0
        covering = capsys.readouterr().out
        assert main(["validate", "oracle", *model, "--n", "100",
                     "--trials", "50", "--mc-points", "5000"]) == 0
        oracle = capsys.readouterr().out
        exponent = covering.split("exponent=")[1].split()[0]
        assert f"exponent={exponent}\n" in oracle

    def test_validate_variance_exit_code(self, capsys):
        code = main(["validate", "variance", "--alpha", "1.5",
                     "--functions", "3", "--mc-points", "5000", "--seed", "2"])
        assert code == 0

    def test_robustness_run_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trials = 2\nn = 60\neta-grid = \"0,0.1\"\n"
                       "alpha-grid = \"1.1,2\"\n", encoding="utf-8")
        out = tmp_path / "rob.csv"
        code = main(["--config", str(cfg), "robustness", "run",
                     "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eta,alpha,mean_excess_l2,stderr,trials"
        assert len(lines) == 5  # 2 etas x 2 alphas

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("alpha = 2\nn = 40\nlam = 0.1\n", encoding="utf-8")
        main(["--config", str(cfg), "fit", "--alpha", "1.5", "--seed", "0"])
        text = capsys.readouterr().out
        assert "alpha=1.5" in text

    @pytest.mark.parametrize("key, argv", [
        ("csv", ["covering", "fit", "--n", "50"]),
        ("out", ["fit", "--n", "20"]),
    ])
    def test_number_as_file_name(self, key, argv, tmp_path, monkeypatch,
                                 capsys):
        # a config value 2 names the file "2", as the flag text does
        written = {}
        for how in ("flag", "config"):
            (tmp_path / how).mkdir()
            monkeypatch.chdir(tmp_path / how)
            if how == "flag":
                assert main([*argv, f"--{key}", "2"]) == 0
            else:
                (tmp_path / how / "exp.cfg").write_text(f"{key} = 2\n")
                assert main(["--config", "exp.cfg", *argv]) == 0
            written[how] = (tmp_path / how / "2").read_text()
        assert written["flag"] == written["config"]


@pytest.mark.parametrize("argv", [
    ["fit"], ["bounds", "eval"], ["covering", "fit"], ["rates", "run"],
    ["validate", "oracle"], ["robustness", "run"]], ids=" ".join)
def test_config_value_passes_flag_type(argv, tmp_path):
    # every option: its default as config text resolves to what the same
    # text gives as a flag, and to the default itself
    parser = build_parser()
    table = parser.parse_args(argv).options
    cfg = tmp_path / "exp.cfg"
    for key, (typ, default) in table.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            cases = [("true", [flag], True), ("false", [], False)]
        elif default is None:
            continue
        elif isinstance(default, tuple):
            text = ",".join(str(v) for v in default)
            cases = [(text, [flag, text], default)]
        else:
            cases = [(str(default), [flag, str(default)], default)]
        for text, flag_argv, expected in cases:
            cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
            from_file = resolve(parser.parse_args(argv),
                                parse_config_file(cfg), table)[key]
            from_flag = resolve(parser.parse_args([*argv, *flag_argv]), {},
                                table)[key]
            assert from_file == from_flag == expected, key
            assert type(from_file) is type(from_flag) is type(expected), key


@pytest.mark.parametrize("config, argv, message", [
    (None, ["fit", "--lam", "2"], "lam must lie in (0, 1]"),
    (None, ["validate", "oracle", "--alpha", "1"], "alpha in (1, 2]"),
    (None, ["fit", "--domain", "0,1,2"], "neither lo,hi nor lo1,...;hi1,..."),
    ("kernel_family = foo", ["fit"], "unknown kernel family 'foo'"),
    ("kernel_family = foo", ["covering", "fit"], "unknown kernel family"),
    ("noise = foo", ["rates", "run"], "unknown noise kind 'foo'"),
    ("fstar_centers = 0", ["robustness", "run"], "degenerate truth expansion"),
    ("trails = 3", ["rates", "run"], "unknown config key 'trails'"),
    ("lam = 0.1", ["covering", "fit"], "unknown config key 'lam'"),
    ("seed = 1.7", ["fit"], "config key 'seed' = '1.7'"),
    ("tolerance = true", ["fit"], "config key 'tolerance' = 'true'"),
    ('log_factor = "yes"', ["rates", "run"],
     "config key 'log_factor' takes true or false, not 'yes'"),
    ("sample = foo", ["covering", "fit"], "unknown sample 'foo'"),
    ("n_grid = [100, 1e400]", ["rates", "run"],
     "config key 'n_grid' = '100,Infinity': sample sizes"),
    (None, ["rates", "run", "--domain", "0,0", "--trials", "2",
            "--n-grid", "40,80"], "box needs finite bounds"),
    (None, ["robustness", "run", "--domain", "0,0", "--trials", "2",
            "--n", "40"], "box needs finite bounds"),
    (None, ["validate", "calibration", "--domain", "0,0", "--functions", "2",
            "--mc-points", "1000"], "box needs finite bounds"),
    (None, ["fit", "--domain", "nan,1"], "box needs finite bounds"),
    (None, ["fit", "--domain=-1e308,1e308"], "box needs finite bounds"),
    (None, ["covering", "fit", "--domain", "0,inf"],
     "box needs finite bounds"),
    (None, ["fit", "--noise-width", "nan"], "half_width must be nonnegative"),
    (None, ["fit", "--kernel-family", "gaussian", "--width", "nan"],
     "gaussian kernel needs width > 0"),
    (None, ["fit", "--length-scale", "nan"],
     "matern kernel needs length_scale > 0"),
    (None, ["fit", "--noise", "truncated_gaussian", "--noise-sigma", "nan"],
     "sigma and half_width must be positive"),
    (None, ["fit", "--fstar-norm", "nan"], "range guard violated"),
    (None, ["robustness", "run", "--outlier-magnitude", "nan", "--trials", "2",
            "--n", "40"], "outlier_magnitude must be nonnegative"),
    (None, ["fit", "--sobolev-order", "nan"],
     "matern kernel needs finite sobolev_order >= 1"),
    (None, ["fit", "--sobolev-order", "inf"],
     "matern kernel needs finite sobolev_order >= 1"),
], ids=["lam", "alpha", "domain", "config-kernel", "config-kernel-covering",
        "config-noise", "config-truth", "config-unknown-key",
        "config-key-of-other-command", "config-int", "config-float",
        "config-switch", "config-sample", "config-sizes-inf",
        "domain-zero-width-rates", "domain-zero-width-robustness",
        "domain-zero-width-calibration", "domain-nan",
        "domain-width-overflows", "domain-inf",
        "noise-width-nan", "width-nan", "length-scale-nan", "noise-sigma-nan",
        "fstar-norm-nan", "outlier-magnitude-nan", "sobolev-order-nan",
        "sobolev-order-inf"])
def test_bad_input_is_a_usage_error(config, argv, message, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config + "\n", encoding="utf-8")
        argv = ["--config", str(cfg), *argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "kernelrisk: error: " in err and message in err
    assert "Traceback" not in err
