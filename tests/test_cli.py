"""Command-line harness: exit codes, outputs, and config-file merging."""

import numpy as np
import pytest

import okreg.cli
from okreg import load_state_file
from okreg.cli import main


def _lines(path):
    return path.read_text().splitlines()


# -- argument handling ----------------------------------------------------------


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_algorithm_exits_config(tmp_path, capsys):
    code = main(["compare", "--algs", "foo", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown algorithm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algs", ["", "gp,gp", "beta:abc", "gp:3"]
)
def test_bad_algorithm_tokens_exit_config(tmp_path, algs):
    assert main(["compare", "--algs", algs, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("algs", ["klms:0.5", "qklms:7", "knlms:x", "gp:1", "klms,klms:0.5"])
def test_only_beta_takes_a_parameter(tmp_path, capsys, algs):
    code = main(["compare", "--algs", algs, "--n", "20", "--n-test", "5", "--out", str(tmp_path)])
    assert code == 2
    assert repr(algs.split(",")[-1]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, generator", [("compare", "gen_kinematics_like"), ("reconverge", "default_switch_scenario")]
)
def test_every_token_is_checked_before_data_is_made(tmp_path, monkeypatch, command, generator):
    def no_data(*args, **kwargs):
        raise AssertionError("data was made before every --algs token was checked")

    monkeypatch.setattr(okreg.cli, generator, no_data)
    assert main([command, "--algs", "gp,beta:1,klms:0.5", "--out", str(tmp_path)]) == 2


def test_bad_kernel_exits_config(tmp_path, capsys):
    code = main(
        ["compare", "--kernel-lengthscale", "-1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "lengthscale" in capsys.readouterr().err


def test_bad_eta_exits_config(tmp_path):
    code = main(
        ["compare", "--algs", "klms", "--eta", "fast", "--out", str(tmp_path)]
    )
    assert code == 2


# -- compare -------------------------------------------------------------------


def test_compare_writes_sorted_learning_curve(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "compare", "--algs", "klms,gp", "--n", "30", "--n-test", "20",
            "--dim", "2", "--eval-every", "10", "--seeds", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = _lines(out / "learning_curve.csv")
    assert lines[0] == "algorithm,step,nmse_db"
    algs = [line.split(",")[0] for line in lines[1:]]
    assert algs == ["gp"] * 3 + ["klms"] * 3
    steps = [int(line.split(",")[1]) for line in lines[1:4]]
    assert steps == [10, 20, 30]


def test_compare_dump_state_round_trips(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "compare", "--algs", "beta:1,knlms", "--n", "15", "--n-test", "10",
            "--dim", "2", "--eval-every", "15", "--dump-state", "--out", str(out),
        ]
    )
    assert code == 0
    beta = load_state_file(out / "state_beta-1.txt")
    knlms = load_state_file(out / "state_knlms.txt")
    # identical all-admit runs at unit kernel amplitude: same weights
    np.testing.assert_array_equal(beta.alpha, knlms.alpha)


def test_compare_missing_csv_exits_config(tmp_path, capsys):
    code = main(
        ["compare", "--csv", str(tmp_path / "no.csv"), "--dim", "2",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "csv file not found" in capsys.readouterr().err


def test_compare_csv_requires_dim(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0\n")
    assert main(["compare", "--csv", str(p), "--out", str(tmp_path)]) == 2


def test_compare_csv_needs_enough_rows(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    code = main(
        ["compare", "--csv", str(p), "--dim", "1", "--n", "5",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "usable rows" in capsys.readouterr().err


def test_compare_reads_csv_data(tmp_path):
    rng = np.random.default_rng(0)
    rows = [
        ",".join(repr(float(v)) for v in row) + f",{float(np.sin(row.sum()))!r}"
        for row in rng.uniform(-1, 1, size=(40, 2))
    ]
    p = tmp_path / "d.csv"
    p.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    code = main(
        ["compare", "--csv", str(p), "--dim", "2", "--n", "20",
         "--n-test", "10", "--algs", "gp", "--eval-every", "20",
         "--standardize", "--out", str(out)]
    )
    assert code == 0
    assert (out / "learning_curve.csv").exists()


def test_compare_malformed_csv_exits_config(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0\n1.0\n")
    code = main(
        ["compare", "--csv", str(p), "--dim", "1", "--n", "1",
         "--n-test", "1", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "row 2" in capsys.readouterr().err


def test_blocked_output_directory_exits_io(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(
        ["compare", "--n", "5", "--n-test", "5", "--dim", "1",
         "--algs", "klms", "--eval-every", "5", "--out", str(blocker / "sub")]
    )
    assert code == 3


@pytest.mark.parametrize(
    "command, runner, flags",
    [
        ("reconverge", "run_reconvergence", ["--algs", "gp,klms", "--budget", "300"]),
        ("uncertainty", "run_uncertainty_trace", []),
    ],
)
def test_blocked_output_directory_exits_io_before_any_model_runs(tmp_path, monkeypatch, command, runner, flags):
    def no_run(*args, **kwargs):
        raise AssertionError("a model ran before --out was created")

    monkeypatch.setattr(okreg.cli, runner, no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, *flags, "--out", str(blocker / "sub")]) == 3


@pytest.mark.parametrize(
    "module, reader, argv",
    [
        ("okreg.evaluation", "gen_switch_series", ["reconverge", "--algs", "klms", "--smooth-window", "0"]),
        ("okreg.cli", "load_csv", ["uncertainty", "--csv", "d.csv", "--prefixes", "a,b"]),
        ("okreg.cli", "load_csv", ["uncertainty", "--csv", "d.csv", "--grid-size", "1"]),
    ],
)
def test_bad_flags_exit_config_before_data_is_read(tmp_path, monkeypatch, module, reader, argv):
    def no_data(*args, **kwargs):
        raise AssertionError("data was read before every flag was checked")

    monkeypatch.setattr(f"{module}.{reader}", no_data)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("0.0,1.0\n")
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2


# -- config files -----------------------------------------------------------------


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=12\nn_test=6\ndim=2\nalgs=klms\neval_every=12\ndump_state=true\n")
    out = tmp_path / "run"
    code = main(["compare", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "state_klms.txt").exists()
    lines = _lines(out / "learning_curve.csv")
    assert lines[1].startswith("klms,12,")


def test_explicit_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=12\nn_test=6\ndim=2\nalgs=klms\neval_every=12\n")
    out = tmp_path / "run"
    code = main(
        ["compare", "--config", str(cfg), "--n", "8", "--eval-every", "8",
         "--out", str(out)]
    )
    assert code == 0
    assert _lines(out / "learning_curve.csv")[1].startswith("klms,8,")


def test_missing_config_exits_config(tmp_path, capsys):
    code = main(["compare", "--config", str(tmp_path / "no.cfg")])
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def test_malformed_config_line_exits_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    assert main(["compare", "--config", str(cfg)]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_bad_boolean_in_config_exits_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dump_state=maybe\n")
    assert main(["compare", "--config", str(cfg)]) == 2


def test_config_without_path_exits_config():
    assert main(["compare", "--config"]) == 2


@pytest.mark.parametrize(
    "command, text, lineno, key",
    [
        ("compare", "n=12\nbogus=1\n", 2, "bogus"),
        ("uncertainty", "# another subcommand's flag\nbudget=5\n", 2, "budget"),
        ("verify", "dump-state=on\n", 1, "dump-state"),
    ],
    ids=["unknown-key", "other-subcommand", "verify-output-switch"],
)
def test_config_key_without_a_flag_names_the_line(tmp_path, capsys, command, text, lineno, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{lineno}:" in err and repr(key) in err


def test_config_value_passes_its_flag_type_under_an_explicit_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", str(cfg), "--n", "8", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_config_switch_off_writes_no_snapshot(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=12\nn-test=6\ndim=2\nalgs=klms\neval_every=12\ndump_state=off\n")
    out = tmp_path / "run"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["learning_curve.csv"]


def test_config_drives_verify(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("tol=1e-16\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


# -- reconverge --------------------------------------------------------------------


def test_reconverge_writes_curves_with_metadata(tmp_path):
    out = tmp_path / "rc"
    code = main(
        ["reconverge", "--n", "60", "--switch-at", "30", "--seeds", "1",
         "--smooth-window", "5", "--algs", "klms,beta:1", "--out", str(out)]
    )
    assert code == 0
    lines = _lines(out / "reconvergence.csv")
    assert lines[0].startswith("# switch_at=30 n_total=60 seeds=1")
    assert lines[1] == "algorithm,step,mean_sq_error_db"
    assert lines[2].startswith("beta:1,0,")
    assert len(lines) == 2 + 2 * 60


def test_reconverge_invalid_switch_exits_config(tmp_path):
    code = main(
        ["reconverge", "--n", "50", "--switch-at", "80", "--out", str(tmp_path)]
    )
    assert code == 2


def test_reconverge_dump_state_names_files_safely(tmp_path):
    out = tmp_path / "rc"
    code = main(
        ["reconverge", "--n", "30", "--switch-at", "15", "--seeds", "1",
         "--algs", "beta:0.5", "--dump-state", "--out", str(out)]
    )
    assert code == 0
    assert (out / "state_beta-0.5.txt").exists()


# -- uncertainty -------------------------------------------------------------------


def test_uncertainty_writes_traces(tmp_path):
    out = tmp_path / "unc"
    code = main(
        ["uncertainty", "--n", "10", "--prefixes", "2,5", "--grid-size", "11",
         "--out", str(out)]
    )
    assert code == 0
    lines = _lines(out / "uncertainty.csv")
    assert lines[0] == "algorithm,prefix,x,mean,std"
    # 3 algorithms x 2 prefixes x 11 grid points
    assert len(lines) == 1 + 3 * 2 * 11


def test_uncertainty_dump_state(tmp_path):
    out = tmp_path / "unc"
    code = main(
        ["uncertainty", "--n", "6", "--prefixes", "3", "--grid-size", "5",
         "--dump-state", "--out", str(out)]
    )
    assert code == 0
    for name in ("state_gp.txt", "state_beta-0.txt", "state_beta-1.txt"):
        assert (out / name).exists()
    gp = load_state_file(out / "state_gp.txt")
    assert gp.size == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--prefixes", "a,b"],
        ["--prefixes", ""],
        ["--prefixes", "0"],
        ["--prefixes", "99"],
        ["--grid-size", "1"],
        ["--grid-min", "2.0", "--grid-max", "-2.0"],
    ],
)
def test_uncertainty_bad_flags_exit_config(tmp_path, flags):
    code = main(["uncertainty", "--n", "10", "--out", str(tmp_path), *flags])
    assert code == 2


def test_uncertainty_reads_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "\n".join(
            f"{float(x)!r},{float(np.sin(3 * x))!r}" for x in np.linspace(-1, 1, 9)
        )
    )
    out = tmp_path / "unc"
    code = main(
        ["uncertainty", "--csv", str(p), "--prefixes", "4,9",
         "--grid-size", "7", "--out", str(out)]
    )
    assert code == 0
    assert (out / "uncertainty.csv").exists()


# -- verify ------------------------------------------------------------------------


def test_verify_passes_by_default(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("flags", [["--out", "somewhere"], ["--dump-state"]])
def test_verify_takes_no_output_flags(flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags])
    assert exc.value.code == 2


def test_verify_negative_control_fails(capsys):
    assert main(["verify", "--inject-noise-mismatch", "4.0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_tolerance_override_fails(capsys):
    assert main(["verify", "--tol", "1e-16"]) == 1
    assert "FAIL" in capsys.readouterr().out
