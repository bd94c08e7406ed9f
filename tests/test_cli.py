import argparse
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplex_flows import cli, descent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_theta(capsys):
    code, out, _ = run_cli(capsys, "convert", "--theta", "0,0")
    assert code == 0
    assert "eta = 0.333333333,0.333333333" in out
    assert "p = 0.333333333,0.333333333,0.333333333" in out


def test_convert_requires_exactly_one_input(capsys):
    code, _, err = run_cli(capsys, "convert")
    assert code == 2
    code, _, err = run_cli(capsys, "convert", "--theta", "0,0", "--p",
                           "0.5,0.25,0.25")
    assert code == 2


def test_kl_command(capsys):
    code, out, _ = run_cli(capsys, "kl", "--q", "0.5,0.5", "--p", "0.5,0.5")
    assert code == 0
    assert "kl = 0" in out
    code, _, _ = run_cli(capsys, "kl", "--q", "0.5,0.5")
    assert code == 2


def test_invalid_probability_vector_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "kl", "--q", "0.9,0.9", "--p", "0.5,0.5")
    assert code == 2


@pytest.mark.parametrize("argv, err", [
    ("kl --q 0.5,0.6 --p 0.5,0.5",
     "error: probabilities must sum to 1, got 1.1\n"),
    ("convert --eta 0.6,0.6",
     "error: eta entries must sum to less than 1, got 1.2\n")],
    ids=["kl", "convert"])
def test_bad_sums_print_the_sum_as_a_plain_float(capsys, argv, err):
    assert run_cli(capsys, *argv.split()) == (2, "", err)


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "natural_flow_matches_exact = true" in out


def test_selftest_ngd_one_step_runs_the_descent_step(monkeypatch):
    # a linearized update that leaves the error as it is fails the check
    monkeypatch.setattr(descent, "closed_loop",
                        lambda q_mat, alpha, delta=0.0: np.eye(len(q_mat)))
    assert cli.run_selftest()["ngd_one_step"] is False


def test_experiment_failure_exits_1(capsys, lopsided_draws):
    code, out, err = run_cli(capsys, "sandwich", "--n", "2", "--inits", "2")
    assert code == 1
    assert "failure: could not draw a balanced target" in err


def test_empirical_escape_names_method_iteration_and_step_size(capsys):
    code, out, err = run_cli(capsys, "empirical", "--n", "2", "--seed", "2")
    assert code == 1
    assert out == ""
    assert err == ("failure: gd_eta iterate left the simplex at iteration 1 "
                   "(step size 0.01); reduce the step size\n")


@pytest.mark.parametrize("n_samples", ["0", "-5"])
def test_empirical_without_samples_is_a_usage_error(capsys, n_samples):
    assert run_cli(capsys, "empirical", "--n-samples", n_samples) == (
        2, "", f"error: n_samples must be at least 1, got {n_samples}\n")


def test_sweep_without_samples_names_n_samples_before_minibatch(capsys):
    assert run_cli(capsys, "sweep", "--method", "ngd", "--grid", "0.5:0.5:1",
                   "--n-samples", "0", "--minibatch", "1") == (
        2, "", "error: n_samples must be at least 1, got 0\n")


@pytest.mark.parametrize("argv", [
    "empirical --n 10 --n-samples 5",
    "sweep --method ngd --grid 0.5:0.5:1 --n 10 --n-samples 5 --minibatch 5"],
    ids=["empirical", "sweep"])
def test_a_dataset_that_missed_an_outcome_is_one_failure(capsys, argv):
    assert run_cli(capsys, *argv.split()) == (
        1, "", "failure: dataset missed an outcome; increase n_samples\n")


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("n = 2\nwhatever = 3\n")
    code, _, err = run_cli(capsys, "sections", "--config", str(cfg))
    assert code == 2
    assert "c.ini:2" in err and "whatever" in err


def test_config_file_malformed_value(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("seed = banana\n")
    code, _, err = run_cli(capsys, "sections", "--config", str(cfg))
    assert code == 2
    assert "c.ini:1" in err and "seed" in err


def test_config_file_missing_equals(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("just some words\n")
    code, _, err = run_cli(capsys, "sections", "--config", str(cfg))
    assert code == 2
    assert "expected key = value" in err


def test_config_key_must_apply_to_command(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("minibatch = 50\n")   # a sweep key, not a sections key
    code, _, err = run_cli(capsys, "sections", "--config", str(cfg))
    assert code == 2


def test_config_key_of_another_command_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("minibatch = 10\n")   # a sweep key, not a kl key
    code, _, err = run_cli(capsys, "kl", "--q", "0.3,0.3,0.4", "--p",
                           "0.5,0.25,0.25", "--config", str(cfg))
    assert code == 2
    assert "c.ini:1" in err and "minibatch" in err


def test_empty_config_uses_defaults(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("# nothing but a comment\n\n")
    code, out, _ = run_cli(capsys, "sections", "--config", str(cfg))
    assert code == 0


def test_flag_overrides_config_value(tmp_path, capsys):
    # config sets a seed; the flag must win.  Verified via the output files
    # of two runs that only differ in how the seed was supplied.
    cfg = tmp_path / "c.ini"
    cfg.write_text("n = 2\nseed = 5\n")
    d1, d2 = tmp_path / "flagged", tmp_path / "plain"
    code1, _, _ = run_cli(capsys, "sections", "--config", str(cfg),
                          "--seed", "9", "--out", str(d1))
    code2, _, _ = run_cli(capsys, "sections", "--n", "2", "--seed", "9",
                          "--out", str(d2))
    assert code1 == 0 and code2 == 0
    assert ((d1 / "sections.csv").read_bytes()
            == (d2 / "sections.csv").read_bytes())


def test_grid_parsing(capsys):
    assert cli._parse_grid("1:2:3") == [1.0, 1.5, 2.0]
    assert cli._parse_grid("0.5:0.5:1") == [0.5]
    for bad in ("1:2", "2:1:5", "0:1:3", "1:2:0", "1:2:1", "0.1:nan:5",
                "0.1:inf:3", "nan:1:3", "-inf:1:3"):
        with pytest.raises(ValueError):
            cli._parse_grid(bad)


@pytest.mark.parametrize("command, key, value", [
    ("sweep", "grid", "1:2:0"), ("sweep", "grid", "1:2:1"),
    ("affine", "c_values", "1,x")])
def test_malformed_flag_names_the_reason_a_config_file_names(
        tmp_path, capsys, command, key, value):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"{key} = {value}\n")
    code, _, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    reason = err.strip().split("c.ini:1: ", 1)[1]
    assert reason.startswith(f"malformed value for key {key!r}: ")
    code, _, err = run_cli(capsys, command, "--" + key.replace("_", "-"),
                           value)
    assert code == 2
    assert reason in err and "invalid _parse" not in err


def test_fit_rate_command(tmp_path, capsys):
    t = np.linspace(0.0, 4.0, 200)
    data = np.column_stack([t, np.exp(-2.0 * t)])
    path = tmp_path / "curve.csv"
    np.savetxt(path, data, delimiter=",", header="t,kl", comments="")
    code, out, _ = run_cli(capsys, "fit-rate", "--file", str(path))
    assert code == 0
    assert "slope = 2" in out
    code, _, _ = run_cli(capsys, "fit-rate", "--file", str(tmp_path / "no.csv"))
    assert code == 2


def test_nonconvexity_command(capsys):
    code, out, _ = run_cli(capsys, "nonconvexity", "--budget", "2000")
    assert code == 0
    assert "witness_found = true" in out


@pytest.mark.parametrize("argv,message", [
    (["--budget", "-3"], "budget must be at least 1, got -3"),
    (["--budget", "0"], "budget must be at least 1, got 0"),
    (["--box", "0"], "box must be finite and positive, got 0.0"),
    (["--box", "inf"], "box must be finite and positive, got inf"),
], ids=["budget", "budget-0", "box", "box-inf"])
def test_nonconvexity_rejects_bad_input_before_probing(capsys, argv, message):
    code, out, err = run_cli(capsys, "nonconvexity", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,message", [
    (["sandwich", "--t-end", "-1"], "t_end must be finite and positive, got -1.0"),
    (["sandwich", "--t-end", "nan"], "t_end must be finite and positive, got nan"),
    (["sandwich", "--sample-every", "-3"], "sample_every must be at least 1, got -3"),
    (["sandwich", "--sample-every", "0"], "sample_every must be at least 1, got 0"),
    (["sandwich", "--dt", "0"], "dt must be finite and positive, got 0.0"),
    (["sandwich", "--dt", "-1"], "dt must be finite and positive, got -1.0"),
    (["sandwich", "--dt", "inf"], "dt must be finite and positive, got inf"),
    (["sandwich", "--inits", "0"], "n_inits must be at least 1, got 0"),
    (["affine", "--c-values", "inf"], "every c must be finite and positive, got inf"),
    (["affine", "--c-values", "nan"], "every c must be finite and positive, got nan"),
    (["affine", "--c-values", "1,-2"], "every c must be finite and positive, got -2.0"),
    (["affine", "--c-values", ""], "c_values is empty: no chart to check"),
    (["affine", "--dt", "0"], "dt must be finite and positive, got 0.0"),
    (["affine", "--dt", "inf"], "dt must be finite and positive, got inf"),
], ids=["t-end", "t-end-nan", "sample-every", "sample-every-0", "dt-0",
        "dt-negative", "dt-inf", "inits-0", "c-inf", "c-nan", "c-negative",
        "c-empty", "affine-dt-0", "affine-dt-inf"])
def test_integrator_settings_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["robustness", "--n-seeds", "0"], "seeds is empty: no noise draw to check"),
    (["sections", "--directions", "0"], "n_directions must be at least 1, got 0"),
    (["sections", "--s-count", "0"],
     "s_grid has no point with 0 < |s| <= 0.05: no section is checked"),
    (["sections", "--s-max", "1", "--s-count", "2"],
     "s_grid has no point with 0 < |s| <= 0.05: no section is checked"),
], ids=["robustness-no-seed", "sections-no-direction", "sections-no-point",
        "sections-no-small-point"])
def test_runs_that_would_check_nothing_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sandwich_with_every_init_excluded_fails_its_rate_assertions(
        tmp_path, capsys):
    # at t_end = 0.01 no init is fitted, so no rate is checked
    code, out, _ = run_cli(capsys, "sandwich", "--inits", "5", "--t-end",
                           "0.01", "--out", str(tmp_path))
    assert code == 1
    assert out.splitlines()[:4] == [
        "ordering_theta_lt_2_lt_eta = false", "natural_rate_in_band = false",
        "r_squared_min = false", "natural_matches_exact_1e-8 = true"]
    summary = json.loads((tmp_path / "sandwich_n2.json").read_text())
    assert summary["excluded_inits"] == [0, 1, 2, 3, 4]
    assert (tmp_path / "sandwich_n2.csv").read_text().count("\n") == 1


def test_affine_insufficient_decay_names_c_and_chart(capsys):
    # at c = 1e-9 the affine_theta rate 2/c leaves too few samples above
    # the KL floor: an experiment failure (exit 1) that says where
    code, out, err = run_cli(capsys, "affine", "--c-values", "1e-9")
    assert (code, out) == (1, "")
    assert err == ("failure: c = 1e-09, affine_theta: fewer than 10 samples "
                   "above the KL floor\n")


def test_nonconvexity_underflow_names_probe_and_point(capsys):
    code, out, err = run_cli(capsys, "nonconvexity", "--box", "800")
    assert (code, out) == (2, "")
    assert err == ("error: probe 1: theta_a: probabilities must be strictly "
                   "positive (min entry 0)\n")


def test_sections_underflow_is_a_usage_error(capsys):
    # at |s| up to 1000 a theta section's softmax underflows to a zero; the
    # error names the first such point
    code, out, err = run_cli(capsys, "sections", "--n", "2", "--s-max", "1000",
                             "--s-count", "40001")
    assert (code, out) == (2, "")
    assert err == ("error: direction 0, s = -1000: probabilities must be "
                   "strictly positive (min entry 0)\n")


def test_sections_output_files(tmp_path, capsys):
    out_dir = tmp_path / "sec"
    code, _, _ = run_cli(capsys, "sections", "--n", "2", "--out", str(out_dir))
    assert code == 0
    header = (out_dir / "sections.csv").read_text().splitlines()[0]
    assert header == "direction_id,s,eta_section,theta_section,reference"
    assert (out_dir / "sections.json").exists()


def test_robustness_command(capsys):
    code, out, _ = run_cli(capsys, "robustness", "--kind", "multiplicative",
                           "--n", "2", "--n-seeds", "3")
    assert code == 0
    assert "ngd_converges_all_seeds = true" in out
    code, _, _ = run_cli(capsys, "robustness", "--kind", "nope")
    assert code == 2


def test_sweep_requires_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--method", "ngd")
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize("setting, flags", [
    pytest.param("grid", ["--grid", "0.1:nan:5"], id="grid-nan"),
    pytest.param("grid", ["--grid", "0.1:inf:3"], id="grid-inf"),
    pytest.param("decay_a", ["--mode", "sgd", "--decay-a", "0"], id="decay-0"),
    pytest.param("decay_a", ["--mode", "sgd", "--decay-a", "-5"],
                 id="decay-negative"),
    pytest.param("minibatch", ["--mode", "sgd", "--minibatch", "0"],
                 id="minibatch-0"),
    pytest.param("minibatch", ["--mode", "sgd", "--minibatch", "200000"],
                 id="minibatch-large"),
    pytest.param("n_inits", ["--inits", "0"], id="inits-0"),
    pytest.param("tolerance", ["--tol", "nan"], id="tol-nan"),
    pytest.param("tolerance", ["--tol", "-1"], id="tol-negative"),
])
def test_sweep_rejects_bad_settings(capsys, setting, flags):
    argv = ["sweep", "--method", "ngd", "--grid", "0.1:1.9:3", "--n", "2"]
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 2
    assert out == ""
    assert setting in err


def test_config_experiment_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("n = 2\nexperiment = sandwich\n")
    code, _, err = run_cli(capsys, "sections", "--config", str(cfg))
    assert code == 2
    assert "c.ini:2" in err and "experiment" in err


def test_parser_flags_are_the_table_keys():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(cli._COMMANDS)
    for name, (_runner, defaults) in cli._COMMANDS.items():
        dests = {a.dest: a.option_strings for a in subparsers[name]._actions
                 if a.dest not in ("help", "config")}
        assert list(dests) == list(defaults)
        for key, flags in dests.items():
            assert flags == ["--" + key.replace("_", "-")]


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("simplex-flows ")]
    assert len(lines) >= 10
    parser = cli._build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command in cli._COMMANDS


def test_output_digest_extras_parse():
    # a renamed flag fails here rather than at the next byte-identity check
    path = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    names = [name for name, _argv in digests.EXTRAS]
    assert names and len(set(names)) == len(names)
    parser = cli._build_parser()
    for _name, argv in digests.EXTRAS:
        args = parser.parse_args(shlex.split(argv))
        assert args.command in cli._COMMANDS


_ONE_PROCESS = [["kl", "--bogus", "1"],
                ["kl", "--q", "0.5,0.5", "--p", "0.25,0.75"],
                ["convert", "--eta", "0.2,0.3"],
                ["kl", "--q", "0.9,0.9"]]


def test_one_parser_per_process_runs_each_call_as_alone(capsys):
    # the parser is built once per process; a usage error and the calls
    # after it give each call's exit code, stdout and stderr run alone
    script = ("import json, sys; from simplex_flows import cli; "
              "code = cli.main(json.loads(sys.argv[1])); sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    assert cli._build_parser() is cli._build_parser()
    for argv in _ONE_PROCESS:
        alone = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                               capture_output=True, text=True, env=env)
        assert run_cli(capsys, *argv) == (alone.returncode, alone.stdout,
                                          alone.stderr)
    assert [run_cli(capsys, *a)[0] for a in _ONE_PROCESS] == [2, 0, 0, 2]


_SAMPLE_TEXT = {int: "3", float: "0.5", str: "abc",
                cli._parse_grid: "0.1:0.2:2", cli._parse_floats: "0.5,2"}


def test_config_can_set_every_key_of_every_command(tmp_path):
    parser = cli._build_parser()
    for name, (_runner, defaults) in cli._COMMANDS.items():
        for key in defaults:
            kind = cli._KEY_TYPES[key]
            cfg = tmp_path / f"{name}_{key}.ini"
            cfg.write_text(f"{key} = {_SAMPLE_TEXT[kind]}\n")
            args = parser.parse_args([name, "--config", str(cfg)])
            settings = cli._resolve(args, defaults)
            assert settings[key] == kind(_SAMPLE_TEXT[kind])


@pytest.mark.parametrize("argv,config", [
    (["nonconvexity", "--p", "0.7,0.2,0.1", "--budget", "2000"],
     "p = 0.7,0.2,0.1\nbudget = 2000\n"),
    (["convert", "--theta", "0.5,-1"], "theta = 0.5,-1\n"),
    (["kl", "--q", "0.3,0.3,0.4", "--p", "0.5,0.25,0.25"],
     "q = 0.3,0.3,0.4\np = 0.5,0.25,0.25\n"),
], ids=["nonconvexity", "convert", "kl"])
def test_config_key_gives_same_stdout_as_flag(tmp_path, capsys, argv, config):
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    flagged = run_cli(capsys, *argv)
    configured = run_cli(capsys, argv[0], "--config", str(cfg))
    assert flagged[0] == 0
    assert configured[:2] == flagged[:2]
