import dataclasses
import json
import math
import shlex

import pytest

from distbeam import cli, experiments
from distbeam.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, cli_main
from distbeam.experiments import EXPERIMENT_KEYS, ExperimentConfig

from conftest import read_keys


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_required_intervals(capsys):
    code, out, _ = run_cli(capsys, "bound", "--M", "5", "--eta-hat", "0.99",
                           "--equal-gains")
    assert code == EXIT_OK
    assert out.strip() == "4.8094"
    code, out, _ = run_cli(capsys, "bound", "--M", "5", "--eta-hat", "0.999",
                           "--equal-gains")
    assert out.strip() == "6.4731"


def test_bound_efficiency_mode(capsys):
    code, out, _ = run_cli(capsys, "bound", "--M", "5", "--N", "5",
                           "--equal-gains")
    assert code == EXIT_OK
    assert abs(float(out.strip()) - 0.9923141121612923) < 1e-12


def test_bound_gains_list(capsys):
    code, out, _ = run_cli(capsys, "bound", "--gains", "1,1,1,1,1",
                           "--eta-hat", "0.99")
    assert code == EXIT_OK
    assert out.strip() == "4.8094"


def test_large_n_runs_without_overflow(capsys, tmp_path):
    """N >= 1024 used to end in an OverflowError traceback from 2.0 ** N."""
    code, out, err = run_cli(capsys, "bound", "--equal-gains", "--M", "3", "--N", "2000")
    assert code == EXIT_OK and out.strip() == "1" and err == ""
    code, out, _ = run_cli(capsys, "protocol", "--M", "3", "--N", "1100")
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[5] == "1"
    code, _, _ = run_cli(capsys, "exp", "efficiency-vs-N", "--trials", "2", "--m-list", "3",
                         "--n-list", "1100", "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "efficiency-vs-N" / "bound_M3.csv").read_text() == "N,mean,stderr\n1100,1,0\n"


def test_bound_usage_errors(capsys):
    code, _, err = run_cli(capsys, "bound", "--M", "5", "--equal-gains")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "bound", "--equal-gains", "--N", "4")
    assert code == EXIT_USAGE and "--equal-gains requires --M" in err
    code, _, err = run_cli(capsys, "bound", "--M", "5", "--eta-hat", "0.9",
                           "--N", "3", "--equal-gains")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "bound", "--eta-hat", "0.9")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (("--gains", "1,2"), "--M needs --equal-gains; with --gains the size is the gain count"),
    ((), "--M needs --equal-gains; with --gains the size is the gain count"),
    (("--gains", "1,2", "--equal-gains"),
     "argument --equal-gains: not allowed with argument --gains"),
])
def test_bound_rejects_m_without_equal_gains(capsys, argv, message):
    """``--gains 1,2 --M 5`` used to print the two-gain bound with exit 0,
    ignoring --M, and so did ``--gains 1,2 --equal-gains --M 5``."""
    code, out, err = run_cli(capsys, "bound", *argv, "--M", "5", "--N", "3")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: {message}\n") and "Traceback" not in err


def test_bound_infeasible_target(capsys):
    """A target below the one-interval floor (1/5 here) is met by one
    interval; it used to be an error with exit 2, verify's failure code."""
    code, out, err = run_cli(capsys, "bound", "--M", "5", "--eta-hat", "0.1",
                             "--equal-gains")
    assert code == EXIT_OK
    assert out == "1.0000\n" and err == ""


def test_protocol_deterministic(capsys):
    args = ("protocol", "--M", "5", "--N", "5", "--seed", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "M,N,Q_d,Q_star,eta,bound,max_abs_error"


def test_protocol_json_and_outputs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "protocol", "--M", "4", "--N", "3",
                           "--seed", "2", "--format", "json",
                           "--out", str(tmp_path / "run"))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["M"] == 4 and payload["N"] == 3
    assert 0.0 < payload["eta"] <= 1.0
    assert (tmp_path / "run" / "summary.csv").exists()
    for i in (2, 3, 4):
        assert (tmp_path / "run" / f"trace_ET{i}.csv").exists()
    # the CSV summary row holds the JSON's seven summary values, exact and noisy
    for noise, bound in (("0", "bound"), ("1e-6", "bound_exact")):
        argv = ("protocol", "--M", "5", "--N", "5", "--seed", "2", "--noise-std", noise)
        _, csv, _ = run_cli(capsys, *argv)
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        header, values = (line.split(",") for line in csv.splitlines())
        payload = json.loads(out)
        assert header == ["M", "N", "Q_d", "Q_star", "eta", bound, "max_abs_error"]
        assert set(payload) - {"final_phases", "bound_valid"} == set(header)
        assert values[:2] == ["5", "5"]
        assert values == [format(payload[key], ".15g") for key in header]


def test_noisy_protocol_labels_the_bound_exact(capsys, tmp_path):
    """Under measurement noise the printed bound is the exact-measurement
    one, which the run need not meet: it is labelled bound_exact and the
    JSON says bound_valid false. Exact runs keep the plain label."""
    noisy = ("protocol", "--M", "5", "--N", "4", "--noise-std", "1e-6", "--seed", "3")
    code, out, _ = run_cli(capsys, *noisy, "--out", str(tmp_path / "noisy"))
    assert code == EXIT_OK
    header = "M,N,Q_d,Q_star,eta,bound_exact,max_abs_error"
    assert out.splitlines()[0] == header
    assert (tmp_path / "noisy" / "summary.csv").read_text() == out
    code, out, _ = run_cli(capsys, *noisy, "--format", "json")
    payload = json.loads(out)
    assert payload["bound_valid"] is False
    assert "bound" not in payload and 0.0 < payload["bound_exact"] <= 1.0
    code, out, _ = run_cli(capsys, "protocol", "--M", "5", "--N", "4", "--seed", "3",
                           "--format", "json", "--out", str(tmp_path / "exact"))
    payload = json.loads(out)
    assert "bound_exact" not in payload and "bound_valid" not in payload
    assert (tmp_path / "exact" / "summary.csv").read_text().startswith(
        "M,N,Q_d,Q_star,eta,bound,max_abs_error\n")


def test_adapt_trace_output(capsys):
    code, out, _ = run_cli(capsys, "adapt", "--M", "2", "--N", "4", "--seed", "9")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,psi,psi_prime")
    assert len(lines) == 5
    code, out, _ = run_cli(capsys, "adapt", "--M", "2", "--N", "4", "--seed",
                           "9", "--format", "json")
    payload = json.loads(out)
    assert len(payload["records"]) == 4


def test_adapt_bad_adapter_index(capsys):
    code, _, err = run_cli(capsys, "adapt", "--M", "3", "--adapter", "7")
    assert code == EXIT_USAGE


def test_baseline_deterministic(capsys):
    args = ("baseline", "--M", "4", "--intervals", "25", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.splitlines()[0] == "n,power,best_power,accepted"
    assert len(out1.strip().splitlines()) == 26


def test_baseline_json_matches_csv(capsys):
    args = ("baseline", "--M", "4", "--intervals", "25", "--seed", "3")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert sorted(payload) == ["best_power", "final_power", "measured_power"]
    _, csv, _ = run_cli(capsys, *args)
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    assert [f"{p:.15g}" for p in payload["measured_power"]] == [r[1] for r in rows]
    assert [f"{p:.15g}" for p in payload["best_power"]] == [r[2] for r in rows]
    assert payload["final_power"] == payload["best_power"][-1]


def test_exp_writes_curves(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    code, out, _ = run_cli(
        capsys, "exp", "efficiency-vs-N", "--trials", "6",
        "--m-list", "3", "--n-list", "1,2", "--seed", "5",
        "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    assert "config_hash" in out
    base = tmp_path / "efficiency-vs-N"
    assert (base / "eta_M3.csv").exists()
    assert (base / "bound_M3.csv").exists()
    assert (base / "metadata.json").exists()


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999"])
def test_bad_source_date_epoch_is_a_usage_error_before_any_draw(capsys, tmp_path,
                                                                monkeypatch, epoch):
    """Both used to run the whole experiment first; then "abc" printed int()'s
    message, and the out-of-range value an i/o error with exit 3."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    monkeypatch.setattr(experiments, "rng_stream", no_draw)
    monkeypatch.setattr(experiments, "trial_stack", no_draw)
    for name in EXPERIMENT_KEYS:
        code, out, err = run_cli(capsys, "exp", name, "--out", str(tmp_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: SOURCE_DATE_EPOCH ") and err.count("\n") == 1
        assert repr(epoch) in err
    assert list(tmp_path.iterdir()) == []


_TWO_TX = "protocol needs at least two transmitters"


@pytest.mark.parametrize("argv, message", [
    (("efficiency-vs-N", "--m-list", "1", "--trials", "3000000"), _TWO_TX),
    (("efficiency-vs-N", "--m-list", "5,1", "--trials", "3000000"), _TWO_TX),
    (("convergence-comparison", "--m-list", "40,1", "--intervals", "100000"), _TWO_TX),
    (("power-vs-M", "--m-list=-1,3"), "m_list -1: need at least one transmitter"),
    (("power-vs-M", "--m-list", "3,0"), "m_list 0: need at least one transmitter"),
], ids=["efficiency-1", "efficiency-5,1", "convergence-40,1", "power--1,3", "power-3,0"])
def test_a_system_of_one_transmitter_is_rejected_before_any_draw(capsys, tmp_path,
                                                                monkeypatch, argv, message):
    """Each listed size is checked before the first draw. These failed only
    inside the protocol engine: M = 1 after drawing 3,000,000 trials, and
    M = 1 after M = 5 or M = 40 had run. power-vs-M, which runs M = 1,
    drew M = 3 first and then built M = -1 from its first two links, or
    said only ``scenario needs at least one channel`` for M = 0."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "trial_stack", no_draw)
    monkeypatch.setattr(experiments, "generate_scenario", no_draw)
    code, out, err = run_cli(capsys, "exp", *argv, "--out", str(tmp_path))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, config, message", [
    (("protocol", "--M", "3", "--N", "2", "--out", ""), None, "--out must not be empty"),
    (("exp", "power-vs-M", "--out", ""), None, "out_dir must not be empty"),
    (("exp", "power-vs-M"), "out_dir =\n", "out_dir must not be empty"),
], ids=["protocol", "exp", "exp-config"])
def test_an_empty_output_directory_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                                    argv, config, message):
    """``protocol --out ""`` ran and wrote nothing with exit 0, and ``exp``
    wrote its experiment's directory into the working directory."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ("--config", str(tmp_path / "run.cfg"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
    assert list(cwd.iterdir()) == []


def test_exp_deterministic_across_workers(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outs = []
    for tag, workers in (("a", "1"), ("b", "3")):
        out_dir = tmp_path / tag
        code, _, _ = run_cli(
            capsys, "exp", "overhead-tradeoff", "--trials", "8",
            "--budgets", "10,25,50", "--seed", "7",
            "--workers", workers, "--out", str(out_dir),
        )
        assert code == EXIT_OK
        files = sorted((out_dir / "overhead-tradeoff").glob("*"))
        outs.append({f.name: f.read_bytes() for f in files})
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        if name == "metadata.json":
            a = json.loads(outs[0][name])
            b = json.loads(outs[1][name])
            for key in ("workers", "config_hash", "out_dir"):
                a.pop(key), b.pop(key)
            assert a == b
        else:
            assert outs[0][name] == outs[1][name]


def test_exp_config_file(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "experiment = efficiency-vs-N\ntrials = 4\nm_list = 3\nn_list = 1\nseed = 2\n"
    )
    code, out, _ = run_cli(
        capsys, "exp", "efficiency-vs-N", "--config", str(cfg_file),
        "--out", str(tmp_path / "o"), "--trials", "5",
    )
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "o" / "efficiency-vs-N" / "metadata.json").read_text())
    assert meta["trials"] == 5      # flag overrides file
    assert meta["seed"] == 2        # file value survives when flag absent


def test_exp_config_file_naming_another_experiment_is_a_usage_error(capsys, tmp_path):
    """The command's experiment used to replace the file's silently, so a
    file for overhead-tradeoff ran efficiency-vs-N with exit 0. A file
    that names the command's own experiment runs."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("experiment = overhead-tradeoff\ntrials = 4\n")
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "exp", "efficiency-vs-N", "--config", str(cfg_file),
                             "--m-list", "2", "--n-list", "1", "--out", str(out_dir))
    assert code == EXIT_USAGE and out == ""
    assert err == ("error: the config file is for experiment 'overhead-tradeoff', "
                   "not 'efficiency-vs-N'\n")
    assert not out_dir.exists()
    code, _, err = run_cli(capsys, "exp", "overhead-tradeoff", "--config", str(cfg_file),
                           "--budgets", "5", "--out", str(out_dir))
    assert code == EXIT_OK, err


#: A valid value of each experiment-specific key, and its flag
_OWN_KEY_FLAGS = {
    "trials": ("--trials", "3"),
    "n_list": ("--n-list", "1,2"),
    "m_list": ("--m-list", "3"),
    "budgets": ("--budgets", "5,10"),
    "intervals": ("--intervals", "50"),
    "n_adapt": ("--n-adapt", "3"),
    "perturb_scale": ("--perturb-scale", "0.5"),
    "count_training_energy": ("--count-training-energy",),
}


@pytest.mark.parametrize("experiment, key", [
    (exp, key) for exp, keys in EXPERIMENT_KEYS.items() for key in _OWN_KEY_FLAGS
    if key not in keys])
def test_exp_rejects_a_key_it_does_not_read(capsys, tmp_path, experiment, key):
    """``exp power-vs-M --trials 50 --budgets 3`` ran with exit 0 and wrote
    the unread values into metadata.json and config_hash. A key the
    experiment does not read is a usage error naming it and the keys the
    experiment reads, by flag and by config file alike, and nothing is
    written."""
    out_dir = tmp_path / "o"
    flag, *value = _OWN_KEY_FLAGS[key]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value[0] if value else 'true'}\n")
    argv = ("exp", experiment, "--out", str(out_dir))
    flagged = run_cli(capsys, *argv, flag, *value)
    assert run_cli(capsys, *argv, "--config", str(cfg_file)) == flagged
    code, out, err = flagged
    assert code == EXIT_USAGE and out == "" and len(err.splitlines()) == 1
    head = f"error: {experiment} does not read {key}; it reads "
    assert err.startswith(head)
    assert set(err[len(head):].strip().split(", ")) == read_keys(experiment)
    assert not out_dir.exists()


def test_exp_names_an_unread_key_before_its_value(capsys, tmp_path):
    """``exp power-vs-M --trials 1e3`` said ``trials must be an integer``;
    only once the value parsed did the unread key appear. The key is named
    first, by flag and by config file alike; a key the experiment reads
    with the same bad value still names the value."""
    out_dir = tmp_path / "o"
    for experiment, head in (
            ("power-vs-M", "error: power-vs-M does not read trials; it reads "),
            ("efficiency-vs-N", "error: trials must be an integer; got '1e3'\n")):
        cfg_file = tmp_path / f"{experiment}.cfg"
        cfg_file.write_text("trials = 1e3\n")
        argv = ("exp", experiment, "--out", str(out_dir))
        flagged = run_cli(capsys, *argv, "--trials", "1e3")
        assert run_cli(capsys, *argv, "--config", str(cfg_file)) == flagged
        code, out, err = flagged
        assert code == EXIT_USAGE and out == "" and len(err.splitlines()) == 1
        assert err.startswith(head), err
    assert not out_dir.exists()


@pytest.mark.parametrize("experiment, argv", [
    ("efficiency-vs-N", ("--trials", "2", "--m-list", "2", "--n-list", "1")),
    ("power-vs-M", ("--m-list", "2,3", "--n-list", "1")),
    ("convergence-comparison", ("--m-list", "2", "--intervals", "5")),
    ("overhead-tradeoff", ("--trials", "2", "--budgets", "5")),
])
def test_exp_metadata_records_only_the_keys_the_experiment_reads(capsys, tmp_path,
                                                                experiment, argv):
    """metadata.json held all 20 keys for every experiment, read or not."""
    code, _, err = run_cli(capsys, "exp", experiment, *argv, "--out", str(tmp_path))
    assert code == EXIT_OK, err
    meta = json.loads((tmp_path / experiment / "metadata.json").read_text())
    extra = {"probes_per_interval"} if experiment == "convergence-comparison" else set()
    assert set(meta) == read_keys(experiment) | extra | {
        "experiment", "config_hash", "timestamp", "version"}


def test_exp_config_file_rejects_unknown_boolean(capsys, tmp_path):
    """A misspelt boolean used to read as false and run uncredited."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("count_training_energy = ture\ntrials = 2\n")
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "exp", "overhead-tradeoff", "--config", str(cfg_file),
                             "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and "count_training_energy" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("line, message", [
    ("trials = 1e3", "trials must be an integer; got '1e3'"),
    ("ref_attenuation = big", "ref_attenuation must be a number; got 'big'"),
    # an empty entry was dropped, so 3,,5 ran as 3,5; an empty list said
    # "sweep lists must be non-empty"
    ("m_list = 3,,5", "m_list must be comma-separated integers; got '3,,5'"),
    ("m_list =", "m_list must be comma-separated integers; got ''"),
])
def test_exp_config_value_that_does_not_parse_names_its_key(capsys, tmp_path, line, message):
    """These read ``invalid literal for int() with base 10: '1e3'`` and
    ``could not convert string to float: 'big'``, naming no key."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    code, out, err = run_cli(capsys, "exp", "efficiency-vs-N", "--config", str(cfg_file),
                             "--out", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, bad, good", [
    ("--trials", "1e3", "2"),
    ("--seed", "x", "7"),
    ("--workers", "2.5", "2"),
    ("--intervals", "many", "50"),
    ("--n-adapt", "three", "3"),
    ("--perturb-scale", "big", "0.5"),
    ("--n-list", "1,x", "1,2"),
    ("--m-list", "2;3", "2,3"),
    ("--m-list", "3,,5", "3,5"),
    ("--n-list", "1,2,", "1,2"),
    ("--budgets", "5,ten", "5,10"),
])
def test_exp_flag_parses_as_its_config_key(capsys, tmp_path, flag, bad, good):
    """Each ``exp`` value flag hands its string to the config file's parser:
    a bad value gives the error line that the same value under its key in a
    --config file gives, and a good one the same config_hash. argparse used
    to parse the typed flags itself (``argument --trials: invalid int
    value: '1e3'``). Each flag runs on power-vs-M, or else on the first
    experiment that reads its key."""
    key = flag[2:].replace("-", "_")
    experiment = next(exp for exp in ("power-vs-M", *EXPERIMENT_KEYS) if key in read_keys(exp))
    cfg_file = tmp_path / "run.cfg"
    argv = ["exp", experiment, "--out", str(tmp_path / "o")]

    def by_flag_and_by_key(value):
        cfg_file.write_text(f"{key} = {value}\n")
        return run_cli(capsys, *argv, flag, value), run_cli(capsys, *argv, "--config",
                                                            str(cfg_file))

    flagged, keyed = by_flag_and_by_key(bad)
    assert flagged == keyed
    code, out, err = flagged
    assert code == EXIT_USAGE and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    flagged, keyed = by_flag_and_by_key(good)
    assert flagged[0] == keyed[0] == EXIT_OK
    assert flagged[1].splitlines()[0] == keyed[1].splitlines()[0]
    assert flagged[1].startswith("config_hash ")


def test_exp_missing_config_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "exp", "efficiency-vs-N", "--config",
                           str(tmp_path / "nope.cfg"))
    assert code == EXIT_IO


def test_exp_out_path_collision(capsys, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    code, _, err = run_cli(
        capsys, "exp", "efficiency-vs-N", "--trials", "2", "--m-list", "2",
        "--n-list", "1", "--out", str(blocker),
    )
    assert code == EXIT_IO


def test_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "exp", "no-such-experiment")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "protocol", "--M", "not-a-number")
    assert code == EXIT_USAGE
    # bad sweep values: an error line, no CSV
    for argv, message in (
        (("efficiency-vs-N", "--m-list", "1"), "protocol needs at least two transmitters"),
        (("efficiency-vs-N", "--n-list", "0,2"), "n_intervals must be >= 1"),
        # a budget below 1 wrote Q* as power-vs-M's mean and trained no stage
        (("power-vs-M", "--m-list", "1", "--n-list", "0,-2"),
         "n_intervals must be >= 1; got n_list -2"),
        (("overhead-tradeoff", "--m-list", "1", "--n-adapt", "0"),
         "n_intervals must be >= 1; got n_adapt 0"),
        # ran no policy and wrote only the two reference curves
        (("overhead-tradeoff", "--m-list", "1"), "protocol needs at least two transmitters"),
        (("overhead-tradeoff", "--m-list", "5,10", "--budgets", "10"), "m_list 5,10"),
        (("overhead-tradeoff", "--budgets", "0,5"), "budgets must be >= 1"),
        (("overhead-tradeoff", "--budgets=-5"), "budgets must be >= 1"),
        # 2**64 ended in a TypeError traceback from np.ldexp on an object array
        (("overhead-tradeoff", "--budgets", "18446744073709551616"),
         "budgets must be >= 1 and <= 2**53; got 18446744073709551616"),
        (("overhead-tradeoff", "--budgets", "5,9007199254740993"),
         "budgets must be >= 1 and <= 2**53; got 9007199254740993"),
    ):
        trials = ("--trials", "3") if "trials" in EXPERIMENT_KEYS[argv[0]] else ()
        code, out, err = run_cli(capsys, "exp", *argv, *trials, "--out", str(tmp_path))
        assert code == EXIT_USAGE, argv
        assert out == "" and err.startswith("error: ") and message in err, argv
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("baseline", "--intervals", "100000000000000000"),
    ("exp", "convergence-comparison", "--m-list", "2", "--intervals", "100000000000000000"),
    ("exp", "overhead-tradeoff", "--trials", "2", "--n-adapt", "100000000000000000",
     "--count-training-energy"),
    ("baseline", "--intervals", "10000000000000000000"),
    ("exp", "convergence-comparison", "--m-list", "2", "--intervals", "100000000000000000000"),
    ("exp", "overhead-tradeoff", "--trials", "2", "--count-training-energy",
     "--n-adapt", "10000000000000000000"),
    ("bound", "--equal-gains", "--M", "10000000000000000000", "--N", "3"),
    ("bound", "--equal-gains", "--M", "10000000000000000000", "--eta-hat", "0.9"),
], ids=["baseline", "convergence-comparison", "overhead-tradeoff", "baseline-1e19",
        "convergence-comparison-1e20", "overhead-tradeoff-1e19", "bound-1e19-N",
        "bound-1e19-eta-hat"])
def test_a_run_too_large_for_memory_is_a_usage_error(capsys, tmp_path, argv):
    """Runs that ask numpy for 3.47 EiB, 711 PiB and 5.55 EiB, more than any
    address space holds, ended in a MemoryError traceback. Each is one error
    line naming the allocation, and ``exp`` writes nothing. overhead-tradeoff
    keeps every interval's power only when it credits training energy. An
    array past numpy's largest size printed numpy's ``Maximum allowed
    dimension exceeded``; it is out of memory too, and the line names the run."""
    argv = (*argv, "--out", str(tmp_path)) if argv[0] == "exp" else argv
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    if "100000000000000000" in argv:
        assert err.startswith("error: out of memory: Unable to allocate ")
        assert len(err.splitlines()) == 1
    else:
        assert err == (f"error: out of memory: distbeam {shlex.join(argv)} "
                       f"needs an array past numpy's largest size\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("protocol", "--M", "3"), ("adapt", "--M", "3"),
                                  ("protocol", "--M", "2", "--noise-std", "1e-6"),
                                  ("adapt", "--M", "2", "--noise-std", "1e-6")])
@pytest.mark.parametrize("n", ["1" + "0" * 17, "1" + "0" * 30, "1" + "0" * 19])
def test_a_trace_too_long_for_memory_is_a_usage_error(capsys, tmp_path, argv, n):
    """The scalar stage keeps one entry per interval. N = 10**17 needs
    more memory than any address space holds and 10**30 more entries than a
    tuple holds; both ran interval by interval without end. Each is one
    error line naming the trace, and ``protocol --out`` writes nothing.
    Under noise the run first draws 2 * N noise values a stage: at 10**17
    numpy names the array it cannot allocate, and from 10**19, past its
    largest size, the line names the run (it printed numpy's ``Maximum
    allowed dimension exceeded``)."""
    out_dir = ("--out", str(tmp_path / "o")) if argv[0] == "protocol" else ()
    argv = (*argv, "--N", n, *out_dir)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    if "--noise-std" not in argv:
        assert err == f"error: out of memory: a trace of {n} intervals\n"
    elif n == "1" + "0" * 17:
        assert err.startswith("error: out of memory: Unable to allocate ")
        assert len(err.splitlines()) == 1
    else:
        assert err == (f"error: out of memory: distbeam {shlex.join(argv)} "
                       f"needs an array past numpy's largest size\n")
    assert not any(tmp_path.iterdir())


def test_efficiency_sweep_at_a_huge_budget_ends(capsys, tmp_path):
    """The bisection stops moving at N = 42, so N = 10**30 gives N = 42's
    means and standard errors; it ran every interval and did not end."""
    rows = {}
    for n in ("42", "1" + "0" * 30):
        code, _, err = run_cli(capsys, "exp", "efficiency-vs-N", "--trials", "10",
                               "--m-list", "2,5", "--n-list", n, "--out", str(tmp_path / n))
        assert code == EXIT_OK and err == "", n
        for name in ("eta_M2", "eta_M5"):
            (row,) = (tmp_path / n / "efficiency-vs-N" / f"{name}.csv").read_text().splitlines()[1:]
            x, stats = row.split(",", 1)
            assert x == n
            rows.setdefault(name, set()).add(stats)
    assert all(len(stats) == 1 for stats in rows.values()), rows


@pytest.mark.parametrize("n_adapt", ["1" + "0" * 17, "1" + "0" * 30])
def test_overhead_tradeoff_at_a_huge_training_length_ends(capsys, tmp_path, n_adapt):
    """Without training energy credited, overhead-tradeoff reads only the
    final phases, so n_adapt = 10**17 no longer asks for 5.55 EiB of
    interval powers, and 10**30 (training past int64) ends too: training
    spans every budget, so each policy averages 0 and the references do
    not."""
    code, _, err = run_cli(capsys, "exp", "overhead-tradeoff", "--trials", "4",
                           "--n-adapt", n_adapt, "--out", str(tmp_path))
    assert code == EXIT_OK and err == ""
    for name in ("all_on", "drop_weakest_1", "drop_weakest_2", "no_adaptation", "optimal"):
        rows = (tmp_path / "overhead-tradeoff" / f"{name}.csv").read_text().splitlines()[1:]
        assert len(rows) == 14, name
        zero = all(row.split(",")[1:] == ["0", "0"] for row in rows)
        assert zero == name.startswith(("all_on", "drop")), name


def test_negative_seed_is_a_usage_error(capsys, tmp_path):
    """``--seed -1`` used to run 2**63 - 1's stream; now it is one error
    line, and ``exp`` writes nothing."""
    for argv in (("protocol", "--M", "3", "--N", "3"),
                 ("exp", "efficiency-vs-N", "--trials", "2", "--out", str(tmp_path))):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == EXIT_USAGE and out == "", argv
        assert err == "error: seed must be >= 0; got -1\n", argv
    assert not any(tmp_path.iterdir())


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK
    assert "all 6 checks passed" in out
    assert "[ok]" in out


def test_verify_failure_exits_with_verify_code(capsys, monkeypatch):
    """One failing check: every check still reports, the failed one is marked
    FAIL, and the run ends with the count and EXIT_VERIFY."""
    from distbeam import selfcheck

    real = selfcheck.partial_power
    monkeypatch.setattr(selfcheck, "partial_power",
                        lambda s, ss, m, phi_m: real(s, ss, m, phi_m) + 1e-12)
    code, out, err = run_cli(capsys, "verify")
    lines = out.splitlines()
    assert code == EXIT_VERIFY and err == "" and len(lines) == 7
    assert lines[1].startswith("[FAIL] partial-power consistency: ")
    assert all(ln.startswith("[ok] ") for ln in lines[:1] + lines[2:6])
    assert lines[-1] == "1 of 6 checks failed"


def test_bound_rejects_non_finite_and_all_zero_gains(capsys):
    for gains in ("inf,1", "1,nan", "0,0"):
        code, out, err = run_cli(capsys, "bound", "--gains", gains, "--N", "3")
        assert code == EXIT_USAGE, gains
        assert out == "" and "error:" in err and "Traceback" not in err


def test_bound_names_its_flag_for_a_gain_that_is_not_a_number(capsys):
    """A gain that is not a number gave Python's bare "could not convert
    string to float"; it now names the flag and the whole value. An empty
    entry is not a number either: ``--gains 1,,2`` printed the bound of
    gains 1 and 2 with exit 0."""
    for gains in ("1,x", "1,,2", "1,2,"):
        code, out, err = run_cli(capsys, "bound", "--gains", gains, "--N", "3")
        assert code == EXIT_USAGE, gains
        assert out == ""
        assert err == f"error: --gains must be comma-separated numbers; got '{gains}'\n"


def test_bound_rejects_gain_sums_that_overflow(capsys):
    """Gain sums past the float range printed nan (and, for 6e307, a wrong
    --eta-hat budget of 3.2875) with exit 0 and numpy RuntimeWarnings."""
    for gains in ("1e308,1e308", "6e307,6e307"):
        for flag, value in (("--N", "3"), ("--eta-hat", "0.9")):
            code, out, err = run_cli(capsys, "bound", "--gains", gains, flag, value)
            assert code == EXIT_USAGE, (gains, flag)
            assert out == "" and err.startswith("error: the gain sums overflow")
            assert "nan" not in err and "Traceback" not in err


def test_exp_rejects_non_positive_workers(capsys, tmp_path):
    code, _, err = run_cli(capsys, "exp", "efficiency-vs-N", "--trials", "2",
                           "--m-list", "2", "--n-list", "1", "--workers", "-3",
                           "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "workers" in err
    assert not (tmp_path / "efficiency-vs-N").exists()


def test_adapt_needs_a_reference_transmitter(capsys):
    code, out, err = run_cli(capsys, "adapt", "--M", "1")
    assert code == EXIT_USAGE
    assert out == ""


def test_subcommands_reject_flags_they_ignore(capsys, tmp_path):
    for argv in (
        ("exp", "efficiency-vs-N", "--format", "json", "--out", str(tmp_path)),
        ("verify", "--seed", "3"),
        ("bound", "--M", "5", "--N", "3", "--equal-gains", "--trials", "9"),
        ("adapt", "--workers", "2"),
        ("baseline", "--out", str(tmp_path)),
        ("protocol", "--config", "x.cfg"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "unrecognized arguments" in err
    assert not any(tmp_path.iterdir())


def test_noise_std_must_be_finite_and_non_negative(capsys):
    for cmd in ("protocol", "adapt"):
        for noise in ("nan", "inf", "-1e-6"):
            code, out, err = run_cli(capsys, cmd, "--M", "3", "--N", "2",
                                     f"--noise-std={noise}")
            assert code == EXIT_USAGE, (cmd, noise)
            assert out == "" and err.startswith("error: ") and "noise_std" in err, (cmd, noise)


def test_baseline_rejects_unusable_scales(capsys):
    for dist, scale in (("gaussian", "inf"), ("gaussian", "nan"), ("uniform", "inf"),
                        ("uniform", "1e308")):
        code, out, err = run_cli(capsys, "baseline", "--dist", dist, "--scale", scale,
                                 "--intervals", "3")
        assert code == EXIT_USAGE, (dist, scale)
        assert out == "" and err.startswith("error: ") and "scale" in err, (dist, scale)


def test_baseline_rejects_steps_that_overflow(capsys):
    """A gaussian scale near the float maximum draws infinite steps, which
    used to print nan powers with exit 0."""
    code, out, err = run_cli(capsys, "baseline", "--dist", "gaussian", "--scale", "1e308",
                             "--intervals", "400")
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and "non-finite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("experiment, line, message", [
    ("efficiency-vs-N", "transmit_power = inf", "transmit_power must be positive and finite"),
    ("overhead-tradeoff", "transmit_power = inf", "transmit_power must be positive and finite"),
    ("efficiency-vs-N", "conversion_eff = 1e-320", "optimal power of trial"),
    ("overhead-tradeoff", "conversion_eff = 1e-320", "optimal power of trial"),
    ("efficiency-vs-N", "conversion_eff = 1e-310", "conversion_eff * transmit_power = 1e-310"),
    ("overhead-tradeoff", "conversion_eff = 1e-310", "conversion_eff * transmit_power = 1e-310"),
    ("power-vs-M", "conversion_eff = 1e-320", "optimal power of M = 2 is 0.0"),
    ("convergence-comparison", "conversion_eff = 1e-320", "optimal power of M = 5 is 0.0"),
    ("power-vs-M", "conversion_eff = 1e-310", "conversion_eff * transmit_power = 1e-310"),
    ("convergence-comparison", "conversion_eff = 1e-310",
     "conversion_eff * transmit_power = 1e-310"),
    ("efficiency-vs-N", "distance_max = inf", "distance_range must be finite"),
    ("efficiency-vs-N", "ref_distance = -1", "ref_distance must be positive and finite"),
    ("efficiency-vs-N", "ref_attenuation = inf", "ref_attenuation must be positive and finite"),
    ("efficiency-vs-N", "ref_attenuation = 1e-160", "is nonzero but below 2**-511"),
    # gain sums past 2**511 overflowed the stage products: a RuntimeWarning
    # at exact_runs' swing, or a mean eta_M5 of 0.722 at N = 8 with exit 0
    ("efficiency-vs-N", "ref_attenuation = 1e306", "the gain sums overflow"),
    ("overhead-tradeoff", "ref_attenuation = 1e306", "the gain sums overflow"),
    # overhead-tradeoff checked Q* only after its runs had overflowed
    ("overhead-tradeoff", "transmit_power = 1e308\nref_attenuation = 1e10",
     "optimal power of trial 0 is inf"),
    # a finite Q* near the float maximum wrote an all_on mean of inf and a
    # stderr of nan at budgets 100-300 with exit 0
    ("overhead-tradeoff", "transmit_power = 1e308\nref_attenuation = 10",
     "= float max / (2 * largest budget 300)"),
    ("efficiency-vs-N", "path_loss_exponent = inf",
     "path_loss_exponent must be positive and finite"),
    # the baseline's rules, under the config's names, for the experiment
    # that runs the baseline: it named the baseline's fields instead
    ("convergence-comparison", "intervals = -5", "intervals -5: max_intervals must be >= 1"),
    ("convergence-comparison", "perturb_scale = -1",
     "perturb_scale -1.0: scale must be positive"),
    ("convergence-comparison", "intervals = 0", "intervals 0: max_intervals must be >= 1"),
    ("convergence-comparison", "perturb_scale = nan", "perturb_scale nan: scale must be"),
    ("convergence-comparison", "perturb_scale = 1e308", "perturb_scale 1e+308: uniform scale"),
    # a key given twice (here with the test's own trials line) ran with the last value
    ("efficiency-vs-N", "trials = 3", "line 2: key 'trials' repeats line 1"),
])
def test_exp_rejects_degenerate_config_values(capsys, tmp_path, experiment, line, message):
    """A bad config value, such as a power scale or distance law that leaves
    no finite positive optimum, is a usage error naming the value: no NaN
    CSV, no traceback."""
    cfg_file = tmp_path / "run.cfg"
    trials = "trials = 50\n" if "trials" in EXPERIMENT_KEYS[experiment] else ""
    cfg_file.write_text(f"{line}\n{trials}")
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "exp", experiment, "--config", str(cfg_file),
                             "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_exp_flags_set_config_fields():
    """``exp`` copies each flag whose dest is a config field's name to that
    field; every value flag's dest is one, and defaults to None."""
    args = cli.build_parser().parse_args(["exp", "power-vs-M"])
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    dests = set(vars(args)) - {"command", "name", "config"}
    assert len(dests) == 11 and dests <= config_fields
    for name in dests:
        assert getattr(args, name) is None, name


def test_a_usage_error_leaves_the_shared_parser_unchanged(capsys):
    """``cli_main`` builds its parser once per process. After a usage error
    at the top level, in a subcommand's flags or in a flag's value, the next
    call parses as a freshly built parser does and prints what it printed
    before the error."""
    assert cli.build_parser() is cli.build_parser()
    good = ["baseline", "--M", "3", "--intervals", "7", "--format", "json"]
    before = run_cli(capsys, *good)
    for bad in (["nosuch"], ["baseline", "--bogus"], ["baseline", "--M", "x"],
                ["exp", "power-vs-M", "--seed"], ["protocol", "--format", "xml"]):
        code, out, err = run_cli(capsys, *bad)
        assert code == EXIT_USAGE and out == "" and err.startswith("error: "), bad
        assert run_cli(capsys, *good) == before, bad
        for argv in (good, ["exp", "power-vs-M", "--m-list", "2,3"]):
            assert (vars(cli.build_parser().parse_args(argv))
                    == vars(cli.build_parser.__wrapped__().parse_args(argv))), (bad, argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exp_stderr_stays_finite_at_a_huge_power_scale(capsys, tmp_path):
    """Powers near 1e304 used to overflow the squared deviations: a numpy
    RuntimeWarning, or an inf stderr with exit 0."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("transmit_power = 1e308\ntrials = 50\n")
    code, _, err = run_cli(capsys, "exp", "overhead-tradeoff", "--config", str(cfg_file),
                           "--out", str(tmp_path / "o"))
    assert code == EXIT_OK, err
    optimal = (tmp_path / "o" / "overhead-tradeoff" / "optimal.csv").read_text().splitlines()
    assert optimal[0] == "budget,mean,stderr"
    mean, stderr = (float(x) for x in optimal[1].split(",")[1:])
    assert 1e303 < mean < math.inf and 0.0 < stderr < math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exp_efficiency_runs_with_an_optimum_near_the_float_maximum(capsys, tmp_path):
    """A Q* above half the float maximum overflowed the interval-power sum
    that efficiency-vs-N computed and threw away: a RuntimeWarning at every
    N. The CSVs were right, and stay the same."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("transmit_power = 1e308\nref_attenuation = 20\n")
    code, _, err = run_cli(capsys, "exp", "efficiency-vs-N", "--config", str(cfg_file),
                           "--trials", "20", "--m-list", "5", "--n-list", "1,8,9",
                           "--out", str(tmp_path / "o"))
    assert code == EXIT_OK, err
    eta = (tmp_path / "o" / "efficiency-vs-N" / "eta_M5.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in eta] == ["N", "1", "8", "9"]
    assert all(0.5 < float(row.split(",")[1]) <= 1.0 for row in eta[1:])


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("name, experiment, value", [
    ("m_list", "power-vs-M", "3,3"),
    ("n_list", "power-vs-M", "1,2,1"),
    ("budgets", "overhead-tradeoff", "5,10,5"),
])
def test_exp_rejects_repeated_sweep_entries(capsys, tmp_path, how, name, experiment, value):
    """A repeated sweep point used to write its rows twice with exit 0; it
    is a usage error naming the list and the value, and nothing is written."""
    out_dir = tmp_path / "o"
    trials = ["--trials", "3"] if "trials" in EXPERIMENT_KEYS[experiment] else []
    argv = ["exp", experiment, *trials, "--out", str(out_dir)]
    if how == "flag":
        argv += [f"--{name.replace('_', '-')}", value]
    else:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{name} = {value}\n")
        argv += ["--config", str(cfg_file)]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith(f"error: {name} repeats {value.split(',')[0]}")
    assert "Traceback" not in err
    assert not out_dir.exists()
