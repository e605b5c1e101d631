import dataclasses
import json
import math

import pytest

from distbeam import cli
from distbeam.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, cli_main
from distbeam.experiments import ExperimentConfig


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


def test_bound_infeasible_target(capsys):
    code, _, err = run_cli(capsys, "bound", "--M", "5", "--eta-hat", "0.1",
                           "--equal-gains")
    assert code == EXIT_VERIFY
    assert "infeasible" in err


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
        (("overhead-tradeoff", "--m-list", "5,10", "--budgets", "10"), "m_list 5,10"),
        (("overhead-tradeoff", "--budgets", "0,5"), "budgets must be >= 1"),
        (("overhead-tradeoff", "--budgets=-5"), "budgets must be >= 1"),
    ):
        code, out, err = run_cli(capsys, "exp", *argv, "--trials", "3",
                                 "--out", str(tmp_path))
        assert code == EXIT_USAGE, argv
        assert out == "" and err.startswith("error: ") and message in err, argv
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
    # the baseline's rules, checked for every experiment under the config's
    # names: efficiency-vs-N recorded these values with exit 0, and
    # convergence-comparison named the baseline's fields instead
    ("efficiency-vs-N", "intervals = -5", "intervals -5: max_intervals must be >= 1"),
    ("efficiency-vs-N", "perturb_scale = -1", "perturb_scale -1.0: scale must be positive"),
    ("convergence-comparison", "intervals = 0", "intervals 0: max_intervals must be >= 1"),
    ("convergence-comparison", "perturb_scale = nan", "perturb_scale nan: scale must be"),
    ("power-vs-M", "perturb_scale = 1e308", "perturb_scale 1e+308: uniform scale"),
    # a key given twice (here with the test's own trials line) ran with the last value
    ("efficiency-vs-N", "trials = 3", "line 2: key 'trials' repeats line 1"),
])
def test_exp_rejects_degenerate_config_values(capsys, tmp_path, experiment, line, message):
    """A bad config value, such as a power scale or distance law that leaves
    no finite positive optimum, is a usage error naming the value: no NaN
    CSV, no traceback."""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{line}\ntrials = 50\n")
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "exp", experiment, "--config", str(cfg_file),
                             "--out", str(out_dir))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_exp_flags_set_config_fields():
    """``exp`` copies each flag named in ``_EXP_FIELDS`` to the config field
    of the same name."""
    args = cli.build_parser().parse_args(["exp", "power-vs-M"])
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name in cli._EXP_FIELDS:
        assert name in config_fields and getattr(args, name) is None, name


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
    argv = ["exp", experiment, "--trials", "3", "--out", str(out_dir)]
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
