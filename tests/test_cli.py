"""Front-end behavior: artifact layout and headers, reproducibility,
configuration precedence, and the exit-code contract."""

import numpy as np
import pytest

from vbma import cli
from vbma import core
from vbma import data as data_io


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture()
def crime_cfg(tmp_path):
    cfg = tmp_path / "crime.ini"
    cfg.write_text(
        "[study]\nname = crime\n\n"
        "[run]\nsamples = 4\npretrain_iters = 30\njoint_iters = 20\nwindow = 10\nseed = 3\n"
    )
    return cfg


@pytest.fixture()
def single_model_cfg(tmp_path):
    # empty predictor list -> one intercept-only model (K = 1)
    csv = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    data_io.write_csv(csv, {"y": rng.normal(5.0, 1.0, 25)})
    cfg = tmp_path / "one.ini"
    cfg.write_text(
        f"[data]\ncsv = {csv}\nresponse = y\ncenter = y\n\n"
        "[ensemble]\nkind = linear\npredictors =\n\n"
        "[run]\nsamples = 4\npretrain_iters = 25\njoint_iters = 10\nwindow = 5\nseed = 0\n"
    )
    return cfg


def read_weights(out_dir):
    rows = {}
    status = None
    for line in (out_dir / "weights.csv").read_text().splitlines():
        if line.startswith("# status="):
            status = line.split("=", 1)[1]
        elif not line.startswith("#") and not line.startswith("model"):
            name, q, se = line.split(",")
            rows[name] = float(q)
    return rows, status


def test_fit_artifacts_and_headers(tmp_path, crime_cfg):
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)]) == 0
    for artifact in ("weights.csv", "elbo_trace.csv", "checkpoint.txt"):
        text = (out / artifact).read_text()
        assert text.startswith("# vbma ")
        assert "seed=3" in text.splitlines()[0]
        assert "config=" in text.splitlines()[0]
    weights, status = read_weights(out)
    assert len(weights) == 8
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-6)
    assert status in ("converged", "budget-exhausted")


def test_fit_reruns_are_byte_identical(tmp_path, crime_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out1)])
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out2)])
    for artifact in ("weights.csv", "elbo_trace.csv", "checkpoint.txt"):
        assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()


def test_seed_flag_overrides_config(tmp_path, crime_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out1)])
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out2), "--seed", "8"])
    assert (out1 / "weights.csv").read_bytes() != (out2 / "weights.csv").read_bytes()
    assert "seed=8" in (out2 / "weights.csv").read_text().splitlines()[0]


def test_env_override_between_config_and_flag(tmp_path, crime_cfg, monkeypatch):
    out = tmp_path / "env"
    monkeypatch.setenv("VBMA_SEED", "5")
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)])
    assert "seed=5" in (out / "weights.csv").read_text().splitlines()[0]
    out2 = tmp_path / "envflag"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out2), "--seed", "9"])
    assert "seed=9" in (out2 / "weights.csv").read_text().splitlines()[0]


def test_single_model_gets_unit_weight(tmp_path, single_model_cfg):
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(single_model_cfg), "--out", str(out)]) == 0
    weights, _ = read_weights(out)
    assert weights == {"lin:intercept": pytest.approx(1.0)}


def test_bf_same_model_is_one(tmp_path, crime_cfg):
    out = tmp_path / "out"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)])
    assert run_cli(["bf", "--config", str(crime_cfg), "--out", str(out),
                    "lin:Ed", "lin:Ed"]) == 0
    body = (out / "bf.csv").read_text().splitlines()[-1]
    assert body.split(",")[2] == "1"


def test_bf_reports_oracle_for_linear(tmp_path, crime_cfg, capsys):
    out = tmp_path / "out"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)])
    run_cli(["bf", "--config", str(crime_cfg), "--out", str(out),
             "lin:Prob", "lin:M+Prob"])
    printed = capsys.readouterr().out
    assert "oracle=" in printed


def test_bf_unknown_model_is_usage_error(tmp_path, crime_cfg):
    out = tmp_path / "out"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)])
    assert run_cli(["bf", "--config", str(crime_cfg), "--out", str(out),
                    "lin:nope", "lin:Ed"]) == 1


def test_predict_artifacts(tmp_path, crime_cfg):
    out = tmp_path / "out"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)])
    assert run_cli(["predict", "--config", str(crime_cfg), "--out", str(out),
                    "--levels", "0.5,0.9", "--draws", "200"]) == 0
    lines = [l for l in (out / "predictions.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "row,mean,lo0.5,hi0.5,lo0.9,hi0.9"
    assert len(lines) == 1 + 47
    first = [float(v) for v in lines[1].split(",")]
    assert first[2] <= first[1] <= first[3]  # mean inside its own interval
    assert first[4] <= first[2] and first[3] <= first[5]  # nested intervals


def test_predict_zero_levels_gives_means_only(tmp_path, crime_cfg):
    out = tmp_path / "out"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)])
    assert run_cli(["predict", "--config", str(crime_cfg), "--out", str(out),
                    "--draws", "100"]) == 0
    header = [l for l in (out / "predictions.csv").read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "row,mean"


def test_predict_without_fit_is_usage_error(tmp_path, crime_cfg):
    assert run_cli(["predict", "--config", str(crime_cfg),
                    "--out", str(tmp_path / "missing")]) == 1


@pytest.fixture(scope="module")
def crime_fit_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("crime")
    cfg = root / "crime.ini"
    cfg.write_text("[study]\nname = crime\n\n"
                   "[run]\nsamples = 4\npretrain_iters = 10\njoint_iters = 5\nwindow = 5\n")
    assert run_cli(["fit", "--config", str(cfg), "--out", str(root)]) == 0
    # the same table under a four-model ensemble that the eight-model fit does not match
    subset = root / "subset.ini"
    subset.write_text("[data]\ncsv = bundled:crime.csv\nresponse = y\n"
                      "log = y,M,Prob\ncenter = y,M,Prob\n\n"
                      "[ensemble]\nkind = linear\npredictors = M,Prob\n")
    return root, cfg, subset


@pytest.mark.parametrize("argv, config", [
    (["coverage", "--levels", "1.0"], "cfg"),
    (["predict", "--levels", "0.5,x"], "cfg"),
    (["predict", "--draws", "0"], "cfg"),
    (["predict"], "subset"),
], ids=["coverage-level-1", "predict-level-x", "predict-draws-0", "checkpoint-mismatch"])
def test_bad_predictive_inputs_are_usage_errors(crime_fit_dir, capsys, argv, config):
    root, cfg, subset = crime_fit_dir
    config = cfg if config == "cfg" else subset
    assert run_cli(argv + ["--config", str(config), "--out", str(root)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["predict", "--config", "{cfg}", "--out", "{root}"],
    ["coverage", "--config", "{cfg}", "--out", "{root}"],
    ["bf", "lin:M", "lin:Prob", "--config", "{cfg}", "--out", "{root}"],
    ["evidence", "--mc-samples", "10", "--config", "{cfg}", "--out", "{root}"],
    ["synth", "--kind", "gp", "--file", "{root}/gp.csv"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_usage_error(crime_fit_dir, capsys, argv):
    root, cfg, _ = crime_fit_dir
    before = sorted(root.iterdir())
    argv = [a.format(root=root, cfg=cfg) for a in argv]
    assert run_cli(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: --seed must be >= 0, got -1")
    assert sorted(root.iterdir()) == before


def _table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return np.array([[float(v) for v in l.split(",")] for l in lines[1:]])


def test_gp_predict_and_coverage_are_sane_and_rerun_identically(tmp_path):
    cfg = tmp_path / "gp.ini"
    cfg.write_text("[study]\nname = gp\ngrid_size = 6\nn_test = 6\n\n"
                   "[run]\nsamples = 4\npretrain_iters = 5\njoint_iters = 5\nwindow = 3\n")
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    assert run_cli(["fit"] + common) == 0
    outputs = []
    for _ in range(2):
        assert run_cli(["predict"] + common + ["--levels", "0.5,0.8,0.95", "--draws", "40"]) == 0
        assert run_cli(["coverage"] + common + ["--draws", "40"]) == 0
        outputs.append([(out / f).read_bytes() for f in ("predictions.csv", "coverage.csv")])
    assert outputs[0] == outputs[1]
    pred = _table(out / "predictions.csv")
    assert pred.shape == (6, 8) and np.isfinite(pred).all()
    lo, hi = pred[:, 2::2], pred[:, 3::2]  # levels increase left to right
    assert (lo <= hi).all()
    assert (lo[:, 1:] <= lo[:, :-1]).all() and (hi[:, 1:] >= hi[:, :-1]).all()
    cov = _table(out / "coverage.csv")[:, 1]
    assert ((0.0 <= cov) & (cov <= 1.0)).all() and (np.diff(cov) >= 0).all()


def test_coverage_artifact(tmp_path, single_model_cfg):
    out = tmp_path / "out"
    run_cli(["fit", "--config", str(single_model_cfg), "--out", str(out)])
    assert run_cli(["coverage", "--config", str(single_model_cfg), "--out", str(out),
                    "--levels", "0.5,0.9", "--draws", "300"]) == 0
    lines = [l for l in (out / "coverage.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "level,coverage"
    vals = dict(tuple(map(float, l.split(","))) for l in lines[1:])
    assert set(vals) == {0.5, 0.9}
    assert all(0.0 <= v <= 1.0 for v in vals.values())


def test_evidence_artifact(tmp_path, crime_cfg):
    out = tmp_path / "out"
    assert run_cli(["evidence", "--config", str(crime_cfg), "--out", str(out)]) == 0
    lines = [l for l in (out / "evidence.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "model,method,log_evidence,se,posterior_prob"
    probs = [float(l.split(",")[4]) for l in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-6)
    assert all(l.split(",")[1] == "zellner" for l in lines[1:])


def test_synth_generates_loadable_datasets(tmp_path):
    gp_csv = tmp_path / "gp.csv"
    heart_csv = tmp_path / "h.csv"
    assert run_cli(["synth", "--kind", "gp", "--file", str(gp_csv),
                    "--grid-size", "6", "--seed", "2"]) == 0
    assert run_cli(["synth", "--kind", "heart", "--file", str(heart_csv)]) == 0
    gp = data_io.load_csv(gp_csv)
    assert set(gp) == {"x1", "x2", "y"} and len(gp["y"]) == 36
    heart = data_io.load_csv(heart_csv)
    assert set(heart) == {"age", "sex", "trestbps", "chol", "thalach", "y"}


def test_usage_errors_exit_one(tmp_path):
    assert run_cli(["fit", "--config", str(tmp_path / "nope.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[study]\nname = unknown-study\n")
    assert run_cli(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    with pytest.raises(SystemExit):  # argparse --version/-h still exits itself
        run_cli(["--version"])
    assert run_cli(["fit"]) == 1 or run_cli(["fit", "--config", str(bad)]) == 1


@pytest.mark.parametrize("line", ["threads = 2", "sampels = 3"])
def test_unknown_run_key_is_usage_error(tmp_path, crime_cfg, capsys, line):
    crime_cfg.write_text(crime_cfg.read_text() + line + "\n")
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)]) == 1
    assert f"error: unknown key '{line.split()[0]}'" in capsys.readouterr().err
    assert not (out / "weights.csv").exists()


@pytest.mark.parametrize("flags", [["--window", "-3"], ["--window", "0"],
                                   ["--pretrain-iters", "-5", "--joint-iters", "-1"],
                                   ["--step-size", "-0.05"], ["--seed", "-1"]])
def test_out_of_range_run_settings_are_usage_errors(tmp_path, crime_cfg, capsys, flags):
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "weights.csv").exists()


@pytest.fixture(scope="module")
def logistic_fit_dir(tmp_path_factory):
    # two logistic models, whose proper priors admit an MC evidence
    root = tmp_path_factory.mktemp("logistic")
    r = np.random.default_rng(1)
    data_io.write_csv(root / "d.csv", {"y": (r.random(30) < 0.5).astype(float),
                                       "a": r.normal(size=30)})
    cfg = root / "logistic.ini"
    cfg.write_text(f"[data]\ncsv = {root / 'd.csv'}\nresponse = y\ncenter = a\n\n"
                   "[ensemble]\nkind = logistic\npredictors = a\n\n"
                   "[run]\nsamples = 4\npretrain_iters = 5\njoint_iters = 5\nwindow = 5\n")
    assert run_cli(["fit", "--config", str(cfg), "--out", str(root)]) == 0
    return root, cfg


@pytest.mark.parametrize("argv", [
    ["evidence", "--mc-samples", "0"],
    ["evidence", "--mc-samples", "-5"],
    ["evidence", "--mc-samples", "1"],
    ["bf", "logit:intercept", "logit:a", "--mc-samples", "-1"],
], ids=["evidence-0", "evidence-negative", "evidence-1", "bf-negative"])
def test_bad_mc_sample_counts_are_usage_errors(logistic_fit_dir, capsys, argv):
    root, cfg = logistic_fit_dir
    assert run_cli(argv + ["--config", str(cfg), "--out", str(root)]) == 1
    assert capsys.readouterr().err.startswith("error: MC evidence needs at least 2 samples")
    if argv[0] == "bf":  # 0 still means "no oracle"
        assert run_cli(argv[:-1] + ["0", "--config", str(cfg), "--out", str(root)]) == 0
        assert "oracle" not in capsys.readouterr().out


@pytest.mark.parametrize("section", ["study", "data"])
@pytest.mark.parametrize("fraction", ["0", "1.5", "0.01"])
def test_out_of_range_train_fraction_is_usage_error(tmp_path, capsys, section, fraction):
    cfg = tmp_path / "split.ini"
    if section == "study":
        cfg.write_text(f"[study]\nname = crime\ntrain_fraction = {fraction}\n")
    else:
        cfg.write_text(f"[data]\ncsv = bundled:crime.csv\nresponse = y\n"
                       f"train_fraction = {fraction}\n\n[ensemble]\nkind = linear\n"
                       "predictors = M\n")
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(cfg), "--out", str(out)]) == 1
    want = ("train_fraction 0.01 leaves no training rows out of 47" if fraction == "0.01"
            else f"train_fraction must be in (0, 1], got {float(fraction)}")
    assert capsys.readouterr().err.startswith(f"error: {want}")
    assert not (out / "weights.csv").exists()


@pytest.mark.parametrize("keys", [
    "grid_size = 5\nn_test = 25", "grid_size = 5\nn_test = 100", "grid_size = 5\nn_test = 24",
    "grid_size = 0", "grid_size = 5\nn_test = -3",
], ids=["none-left", "more-than-grid", "one-left", "empty-grid", "negative"])
def test_gp_study_needs_two_training_rows(tmp_path, capsys, keys):
    cfg = tmp_path / "gp.ini"
    cfg.write_text(f"[study]\nname = gp\n{keys}\n")
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: gp study needs 0 <= n_test <= ")
    assert not (out / "weights.csv").exists()


def test_short_csv_row_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("y,a\n1.0,2.0\n3.0\n")
    cfg = tmp_path / "short.ini"
    cfg.write_text(f"[data]\ncsv = {csv}\nresponse = y\n\n[ensemble]\nkind = linear\n"
                   "predictors = a\n")
    assert run_cli(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "row 3, column 'a'" in capsys.readouterr().err


def test_numerical_failures_exit_two(tmp_path, crime_cfg, monkeypatch):
    def boom(cfg, models, progress=None):
        raise core.IterationError("synthetic blow-up")

    monkeypatch.setattr(core, "run", boom)
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(tmp_path / "o")]) == 2


def test_checkpoint_parse_round_trip(tmp_path, crime_cfg):
    out = tmp_path / "out"
    run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)])
    meta, q, states = cli.parse_checkpoint((out / "checkpoint.txt").read_text())
    assert len(q) == 8
    assert sum(q) == pytest.approx(1.0, abs=1e-9)
    assert len(states) == 8
    assert all(s.dim >= 2 for s in states.values())
    assert meta["phase"] == "joint"


def test_svg_emission(tmp_path, crime_cfg):
    pytest.importorskip("matplotlib")
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(out), "--svg"]) == 0
    svg = (out / "elbo_trace.svg").read_bytes()
    assert b"<svg" in svg[:500]
