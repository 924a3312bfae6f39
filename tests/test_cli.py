"""Front-end behavior: artifact layout and headers, reproducibility,
configuration precedence, and the exit-code contract."""

import dataclasses
import importlib.util
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vbma import cli
from vbma import core
from vbma import data as data_io
from vbma import families
from vbma import studies
from vbma.models import GPModel


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
    data_io.write_csv(csv, ["y"], zip(rng.normal(5.0, 1.0, 25)))
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
        assert f" cpus={os.cpu_count()}" in text.splitlines()[0]
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


@pytest.mark.parametrize("argv, artifact", [
    (["predict", "--levels", "0.5", "--draws", "30"], "predictions.csv"),
    (["coverage", "--levels", "0.3,0.6", "--draws", "7"], "coverage.csv"),
    (["evidence", "--mc-samples", "20"], "evidence.csv"),
    (["bf", "logit:intercept", "logit:a", "--mc-samples", "20"], "bf.csv"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_config_and_env_seed_draw_as_the_seed_flag(logistic_fit_dir, tmp_path, monkeypatch,
                                                   argv, artifact):
    # the resolved seed, not only the flag, drives the draws: a config or
    # environment seed of 5 writes the bytes of --seed 5, the default other draws
    root, cfg = logistic_fit_dir
    seeded = tmp_path / "seeded.ini"
    seeded.write_text(cfg.read_text() + "seed = 5\n")  # [run] is the last section
    monkeypatch.delenv("VBMA_SEED", raising=False)
    outputs = {}
    for how, config, flags, env in (("flag", cfg, ["--seed", "5"], None),
                                    ("config", seeded, [], None),
                                    ("env", cfg, [], "5"),
                                    ("default", cfg, [], None)):
        out = tmp_path / how
        out.mkdir()
        shutil.copy(root / "checkpoint.txt", out)
        if env is not None:
            monkeypatch.setenv("VBMA_SEED", env)
        assert run_cli(argv + ["--config", str(config), "--out", str(out)] + flags) == 0
        monkeypatch.delenv("VBMA_SEED", raising=False)
        outputs[how] = (out / artifact).read_text()
    assert outputs["config"] == outputs["flag"] == outputs["env"]
    body = lambda text: [line for line in text.splitlines() if not line.startswith("#")]
    assert body(outputs["default"]) != body(outputs["flag"])


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
    assert "oracle=" in printed and "log_oracle=" in printed
    lines = (out / "bf.csv").read_text().splitlines()
    assert lines[-2] == "model_i,model_j,bf_vbma,bf_oracle,log_bf_oracle"
    bf, log_bf = map(float, lines[-1].split(",")[3:])
    assert bf == pytest.approx(np.exp(log_bf), rel=1e-9)


def test_bf_oracle_beyond_float_range_keeps_its_log(tmp_path, capsys):
    # MC log evidences about 1030 nats apart: the ratio overflows to inf
    # without a warning, and the log Bayes factor is written as it is
    cfg = tmp_path / "heart.ini"
    cfg.write_text("[data]\ncsv = bundled:heart.csv\nresponse = y\ncenter = age,chol\n\n"
                   "[ensemble]\nkind = logistic\npredictors = age,chol\n\n"
                   "[run]\nsamples = 2\npretrain_iters = 3\njoint_iters = 2\nwindow = 2\n")
    common = ["--config", str(cfg), "--out", str(tmp_path)]
    assert run_cli(["fit"] + common) == 0
    assert run_cli(["bf", "logit:age", "logit:chol", "--mc-samples", "200"] + common) == 0
    assert "oracle=inf log_oracle=" in capsys.readouterr().out
    bf, log_bf = (tmp_path / "bf.csv").read_text().splitlines()[-1].split(",")[3:]
    assert run_cli(["evidence", "--mc-samples", "200"] + common) == 0
    ev = {l.split(",")[0]: float(l.split(",")[2])
          for l in (tmp_path / "evidence.csv").read_text().splitlines()[2:]}
    assert ev["logit:age"] - ev["logit:chol"] > 709
    assert bf == "inf" and float(log_bf) == pytest.approx(ev["logit:age"] - ev["logit:chol"],
                                                          rel=1e-8)


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
    # one lo/hi label, or one coverage row, per level
    (["predict", "--levels", "0.5,0.5"], "cfg"),
    (["coverage", "--levels", "0.5,0.5"], "cfg"),
    (["predict", "--levels", "0.1,0.1000001"], "cfg"),
    # the models' names and layouts match the fit's, their settings do not
    (["predict"], "study-g"),
    (["coverage"], "ensemble-g"),
], ids=["coverage-level-1", "predict-level-x", "predict-draws-0", "checkpoint-mismatch",
        "predict-level-twice", "coverage-level-twice", "predict-same-label",
        "study-setting-differs", "ensemble-setting-differs"])
def test_bad_predictive_inputs_are_usage_errors(crime_fit_dir, capsys, argv, config):
    root, cfg, subset = crime_fit_dir
    out = root
    if config == "study-g":  # the crime study at g = 3, against its fit at g = n
        config = root / "study-g.ini"
        config.write_text(cfg.read_text().replace("name = crime\n", "name = crime\ng = 3\n"))
    elif config == "ensemble-g":  # the subset ensemble at g = 3, against its fit at g = n
        out = root / "subset-fit"
        assert run_cli(["fit", "--config", str(subset), "--out", str(out), "--samples", "2",
                        "--pretrain-iters", "2", "--joint-iters", "0", "--window", "0"]) == 0
        config = root / "ensemble-g.ini"
        config.write_text(subset.read_text() + "g = 3\n")  # [ensemble] is the last section
    else:
        config = cfg if config == "cfg" else subset
    assert run_cli(argv + ["--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if config.stem.endswith("-g"):
        assert f"{out / 'checkpoint.txt'}: fitted on models=" in err
        assert not any(out.glob("predictions.csv")) and not any(out.glob("coverage.csv"))


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


def test_artifact_header_records_the_machine(tmp_path, crime_cfg, monkeypatch):
    # the CPU count always, the BLAS thread setting when there is one; the
    # configuration hash does not change with them
    out = tmp_path / "out"
    heads = []
    for threads in (None, "3"):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        if threads is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert run_cli(["evidence", "--config", str(crime_cfg), "--out", str(out)]) == 0
        heads.append((out / "evidence.csv").read_text().splitlines()[0])
    machine = f" cpus={os.cpu_count()}"
    assert heads[0].endswith(machine)
    assert heads[1] == heads[0] + " OPENBLAS_NUM_THREADS=3"


@pytest.mark.parametrize("grid_size, n_test, path", [
    (6, 6, "lattice 5x6"),
    (6, 3, "lattice 6x6 with 3 holes"),
])
def test_weights_name_each_gp_models_density_path(tmp_path, grid_size, n_test, path):
    cfg = tmp_path / "gp.ini"
    cfg.write_text(f"[study]\nname = gp\ngrid_size = {grid_size}\nn_test = {n_test}\n\n"
                   "[run]\nsamples = 2\npretrain_iters = 2\njoint_iters = 1\nwindow = 1\n")
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "weights.csv").read_text().splitlines()
    assert [l for l in lines if " path=" in l] == [
        f"# gp:free-mean path={path}", f"# gp:offset-mean path={path}"]
    assert [l.split(",")[0] for l in lines if not l.startswith("#")] == [
        "model", "gp:free-mean", "gp:offset-mean"]


def test_hopeless_draw_in_a_block_with_holes_exits_two(tmp_path, monkeypatch, capsys):
    # the third prior draw of the MC evidence has eta and sigma underflowing:
    # the block of a GP on a lattice with holes raises ConditioningError, a
    # numerical failure
    cfg = tmp_path / "gp.ini"
    cfg.write_text("[study]\nname = gp\ngrid_size = 6\nn_test = 3\n")
    sample_prior, blocks = GPModel.sample_prior, []

    def one_hopeless(self, rng, n):
        thetas = sample_prior(self, rng, n)
        blocks.append(n)
        thetas[2, -4:] = [1e-161, 3.0, 3.0, 1e-170]
        return thetas

    monkeypatch.setattr(GPModel, "sample_prior", one_hopeless)
    argv = ["evidence", "--config", str(cfg), "--out", str(tmp_path / "o"), "--mc-samples", "8"]
    assert run_cli(argv) == 2
    assert blocks == [8]  # one block
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: kernel matrix not positive definite")
    assert "eta=1e-161" in err


@pytest.mark.parametrize("n_test, path", [(6, "lattice 5x6"), (3, "lattice 6x6 with 3 holes")])
def test_hopeless_predictive_draw_exits_two(tmp_path, monkeypatch, capsys, n_test, path):
    # one parameter draw per model has eta and sigma underflowing, so the
    # full lattice has eigenvalues d <= 0: the stacked prediction raises
    # LinAlgError, a numerical failure, as the fit and the dense path do
    cfg = tmp_path / "gp.ini"
    cfg.write_text(f"[study]\nname = gp\ngrid_size = 6\nn_test = {n_test}\n\n"
                   "[run]\nsamples = 2\npretrain_iters = 2\njoint_iters = 1\nwindow = 1\n")
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    assert run_cli(["fit"] + common) == 0
    assert f"# gp:free-mean path={path}" in (out / "weights.csv").read_text()
    sample = families.sample

    def one_hopeless(state, eps):
        thetas = sample(state, eps)
        thetas[len(thetas) // 2, -4:] = [1e-161, 3.0, 3.0, 1e-170]
        return thetas

    monkeypatch.setattr(families, "sample", one_hopeless)
    for cmd in ("predict", "coverage"):
        capsys.readouterr()
        assert run_cli([cmd] + common + ["--draws", "20"]) == 2, cmd
        assert capsys.readouterr().err.startswith("numerical failure: "), cmd


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


def test_main_runs_the_subcommand_it_finds_at_call_time(tmp_path, crime_cfg, monkeypatch):
    # the parser is built once per process, and main looks the subcommand
    # up by name on each call, so a wrapper installed after a first call (as
    # a tracer does) is what the next call runs
    assert cli.build_parser() is cli.build_parser()
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(tmp_path)]) == 0
    calls = []

    def wrapper(args):
        calls.append(args.command)
        return 0

    monkeypatch.setattr(cli, "cmd_predict", wrapper)
    assert run_cli(["predict", "--config", str(crime_cfg), "--out", str(tmp_path)]) == 0
    assert calls == ["predict"] and not (tmp_path / "predictions.csv").exists()


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
    # every line, comments included, ends in a bare newline
    assert b"\r" not in gp_csv.read_bytes() + heart_csv.read_bytes()


def test_synth_gp_writes_every_lattice_row(tmp_path):
    # a lattice smaller than the library's default held-out block: every
    # row is written, as the surface drawn before any split
    gp_csv, want_csv = tmp_path / "gp.csv", tmp_path / "want.csv"
    assert run_cli(["synth", "--kind", "gp", "--file", str(gp_csv), "--grid-size", "5"]) == 0
    ds = data_io.synth_gp_dataset(grid_size=5, seed=0, n_test=25)
    data_io.write_csv(want_csv, ["x1", "x2", "y"],
                      zip(*(ds.columns[c] for c in ("x1", "x2", "y"))))
    rows = [line for line in gp_csv.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 26 and rows == want_csv.read_text().splitlines()


@pytest.mark.parametrize("size", ["0", "-3"])
def test_synth_gp_rejects_an_empty_lattice(tmp_path, capsys, size):
    gp_csv = tmp_path / "gp.csv"
    assert run_cli(["synth", "--kind", "gp", "--file", str(gp_csv), "--grid-size", size]) == 1
    assert capsys.readouterr().err == f"error: grid_size must be >= 1, got {size}\n"
    assert not gp_csv.exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli(["fit", "--config", str(tmp_path / "nope.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[study]\nname = unknown-study\n")
    assert run_cli(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    for text in ("[study]\nname = crime\n[study]\ng = 3\n",  # a section twice
                 "[data]\ncsv = a%b.csv\n",  # not a % interpolation
                 "[study]\nname = crime\n[run]\noptimizer = sgd\n"):
        bad.write_text(text)
        assert run_cli(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    # an [ensemble] with no kind, or an empty one
    capsys.readouterr()
    for kind in ("", "kind =\n"):
        bad.write_text("[data]\ncsv = bundled:crime.csv\nresponse = y\n"
                       f"[ensemble]\npredictors = M\n{kind}")
        assert run_cli(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: [ensemble] kind is required (linear or logistic)\n"
    # a number from outside the program that no model takes: the g-prior's
    # g, a logistic prior sd, the GP offset, or a non-finite table cell
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("M,y\n1.0,2.0\n2.0,nan\n3.0,1.0\n")
    for text, name in (("[study]\nname = crime\ng = 0\n", "g"),
                       ("[study]\nname = crime\ng = -1\n", "g"),
                       ("[study]\nname = crime\ng = nan\n", "g"),
                       ("[study]\nname = heart\nprior_sd = 0\n", "prior_sd"),
                       ("[study]\nname = heart\nprior_sd = -2\n", "prior_sd"),
                       ("[study]\nname = gp\noffset_sds = nan\n", "offset_sds"),
                       ("[study]\nname = gp\noffset_sds = inf\n", "offset_sds"),
                       ("[data]\ncsv = bundled:crime.csv\nresponse = y\n"
                        "[ensemble]\nkind = linear\npredictors = M\ng = 0\n", "g"),
                       ("[data]\ncsv = bundled:heart.csv\nresponse = y\n"
                        "[ensemble]\nkind = logistic\npredictors = sex\nprior_sd = nan\n",
                        "prior_sd"),
                       (f"[data]\ncsv = {nan_csv}\nresponse = y\n"
                        "[ensemble]\nkind = linear\npredictors = M\n", "column 'y'")):
        bad.write_text(text)
        assert run_cli(["fit", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err, text
    with pytest.raises(SystemExit):  # argparse --version/-h still exits itself
        run_cli(["--version"])
    assert run_cli(["fit"]) == 1 or run_cli(["fit", "--config", str(bad)]) == 1


@pytest.mark.parametrize("section, line, known", [
    ("run", "threads = 2", "samples"), ("run", "sampels = 3", "samples"),
    # a typo that would otherwise fit on the default lattice
    ("study", "grid_sise = 30", "name, train_fraction, split_seed, g, prior_sd, grid_size"),
    ("data", "trian_fraction = 0.5", "csv, train_fraction"),
    ("ensemble", "prior = 3", "kind, predictors, g, prior_sd"),
], ids=["threads = 2", "sampels = 3", "study", "data", "ensemble"])
def test_unknown_config_key_is_usage_error(tmp_path, crime_cfg, single_model_cfg, capsys,
                                           section, line, known):
    cfg = crime_cfg if section in ("run", "study") else single_model_cfg
    cfg.write_text(cfg.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: unknown key '{line.split()[0]}' in [{section}] (known: {known}" in err
    assert not (out / "weights.csv").exists()


@pytest.mark.parametrize("section, line", [
    ("run", "step_size = x"), ("study", "g = x"), ("data", "split_seed = 1.5"), ("ensemble", "g = x"),
], ids=["run", "study", "data", "ensemble"])
def test_bad_config_value_is_usage_error(tmp_path, crime_cfg, single_model_cfg, capsys,
                                         section, line):
    cfg = crime_cfg if section in ("run", "study") else single_model_cfg
    cfg.write_text(cfg.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    assert run_cli(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    key, _, value = line.partition(" = ")
    assert capsys.readouterr().err == f"error: bad value for '{key}': '{value}'\n"


def test_run_keys_are_the_config_fields():
    # the README's [run] grammar: one key per field of core.VbmaConfig
    assert ({f.name for f in dataclasses.fields(core.VbmaConfig)}
            == {param for param, _ in cli.RUN_KEYS.values()})


@pytest.mark.parametrize("run", [{}, dict.fromkeys(cli.RUN_KEYS, "")], ids=["empty", "blank"])
def test_unset_run_keys_take_the_library_defaults(run):
    assert cli.vbma_config({"run": run}) == core.VbmaConfig()


@pytest.mark.parametrize("name", ["crime", "heart", "gp"])
def test_study_name_alone_builds_the_library_study(name):
    ds, models = cli.build_ensemble({"study": {"name": name}, "data": {}, "ensemble": {}})
    want_ds, want = getattr(studies, f"{name}_study")()
    assert [m.name for m in models] == [m.name for m in want]
    assert ds.train_mask.tobytes() == want_ds.train_mask.tobytes()
    assert list(ds.columns) == list(want_ds.columns)
    assert all(ds.columns[c].tobytes() == want_ds.columns[c].tobytes() for c in ds.columns)


@pytest.mark.parametrize("flags", [["--window", "-3"], ["--window", "0"],
                                   ["--pretrain-iters", "-5", "--joint-iters", "-1"],
                                   ["--step-size", "-0.05"], ["--step-size", "inf"],
                                   ["--seed", "-1"]])
def test_out_of_range_run_settings_are_usage_errors(tmp_path, crime_cfg, capsys, flags):
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "weights.csv").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--kind", "heart", "--file", "{tmp}/nodir/x.csv"],  # FileNotFoundError
    ["fit", "--config", "{cfg}", "--out", "{cfg}"],  # FileExistsError: --out is a file
])
def test_a_failing_artifact_write_is_a_usage_error(tmp_path, crime_cfg, capsys, argv):
    argv = [a.format(tmp=tmp_path, cfg=crime_cfg) for a in argv]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def logistic_fit_dir(tmp_path_factory):
    # two logistic models, whose proper priors admit an MC evidence
    root = tmp_path_factory.mktemp("logistic")
    r = np.random.default_rng(1)
    data_io.write_csv(root / "d.csv", ["y", "a"],
                      zip((r.random(30) < 0.5).astype(float), r.normal(size=30)))
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


def test_repeated_csv_column_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("x,x,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
    cfg = tmp_path / "repeated.ini"
    cfg.write_text(f"[data]\ncsv = {csv}\nresponse = y\n\n[ensemble]\nkind = linear\n"
                   "predictors = x\n")
    assert run_cli(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'x'" in err


@pytest.mark.parametrize("key, value, name", [
    ("response", "yy", "yy"), ("log", "y,Mm", "Mm"), ("center", "y,Mm", "Mm"),
    ("predictors", "M,Nope", "Nope"), ("predictors", "M,y", "y"), ("predictors", "M,M", "M"),
], ids=["response", "log", "center", "predictor-unknown", "predictor-response",
        "predictor-twice"])
def test_config_column_names_must_be_columns(tmp_path, capsys, key, value, name):
    settings = {"response": "y", "log": "y,M", "center": "y,M", "predictors": "M", key: value}
    cfg = tmp_path / "cols.ini"
    cfg.write_text("[data]\ncsv = bundled:crime.csv\n"
                   + "".join(f"{k} = {settings[k]}\n" for k in ("response", "log", "center"))
                   + f"\n[ensemble]\nkind = linear\npredictors = {settings['predictors']}\n\n"
                   "[run]\nsamples = 2\npretrain_iters = 2\njoint_iters = 0\nwindow = 0\n")
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(name) in err
    assert not (out / "weights.csv").exists()


@pytest.fixture()
def checkpoint_copy(crime_fit_dir, tmp_path):
    """The crime fit's checkpoint in a directory of its own, and its config."""
    root, cfg, _ = crime_fit_dir
    (tmp_path / "checkpoint.txt").write_text((root / "checkpoint.txt").read_text())
    return tmp_path, cfg


def _edit_line(text, starts, edit):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(starts))
    lines[i:i + 1] = edit(lines[i])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("starts, edit", [
    ("phi ", lambda line: [line.rsplit(" ", 1)[0]]),
    ("q ", lambda line: [line + " 0.5"]),
    ("q ", lambda line: ["q " + " ".join(["0.5"] * 8)]),
    # within 1e-8 of a distribution, but Multinomial draws take no weight above 1
    ("q ", lambda line: ["q 1.000000005" + " 0.0" * 7]),
    ("phi ", lambda line: [line.replace("lognormal", "normal")]),
    ("beta0 ", lambda line: []),
    ("beta0 ", lambda line: ["beta0 normal nan " + line.split()[3]]),
], ids=["truncated-line", "q-extra-entry", "q-not-summing-to-1", "q-entry-above-1",
        "phi-tag-normal", "deleted-coordinate", "nan-location"])
def test_checkpoint_that_does_not_match_the_models_is_usage_error(checkpoint_copy, capsys,
                                                                  starts, edit):
    out, cfg = checkpoint_copy
    ckpt = out / "checkpoint.txt"
    ckpt.write_text(_edit_line(ckpt.read_text(), starts, edit))
    assert run_cli(["predict", "--config", str(cfg), "--out", str(out), "--draws", "20"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: ")
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("bundled", [False, True], ids=["path", "bundled"])
def test_a_table_rewritten_after_the_fit_is_a_checkpoint_mismatch(tmp_path, monkeypatch, capsys,
                                                                  bundled):
    # the settings are the fit's, the rows of the table they name are not
    csv, r = tmp_path / "d.csv", np.random.default_rng(2)
    monkeypatch.setattr(data_io, "bundled_path", lambda name: tmp_path / name)
    data_io.write_csv(csv, ["y", "a"], zip(r.normal(size=5), r.normal(size=5)))
    cfg = tmp_path / "table.ini"
    cfg.write_text(f"[data]\ncsv = {'bundled:d.csv' if bundled else csv}\nresponse = y\n\n"
                   "[ensemble]\nkind = linear\npredictors = a\n\n"
                   "[run]\nsamples = 2\npretrain_iters = 2\njoint_iters = 0\nwindow = 0\n")
    common = ["--config", str(cfg), "--out", str(tmp_path)]
    assert run_cli(["fit"] + common) == 0
    data_io.write_csv(csv, ["y", "a"], zip(r.normal(size=6), r.normal(size=6)))
    assert run_cli(["predict"] + common) == 1
    assert f"{tmp_path / 'checkpoint.txt'}: fitted on models=" in capsys.readouterr().err
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("study, want", [
    ({"name": "crime"}, "72f036c9b74e"),
    ({"name": "gp", "grid_size": "18", "n_test": "24"}, "04d8dc4840ce"),
])
def test_a_study_configs_models_line_hashes_its_settings_alone(study, want):
    # hashing a [data] table's bytes leaves the checkpoints of [study] fits valid
    settings = {"study": study, "data": {}, "ensemble": {}, "run": {"seed": "4"}}
    assert cli.models_hash(settings) == want


def test_numerical_failures_exit_two(tmp_path, crime_cfg, monkeypatch):
    def boom(cfg, models, progress=None):
        raise core.IterationError("synthetic blow-up")

    monkeypatch.setattr(core, "run", boom)
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(tmp_path / "o")]) == 2


def test_checkpoint_parse_round_trip(tmp_path, crime_cfg):
    # the written checkpoint, header comments and all, reads back as the
    # fitted state bit for bit
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(out)]) == 0
    settings = cli.resolve_settings(cli.build_parser().parse_args(
        ["fit", "--config", str(crime_cfg)]))
    _, models = cli.build_ensemble(settings)
    state = core.run(cli.vbma_config(settings), models)
    q, states = core.parse_checkpoint((out / "checkpoint.txt").read_text())
    assert q.tobytes() == state.q.tobytes()
    assert list(states) == [m.name for m in models]
    for m, (names, tags, got), want in zip(models, states.values(), state.variational):
        assert (names, tags) == (m.layout.names(), m.layout.tags())
        assert got.lognormal_mask.tobytes() == want.lognormal_mask.tobytes()
        assert got.mu.tobytes() == want.mu.tobytes()
        assert got.raw_scale.tobytes() == want.raw_scale.tobytes()


def test_svg_emission(tmp_path, crime_cfg):
    pytest.importorskip("matplotlib")
    out = tmp_path / "out"
    assert run_cli(["fit", "--config", str(crime_cfg), "--out", str(out), "--svg"]) == 0
    assert run_cli(["coverage", "--config", str(crime_cfg), "--out", str(out), "--svg",
                    "--draws", "50"]) == 0
    for name in ("elbo_trace.svg", "coverage.svg"):
        assert b"<svg" in (out / name).read_bytes()[:500]


# -- the allocator thresholds main sets ---------------------------------------

ON_GLIBC = platform.libc_ver()[0] == "glibc"


@pytest.fixture()
def mallopt(monkeypatch):
    """The calls main makes to ``mallopt``, recorded, on a C library that
    reports glibc and in an environment that sets no malloc threshold."""
    calls = []
    monkeypatch.setattr(cli, "_mallopt", lambda: lambda param, value: calls.append(
        (param, value)) or 1)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    for var in (*cli.MALLOC_ENV, "GLIBC_TUNABLES"):
        monkeypatch.delenv(var, raising=False)
    cli._keep_freed_memory.cache_clear()
    yield calls
    cli._keep_freed_memory.cache_clear()


def _synth(tmp_path):
    return run_cli(["synth", "--kind", "heart", "--file", str(tmp_path / "h.csv")])


def test_main_sets_both_malloc_thresholds_once(mallopt, tmp_path):
    assert _synth(tmp_path) == 0 and _synth(tmp_path) == 0
    assert mallopt == [(cli.M_MMAP_THRESHOLD, 33554432), (cli.M_TRIM_THRESHOLD, 134217728)]


@pytest.mark.parametrize("var, value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"), ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.trim_threshold=131072"),
])
def test_main_keeps_the_users_malloc_settings(mallopt, tmp_path, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    assert _synth(tmp_path) == 0
    assert mallopt == []


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_main_leaves_a_c_library_other_than_glibc_alone(mallopt, tmp_path, monkeypatch, error):
    def confstr(name):
        raise error(name)

    monkeypatch.setattr(os, "confstr", confstr)
    assert _synth(tmp_path) == 0
    assert mallopt == []


def test_a_rejected_mmap_threshold_leaves_the_trim_threshold_alone(mallopt, tmp_path,
                                                                    monkeypatch):
    monkeypatch.setattr(cli, "_mallopt", lambda: lambda param, value: mallopt.append(
        (param, value)) and 0)
    assert _synth(tmp_path) == 0
    assert mallopt == [(cli.M_MMAP_THRESHOLD, 33554432)]


def _child(script, *args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in (*cli.MALLOC_ENV, "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# counts the lookups of mallopt, which any call to it needs, through ctypes'
# audit event; the second count shows that the hook sees one
IMPORT_IN_CHILD = """
import sys
lookups = []
sys.addaudithook(lambda event, args: event == "ctypes.dlsym" and "mallopt" in args
                 and lookups.append(args))
import vbma, vbma.cli
print(len(lookups))
vbma.cli._mallopt()
print(len(lookups))
"""


@pytest.mark.skipif(not ON_GLIBC, reason="looks mallopt up in glibc")
def test_importing_vbma_leaves_the_allocator_alone():
    assert _child(IMPORT_IN_CHILD).split() == ["0", "1"]


FITS_IN_CHILD = """
import resource, sys
from vbma import cli
config, root = sys.argv[1:]
for i in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["fit", "--config", config, "--out", f"{root}/{i}", "--samples", "10",
                     "--pretrain-iters", "20", "--joint-iters", "10", "--window", "10"]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(not ON_GLIBC or importlib.util.find_spec("resource") is None,
                    reason="counts minor faults under glibc's allocator")
@pytest.mark.parametrize("study", ["name = heart", "name = gp\ngrid_size = 18\nn_test = 24"],
                         ids=["heart", "holed-gp"])
def test_a_third_cli_fit_in_one_process_faults_no_pages_in(tmp_path, study):
    # the stacked heart pass and the GP pair on a 17 x 18 lattice with 6 holes
    # free and reallocate their temporaries every iteration: at glibc's
    # defaults a fit took 21 780 and 7 650 minor faults
    config = tmp_path / "study.ini"
    config.write_text(f"[study]\n{study}\n")
    faults = int(_child(FITS_IN_CHILD, str(config), str(tmp_path)).split()[-1])
    assert faults < 500
    for name in ("weights.csv", "elbo_trace.csv", "checkpoint.txt"):
        first = (tmp_path / "0" / name).read_bytes()
        assert all((tmp_path / f"{i}" / name).read_bytes() == first for i in (1, 2))
