"""Batch command-line front end.

Orchestrates ensemble construction, the variational averaging run, evidence
baselines, Bayes factors, prediction, coverage evaluation, and synthetic
dataset generation.  Every artifact is a CSV with a comment header recording
the package version, the seed, a hash of the resolved configuration, the
CPU count and any ``OPENBLAS_NUM_THREADS``, so a rerun with identical
settings on the same machine is byte-identical.  ``weights.csv`` also names
the density path of each GP model (``GPModel.path``).

Configuration is a flat INI file (``key = value`` under named sections; see
the README for the grammar).  Values resolve in priority order: command-line
flag, then ``VBMA_``-prefixed environment variable, then config file, then
built-in default.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import core, studies
from . import data as data_io
from . import evidence as evidence_mod
from . import metrics
from .families import VariationalState
from .models import GPModel, linreg_subset_ensemble, logistic_subset_ensemble
from .optimizers import NonFiniteGradientError

ENV_PREFIX = "VBMA_"

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

_RUN_KEYS = (
    "samples", "pretrain_iters", "joint_iters", "window", "seed",
    "optimizer", "step_size",
)


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


# -- configuration resolution -------------------------------------------------


def _read_ini(path):
    parser = configparser.ConfigParser()
    found = parser.read(path)
    if not found:
        raise CliError(f"config file not found: {path}")
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _env_overrides():
    out = {}
    for key in _RUN_KEYS:
        val = os.environ.get(ENV_PREFIX + key.upper())
        if val is not None:
            out[key] = val
    return out


def resolve_settings(args):
    """Merge config file, environment, and flags into one flat dict."""
    sections = _read_ini(args.config) if args.config else {}
    run = dict(sections.get("run", {}))
    unknown = [key for key in run if key not in _RUN_KEYS]
    if unknown:
        raise CliError(f"unknown key {', '.join(map(repr, unknown))} in [run] "
                       f"(known: {', '.join(_RUN_KEYS)})")
    run.update(_env_overrides())
    for key in _RUN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            run[key] = flag
    settings = {
        "study": sections.get("study", {}),
        "data": sections.get("data", {}),
        "ensemble": sections.get("ensemble", {}),
        "run": run,
    }
    return settings


def _get(section, key, default=None, cast=str):
    val = section.get(key)
    if val is None or val == "":
        return default
    try:
        return cast(val)
    except (TypeError, ValueError):
        raise CliError(f"bad value for '{key}': {val!r}")


def vbma_config(settings):
    run = settings["run"]
    try:
        return core.VbmaConfig(
            n_samples=_get(run, "samples", 10, int),
            pretrain_iters=_get(run, "pretrain_iters", 500, int),
            joint_iters=_get(run, "joint_iters", 200, int),
            window=_get(run, "window", 100, int),
            seed=_get(run, "seed", 0, int),
            optimizer=_get(run, "optimizer", "adam"),
            step_size=_get(run, "step_size", None, float),
        )
    except ValueError as err:
        raise CliError(str(err))


def config_hash(settings):
    """Short stable digest of the resolved settings (for artifact headers)."""
    parts = []
    for section in sorted(settings):
        for key in sorted(settings[section]):
            parts.append(f"{section}.{key}={settings[section][key]}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return digest[:12]


# -- ensemble construction ----------------------------------------------------


def build_ensemble(settings):
    """(dataset, models) from the [study] shortcut or [data]/[ensemble]."""
    study = settings["study"]
    name = study.get("name")
    if name:
        try:
            if name == "crime":
                return studies.crime_study(
                    train_fraction=_get(study, "train_fraction", 1.0, float),
                    split_seed=_get(study, "split_seed", 0, int),
                    g=_get(study, "g", None, float),
                )
            if name == "heart":
                return studies.heart_study(prior_sd=_get(study, "prior_sd", 10.0, float))
            if name == "gp":
                return studies.gp_study(
                    grid_size=_get(study, "grid_size", 20, int),
                    n_test=_get(study, "n_test", 100, int),
                    seed=_get(study, "data_seed", 0, int),
                    offset_sds=_get(study, "offset_sds", 2.0, float),
                )
        except ValueError as err:  # a study setting out of range
            raise CliError(str(err))
        raise CliError(f"unknown study '{name}' (expected crime, heart, or gp)")

    data = settings["data"]
    ens = settings["ensemble"]
    csv = data.get("csv")
    if not csv:
        raise CliError("config needs either [study] name or [data] csv")
    path = data_io.bundled_path(csv[8:]) if csv.startswith("bundled:") else csv
    response = _get(data, "response", None)
    if response is None:
        raise CliError("[data] response is required")
    split = lambda s: tuple(x.strip() for x in s.split(",") if x.strip())
    log_cols = split(data.get("log", ""))
    center_cols = split(data.get("center", ""))
    try:
        cols = data_io.load_csv(path)
        n = len(next(iter(cols.values())))
        mask = data_io.split_mask(
            n, _get(data, "train_fraction", 1.0, float), _get(data, "split_seed", 0, int)
        )
        ds = data_io.prepare(cols, response, log_columns=log_cols,
                             center_columns=center_cols, train_mask=mask)
    except (OSError, data_io.IngestionError, ValueError) as err:
        raise CliError(str(err))
    kind = _get(ens, "kind", None)
    predictors = split(ens.get("predictors", ""))
    bad = [p for i, p in enumerate(predictors) if p not in ds.inputs or p in predictors[:i]]
    if bad:
        raise CliError(f"[ensemble] predictor {bad[0]!r} is repeated or not an input column "
                       f"(inputs: {', '.join(ds.inputs)})")
    if kind == "linear":
        return ds, linreg_subset_ensemble(ds, predictors, g=_get(ens, "g", None, float))
    if kind == "logistic":
        return ds, logistic_subset_ensemble(
            ds, predictors, prior_sd=_get(ens, "prior_sd", 10.0, float)
        )
    raise CliError(f"unknown ensemble kind '{kind}' (expected linear or logistic)")


# -- artifact plumbing --------------------------------------------------------


def _header(settings):
    cfg = vbma_config(settings)
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    blas = "" if threads is None else f" OPENBLAS_NUM_THREADS={threads}"
    return [
        f"vbma {__version__} seed={cfg.seed} config={config_hash(settings)} "
        f"cpus={os.cpu_count()}{blas}",
    ]


def _format(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def write_table(path, header_comments, names, rows):
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(_format(v) for v in row) + "\n")


def parse_checkpoint(text):
    """Inverse of EnsembleState.to_text for the fields the front end needs."""
    lines = text.splitlines()
    meta = {}
    states = {}
    current_name = None
    block = []
    for line in lines:
        if line.startswith("[model "):
            if current_name is not None:
                states[current_name] = VariationalState.from_text("\n".join(block))
            current_name = line[len("[model "):-1]
            block = []
        elif current_name is not None:
            block.append(line)
        elif line.startswith(("iteration ", "phase ", "q ")):
            key, _, rest = line.partition(" ")
            meta[key] = rest
    if current_name is not None:
        states[current_name] = VariationalState.from_text("\n".join(block))
    q = np.array([float(v) for v in meta.get("q", "").split()])
    return meta, q, states


def load_fit(out_dir, models):
    """Reconstruct a BmaPosterior from fit artifacts in ``out_dir``."""
    ckpt = Path(out_dir) / "checkpoint.txt"
    if not ckpt.exists():
        raise CliError(
            f"no fit artifacts in {out_dir}; run the fit subcommand first"
        )
    try:
        _, q, states = parse_checkpoint(ckpt.read_text())
    except ValueError as err:
        raise CliError(f"{ckpt}: a line does not parse ({err})")
    names = [m.name for m in models]
    if list(states) != names:
        raise CliError(f"checkpoint holds models {list(states)}, the config builds {names}; "
                       "config mismatch?")
    if len(q) != len(models) or not (q >= 0).all() or abs(q.sum() - 1.0) > 1e-8:
        raise CliError(f"{ckpt}: q is not a distribution over the {len(models)} models")
    for m in models:
        vs = states[m.name]
        if (vs.names, vs.tags) != (m.layout.names(), m.layout.tags()):
            raise CliError(f"{ckpt}: model {m.name!r} needs the coordinates {m.layout.names()} "
                           "with its layout's family tags")
        if not np.isfinite([vs.mu, vs.raw_scale]).all():
            raise CliError(f"{ckpt}: model {m.name!r} has a non-finite parameter")
    variational = [states[name] for name in names]
    return metrics.BmaPosterior(models, q, variational)


# -- subcommands --------------------------------------------------------------


def cmd_fit(args):
    settings = resolve_settings(args)
    ds, models = build_ensemble(settings)
    cfg = vbma_config(settings)
    state = core.run(cfg, models)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = _header(settings)
    status = "converged" if state.converged else "budget-exhausted"

    q = state.final_weights(cfg.window)
    trace = np.array(state.weight_trace) if state.weight_trace else q[None, :]
    tail = trace[-cfg.window:]
    se = tail.std(axis=0, ddof=1) / np.sqrt(len(tail)) if len(tail) > 1 else np.zeros_like(q)
    paths = [f"{m.name} path={m.path}" for m in models if isinstance(m, GPModel)]
    write_table(
        out / "weights.csv",
        header + [f"status={status}"] + paths,
        ["model", "q", "se"],
        [(m.name, float(qi), float(si)) for m, qi, si in zip(models, q, se)],
    )

    names = ["iteration"] + [m.name for m in models]
    rows = zip(range(len(state.elbo_trace[0])), *state.elbo_trace)
    write_table(out / "elbo_trace.csv", header, names, rows)

    ckpt_lines = [f"# {line}" for line in header] + [state.to_text()]
    (out / "checkpoint.txt").write_text("\n".join(ckpt_lines))

    if args.svg:
        _elbo_svg(out / "elbo_trace.svg", state, models)
    print(f"fit: {status} after {state.iteration} iterations; top model "
          f"{models[int(np.argmax(q))].name} q={q.max():.3f}")
    return 0


def _log_evidence(model, mc_samples, seed):
    """The closed-form Zellner evidence of an improper-prior (g-prior) model,
    or a Monte Carlo estimate from ``--mc-samples`` prior draws."""
    if not model.has_proper_prior():
        return evidence_mod.zellner_log_evidence(model)
    return evidence_mod.mc_log_evidence(model, mc_samples, seed=seed)


def cmd_evidence(args):
    settings = resolve_settings(args)
    ds, models = build_ensemble(settings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = vbma_config(settings).seed
    estimates = [_log_evidence(m, args.mc_samples, seed) for m in models]
    post = evidence_mod.evidence_to_posterior(
        estimates, [m.prior_weight for m in models]
    )
    write_table(
        out / "evidence.csv",
        _header(settings),
        ["model", "method", "log_evidence", "se", "posterior_prob"],
        [
            (m.name, e.method.value, e.log_evidence, e.standard_error, float(p))
            for m, e, p in zip(models, estimates, post)
        ],
    )
    for m, p in sorted(zip(models, post), key=lambda t: -t[1])[:5]:
        print(f"{m.name:40s} {p:.4f}")
    return 0


def cmd_bf(args):
    settings = resolve_settings(args)
    ds, models = build_ensemble(settings)
    names = [m.name for m in models]
    for label in (args.model_i, args.model_j):
        if label not in names:
            raise CliError(f"model '{label}' not in ensemble; choices: {names}")
    i, j = names.index(args.model_i), names.index(args.model_j)
    posterior = load_fit(args.out, models)
    priors = np.array([m.prior_weight for m in models])
    vbma_bf = metrics.bayes_factor(posterior.weights, priors, i, j)
    oracle = ()
    if args.mc_samples or not models[i].has_proper_prior():
        seed = vbma_config(settings).seed
        ev_i, ev_j = (_log_evidence(models[k], args.mc_samples, seed).log_evidence
                      for k in (i, j))
        # the log Bayes factor stays exact where the ratio overflows to inf
        log_bf = ev_i - ev_j
        with np.errstate(over="ignore"):
            oracle = (float(np.exp(log_bf)), log_bf)
    rows = [(args.model_i, args.model_j, float(vbma_bf), *(oracle or ("", "")))]
    write_table(Path(args.out) / "bf.csv", _header(settings),
                ["model_i", "model_j", "bf_vbma", "bf_oracle", "log_bf_oracle"], rows)
    line = f"BF({args.model_i} vs {args.model_j}) vbma={vbma_bf:.4g}"
    if oracle:
        line += f" oracle={oracle[0]:.4g} log_oracle={oracle[1]:.4g}"
    print(line)
    return 0


def _prediction_inputs(ds):
    """(row set, design over every non-response column): test rows if any."""
    rows = "test" if (~ds.train_mask).any() else "train"
    return rows, ds.design(ds.inputs, rows)


def _levels_and_draws(args):
    """Checked ``--levels`` (comma-separated, each in (0, 1)) and ``--draws``."""
    try:
        levels = tuple(float(v) for v in args.levels.split(",") if v.strip())
    except ValueError:
        raise CliError(f"bad --levels {args.levels!r}: expected comma-separated numbers")
    for lev in levels:
        if not 0 < lev < 1:
            raise CliError(f"credibility level {lev} outside (0, 1)")
    if args.draws < 1:
        raise CliError(f"--draws must be >= 1, got {args.draws}")
    return levels, args.draws


def cmd_predict(args):
    levels, n_draws = _levels_and_draws(args)
    settings = resolve_settings(args)
    ds, models = build_ensemble(settings)
    posterior = load_fit(args.out, models)
    rows, X = _prediction_inputs(ds)
    rng = np.random.default_rng(vbma_config(settings).seed)
    draws = metrics.bma_draw(posterior, X, n_draws, rng)
    names = ["row", "mean"]
    columns = [range(len(X)), draws.mean(axis=0)]
    for lev in levels:
        names += [f"lo{lev:g}", f"hi{lev:g}"]
        columns += metrics.equal_tail_interval(draws, 1.0 - lev)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "predictions.csv", _header(settings) + [f"rows={rows}"],
                names, zip(*columns))
    print(f"predict: wrote {len(X)} rows ({rows} set)")
    return 0


def cmd_coverage(args):
    levels, n_draws = _levels_and_draws(args)
    settings = resolve_settings(args)
    ds, models = build_ensemble(settings)
    posterior = load_fit(args.out, models)
    rows, X = _prediction_inputs(ds)
    cov = metrics.coverage_curve(posterior, X, ds.y(rows), levels,
                                 n_draws=n_draws, seed=vbma_config(settings).seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "coverage.csv", _header(settings) + [f"rows={rows}"],
                ["level", "coverage"],
                [(float(l), float(cov[l])) for l in levels])
    if args.svg:
        _coverage_svg(out / "coverage.svg", cov)
    for l in levels:
        print(f"level {l:.2f}  coverage {cov[l]:.3f}")
    return 0


def cmd_synth(args):
    if args.kind == "gp":
        # every row is written, so none is held out
        try:
            ds = data_io.synth_gp_dataset(grid_size=args.grid_size, seed=args.seed or 0, n_test=0)
        except ValueError as err:
            raise CliError(str(err))
        cols = {name: ds.columns[name] for name in ("x1", "x2", "y")}
        comment = (f"synthetic lattice surface: grid={args.grid_size} "
                   f"seed={args.seed or 0}")
    elif args.kind == "heart":
        cols = data_io.synth_heart_dataset(seed=args.seed if args.seed is not None else 1)
        comment = f"synthetic heart-style table: seed={args.seed if args.seed is not None else 1}"
    else:
        raise CliError(f"unknown synthetic kind '{args.kind}'")
    data_io.write_csv(args.file, cols, header_comments=[f"vbma {__version__}", comment])
    print(f"synth: wrote {args.file}")
    return 0


# -- optional SVG emission ----------------------------------------------------


def _matplotlib():
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
        return plt
    except ImportError:
        raise CliError("--svg requires matplotlib (install the 'plot' extra)")


def _elbo_svg(path, state, models):
    plt = _matplotlib()
    fig, ax = plt.subplots(figsize=(7, 4))
    for m, trace in zip(models, state.elbo_trace):
        ax.plot(trace, label=m.name, linewidth=0.8)
    ax.set_xlabel("iteration")
    ax.set_ylabel("ELBO estimate")
    ax.legend(fontsize=6)
    fig.savefig(path, metadata={"Date": None})
    plt.close(fig)


def _coverage_svg(path, cov):
    plt = _matplotlib()
    levels = sorted(cov)
    fig, ax = plt.subplots(figsize=(4.5, 4.5))
    ax.plot([0, 1], [0, 1], "k--", linewidth=0.8)
    ax.plot(levels, [cov[l] for l in levels], "o-")
    ax.set_xlabel("credibility level")
    ax.set_ylabel("empirical coverage")
    fig.savefig(path, metadata={"Date": None})
    plt.close(fig)


# -- entry point --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are exit code 1 under this tool's contract
        self.print_usage(sys.stderr)
        raise CliError(message)

    def parse_args(self, args=None, namespace=None):
        args = super().parse_args(args, namespace)
        # numpy takes only non-negative seeds
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        return args


def _add_common(sub):
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--out", default="vbma-out", help="artifact directory")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--optimizer", default=None, choices=["adam", "rmsprop"])
    sub.add_argument("--step-size", dest="step_size", type=float, default=None)
    sub.add_argument("--samples", type=int, default=None, help="MC draws per gradient (S)")
    sub.add_argument("--pretrain-iters", dest="pretrain_iters", type=int, default=None)
    sub.add_argument("--joint-iters", dest="joint_iters", type=int, default=None)
    sub.add_argument("--window", type=int, default=None)
    sub.add_argument("--svg", action="store_true", help="also emit SVG plots")


def build_parser():
    parser = _Parser(prog="vbma", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vbma {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="run the variational averaging loop")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("evidence", help="closed-form or MC evidence baseline")
    _add_common(p)
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.set_defaults(func=cmd_evidence)

    p = subs.add_parser("bf", help="Bayes factor between two fitted models")
    _add_common(p)
    p.add_argument("model_i")
    p.add_argument("model_j")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="MC evidence oracle sample count (proper priors)")
    p.set_defaults(func=cmd_bf)

    p = subs.add_parser("predict", help="model-averaged predictions")
    _add_common(p)
    p.add_argument("--levels", default="", help="comma-separated credibility levels")
    p.add_argument("--draws", type=int, default=1000)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("coverage", help="predictive-interval calibration")
    _add_common(p)
    p.add_argument("--levels", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--draws", type=int, default=2000)
    p.set_defaults(func=cmd_coverage)

    p = subs.add_parser("synth", help="generate a bundled-style synthetic dataset")
    p.add_argument("--kind", required=True, choices=["gp", "heart"])
    p.add_argument("--file", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=20)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, evidence_mod.ConfigurationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (core.IterationError, NonFiniteGradientError, np.linalg.LinAlgError,
            FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
