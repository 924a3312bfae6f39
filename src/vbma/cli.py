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
the default of the library call the key feeds.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.

On glibc, ``main`` keeps the heap memory the process frees (``_keep_freed_memory``);
importing the module does not.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import functools
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import core, metrics, optimizers, studies
from . import data as data_io
from . import evidence as evidence_mod
from .models import GPModel, linreg_subset_ensemble, logistic_subset_ensemble

ENV_PREFIX = "VBMA_"

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


# -- configuration resolution -------------------------------------------------


def _names(text):
    """A comma-separated list of column names."""
    return tuple(x.strip() for x in text.split(",") if x.strip())


# Each INI section's keys: key -> (parameter of the library call it feeds, cast).
# Only the keys set to a non-empty value are passed, so every default is the
# library's own.  [study] and [ensemble] hold one table per study or kind.
RUN_KEYS = {
    "samples": ("n_samples", int),
    "pretrain_iters": ("pretrain_iters", int),
    "joint_iters": ("joint_iters", int),
    "window": ("window", int),
    "seed": ("seed", int),
    "optimizer": ("optimizer", str),
    "step_size": ("step_size", float),
}
STUDY_KEYS = {  # feeding studies.<name>_study
    "crime": {"train_fraction": ("train_fraction", float),
              "split_seed": ("split_seed", int), "g": ("g", float)},
    "heart": {"prior_sd": ("prior_sd", float)},
    "gp": {"grid_size": ("grid_size", int), "n_test": ("n_test", int),
           "data_seed": ("seed", int), "offset_sds": ("offset_sds", float)},
}
DATA_KEYS = {  # csv feeds load_csv, the rest data.prepare
    "csv": ("csv", str),
    "train_fraction": ("train_fraction", float),
    "split_seed": ("split_seed", int),
    "response": ("response", str),
    "log": ("log_columns", _names),
    "center": ("center_columns", _names),
}
ENSEMBLE_KEYS = {
    "linear": {"g": ("g", float)},
    "logistic": {"prior_sd": ("prior_sd", float)},
}
ENSEMBLES = {"linear": linreg_subset_ensemble, "logistic": logistic_subset_ensemble}
# an ensemble holds all K = 2^p subset models of its p predictors.  At 15, a
# linear stack, which reads sufficient statistics, takes about 0.9 GB (758
# MB measured at K = 32768); a logistic stack forms (K, S, n) float64
# temporaries, about 0.13 MB a model at n = 303 and S = 10 (542 MB measured
# at K = 4096), so about 4.4 GB (extrapolated)
MAX_PREDICTORS = 15


def _union(tables, *own):
    return tuple(dict.fromkeys([*own, *(key for keys in tables.values() for key in keys)]))


KNOWN_KEYS = {
    "study": _union(STUDY_KEYS, "name"),
    "data": tuple(DATA_KEYS),
    "ensemble": _union(ENSEMBLE_KEYS, "kind", "predictors"),
    "run": tuple(RUN_KEYS),
}


def _read_ini(path):
    parser = configparser.ConfigParser()
    try:  # a repeated section or key, or a bad % interpolation
        if not parser.read(path):
            raise CliError(f"config file not found: {path}")
        return {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.Error as err:
        raise CliError(str(err))


def resolve_settings(args):
    """Merge config file, environment, and flags into one flat dict."""
    sections = _read_ini(args.config) if args.config else {}
    settings = {}
    for section, known in KNOWN_KEYS.items():
        settings[section] = dict(sections.get(section, {}))
        unknown = [key for key in settings[section] if key not in known]
        if unknown:
            raise CliError(f"unknown key {', '.join(map(repr, unknown))} in [{section}] "
                           f"(known: {', '.join(known)})")
    for key in RUN_KEYS:
        for val in (os.environ.get(ENV_PREFIX + key.upper()), getattr(args, key, None)):
            if val is not None:
                settings["run"][key] = val
    return settings


def _library_args(section, keys):
    """{parameter: cast value} for the keys set (non-empty) in ``section``."""
    out = {}
    for key, (param, cast) in keys.items():
        val = section.get(key)
        if val is None or val == "":
            continue
        try:
            out[param] = cast(val)
        except (TypeError, ValueError):
            raise CliError(f"bad value for '{key}': {val!r}")
    return out


def vbma_config(settings):
    try:
        return core.VbmaConfig(**_library_args(settings["run"], RUN_KEYS))
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


def models_hash(settings):
    """``config_hash`` of the keys set (non-empty) in [study], [data] and
    [ensemble], and, without a [study] name, of the bytes of the table that
    [data] csv names: what builds the models, not how they are fitted."""
    parts = {s: {k: v for k, v in settings[s].items() if v}
             for s in ("study", "data", "ensemble")}
    csv = parts["data"].get("csv")
    if csv and "name" not in parts["study"]:
        parts["table"] = {"sha256": hashlib.sha256(_table(csv).read_bytes()).hexdigest()}
    return config_hash(parts)


# -- ensemble construction ----------------------------------------------------


def _table(csv):
    """The file a [data] csv value names; ``bundled:<name>`` ships with vbma."""
    return data_io.bundled_path(csv[8:]) if csv.startswith("bundled:") else Path(csv)


def build_ensemble(settings):
    """(dataset, models) from the [study] shortcut or [data]/[ensemble].  A
    table that does not load, or a setting that a builder rejects with a
    ``ValueError``, is a usage error."""
    try:
        return _build_ensemble(settings)
    except (OSError, ValueError) as err:  # data_io.IngestionError is a ValueError
        raise CliError(str(err))


def _build_ensemble(settings):
    study = settings["study"]
    name = study.get("name")
    if name:
        if name not in STUDY_KEYS:
            raise CliError(f"unknown study '{name}' (expected crime, heart, or gp)")
        # looked up at call time, where a tracer may wrap it
        return getattr(studies, f"{name}_study")(**_library_args(study, STUDY_KEYS[name]))

    data = _library_args(settings["data"], DATA_KEYS)
    if "csv" not in data:
        raise CliError("config needs either [study] name or [data] csv")
    csv = data.pop("csv")
    if "response" not in data:
        raise CliError("[data] response is required")
    ens = settings["ensemble"]
    predictors = _names(ens.get("predictors", ""))
    if len(predictors) > MAX_PREDICTORS:
        raise CliError(f"[ensemble] predictors names {len(predictors)} columns, which give "
                       f"{2 ** len(predictors)} models; at most {MAX_PREDICTORS} are allowed")
    ds = data_io.prepare(data_io.load_csv(_table(csv)), **data)
    kind = ens.get("kind")
    bad = [p for i, p in enumerate(predictors) if p not in ds.inputs or p in predictors[:i]]
    if bad:
        raise CliError(f"[ensemble] predictor {bad[0]!r} is repeated or not an input column "
                       f"(inputs: {', '.join(ds.inputs)})")
    if not kind:
        raise CliError("[ensemble] kind is required (linear or logistic)")
    if kind not in ENSEMBLES:
        raise CliError(f"unknown ensemble kind '{kind}' (expected linear or logistic)")
    return ds, ENSEMBLES[kind](ds, predictors, **_library_args(ens, ENSEMBLE_KEYS[kind]))


# -- artifact plumbing --------------------------------------------------------


def _header(settings):
    cfg = vbma_config(settings)
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    blas = "" if threads is None else f" OPENBLAS_NUM_THREADS={threads}"
    return [
        f"vbma {__version__} seed={cfg.seed} config={config_hash(settings)} "
        f"cpus={os.cpu_count()}{blas}",
    ]


def load_fit(out_dir, models, settings):
    """Reconstruct a BmaPosterior from fit artifacts in ``out_dir``, fitted
    on the models that ``settings`` build (its ``# models=`` line)."""
    ckpt = Path(out_dir) / "checkpoint.txt"
    if not ckpt.exists():
        raise CliError(
            f"no fit artifacts in {out_dir}; run the fit subcommand first"
        )
    text, want = ckpt.read_text(), models_hash(settings)
    found = [line.split("=", 1)[1] for line in text.splitlines() if line.startswith("# models=")]
    if found != [want]:
        raise CliError(f"{ckpt}: fitted on models={found[0] if found else '(no line)'}, but "
                       f"[study], [data] and [ensemble] give models={want}; config mismatch?")
    try:
        q, states = core.parse_checkpoint(text)
    except ValueError as err:
        raise CliError(f"{ckpt}: a line does not parse ({err})")
    names = [m.name for m in models]
    if list(states) != names:
        raise CliError(f"checkpoint holds models {list(states)}, the config builds {names}; "
                       "config mismatch?")
    for m in models:
        coords, tags, vs = states[m.name]
        if (coords, tags) != (m.layout.names(), m.layout.tags()):
            raise CliError(f"{ckpt}: model {m.name!r} needs the coordinates {m.layout.names()} "
                           "with its layout's family tags")
        if not np.isfinite([vs.mu, vs.raw_scale]).all():
            raise CliError(f"{ckpt}: model {m.name!r} has a non-finite parameter")
    try:
        return metrics.BmaPosterior(models, q, [vs for _, _, vs in states.values()])
    except ValueError as err:
        raise CliError(f"{ckpt}: q is not a distribution over the {len(models)} models ({err})")


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

    q = state.q
    trace = np.array(state.weight_trace) if state.weight_trace else q[None, :]
    tail = trace[-cfg.window:]
    se = tail.std(axis=0, ddof=1) / np.sqrt(len(tail)) if len(tail) > 1 else np.zeros_like(q)
    paths = [f"{m.name} path={m.path}" for m in models if isinstance(m, GPModel)]
    data_io.write_csv(
        out / "weights.csv",
        ["model", "q", "se"],
        [(m.name, float(qi), float(si)) for m, qi, si in zip(models, q, se)],
        header + [f"status={status}"] + paths,
    )

    names = ["iteration"] + [m.name for m in models]
    rows = zip(range(len(state.elbo_trace[0])), *state.elbo_trace)
    data_io.write_csv(out / "elbo_trace.csv", names, rows, header)

    ckpt_lines = [f"# {line}" for line in header + [f"models={models_hash(settings)}"]]
    (out / "checkpoint.txt").write_text("\n".join(ckpt_lines + [state.to_text()]))

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
    data_io.write_csv(
        out / "evidence.csv",
        ["model", "method", "log_evidence", "se", "posterior_prob"],
        [
            (m.name, e.method.value, e.log_evidence, e.standard_error, float(p))
            for m, e, p in zip(models, estimates, post)
        ],
        _header(settings),
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
    posterior = load_fit(args.out, models, settings)
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
    data_io.write_csv(Path(args.out) / "bf.csv",
                      ["model_i", "model_j", "bf_vbma", "bf_oracle", "log_bf_oracle"], rows,
                      _header(settings))
    line = f"BF({args.model_i} vs {args.model_j}) vbma={vbma_bf:.4g}"
    if oracle:
        line += f" oracle={oracle[0]:.4g} log_oracle={oracle[1]:.4g}"
    print(line)
    return 0


def _predictive_setup(args):
    """What predict and coverage share: (settings, dataset, fitted posterior,
    checked ``--levels`` (comma-separated, each in (0, 1), no two with one
    ``{level:g}`` label), row set, design over every non-response column),
    on the test rows if any."""
    try:
        levels = tuple(float(v) for v in args.levels.split(",") if v.strip())
    except ValueError:
        raise CliError(f"bad --levels {args.levels!r}: expected comma-separated numbers")
    for i, lev in enumerate(levels):
        if not 0 < lev < 1:
            raise CliError(f"credibility level {lev} outside (0, 1)")
        if f"{lev:g}" in [f"{earlier:g}" for earlier in levels[:i]]:
            raise CliError(f"credibility level {lev} repeats the label "
                           f"lo{lev:g}/hi{lev:g} of an earlier level")
    if args.draws < 1:
        raise CliError(f"--draws must be >= 1, got {args.draws}")
    settings = resolve_settings(args)
    ds, models = build_ensemble(settings)
    posterior = load_fit(args.out, models, settings)
    rows = "test" if (~ds.train_mask).any() else "train"
    return settings, ds, posterior, levels, rows, ds.design(ds.inputs, rows)


def cmd_predict(args):
    settings, ds, posterior, levels, rows, X = _predictive_setup(args)
    rng = np.random.default_rng(vbma_config(settings).seed)
    draws = metrics.bma_draw(posterior, X, args.draws, rng)
    names = ["row", "mean"]
    columns = [range(len(X)), draws.mean(axis=0)]
    lo, hi = metrics.equal_tail_interval(draws, [1.0 - lev for lev in levels])
    for lev, lo_lev, hi_lev in zip(levels, lo, hi):
        names += [f"lo{lev:g}", f"hi{lev:g}"]
        columns += [lo_lev, hi_lev]
    data_io.write_csv(Path(args.out) / "predictions.csv", names, zip(*columns),
                      _header(settings) + [f"rows={rows}"])
    print(f"predict: wrote {len(X)} rows ({rows} set)")
    return 0


def cmd_coverage(args):
    settings, ds, posterior, levels, rows, X = _predictive_setup(args)
    cov = metrics.coverage_curve(posterior, X, ds.y(rows), levels,
                                 n_draws=args.draws, seed=vbma_config(settings).seed)
    out = Path(args.out)
    data_io.write_csv(out / "coverage.csv", ["level", "coverage"],
                      [(float(l), float(cov[l])) for l in levels],
                      _header(settings) + [f"rows={rows}"])
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
    data_io.write_csv(args.file, list(cols), zip(*cols.values()),
                      [f"vbma {__version__}", comment])
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

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)
MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")


def _mallopt():
    """glibc's ``int mallopt(int param, int value)`` in this process."""
    fn = ctypes.CDLL(None).mallopt
    fn.argtypes, fn.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return fn


@functools.cache  # once per process, not ~30 us on every call of main
def _keep_freed_memory():
    """On glibc, keep freed heap memory in this process; elsewhere, or when
    the environment sets glibc's malloc thresholds itself, do nothing.

    By default glibc gives the freed top of the heap back to the OS and
    serves each block above an adaptive threshold with an ``mmap`` of its
    own, so every pass of a fit, an evidence or a predictive block faults
    the pages of its temporaries in again: ~650 minor faults per heart
    iteration.  Raising both thresholds keeps those pages.  Setting one
    alone turns off glibc's adjustment of the other and adds faults.  No
    allocation changes size or contents, so no number changes.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if any(var in os.environ for var in MALLOC_ENV) or "glibc.malloc." in tunables:
        return
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or a C library without the name
        return
    if libc.startswith("glibc"):
        mallopt = _mallopt()
        # 32 MiB is the most glibc's own adaptive mmap threshold reaches on a
        # 64-bit machine; mallopt returns 1 on success, and the trim
        # threshold alone adds faults
        if mallopt(M_MMAP_THRESHOLD, 32 << 20):
            mallopt(M_TRIM_THRESHOLD, 128 << 20)


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


@functools.cache  # once per process; main looks the subcommand up at call time
def build_parser():
    parser = _Parser(prog="vbma", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vbma {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    # the options of every subcommand but synth
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--out", default="vbma-out", help="artifact directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--optimizer", default=None, choices=list(optimizers.OPTIMIZERS))
    common.add_argument("--step-size", dest="step_size", type=float, default=None)
    common.add_argument("--samples", type=int, default=None, help="MC draws per gradient (S)")
    common.add_argument("--pretrain-iters", dest="pretrain_iters", type=int, default=None)
    common.add_argument("--joint-iters", dest="joint_iters", type=int, default=None)
    common.add_argument("--window", type=int, default=None)
    common.add_argument("--svg", action="store_true", help="also emit SVG plots")

    p = subs.add_parser("fit", parents=[common], help="run the variational averaging loop")

    p = subs.add_parser("evidence", parents=[common], help="closed-form or MC evidence baseline")
    p.add_argument("--mc-samples", type=int, default=100_000)

    p = subs.add_parser("bf", parents=[common], help="Bayes factor between two fitted models")
    p.add_argument("model_i")
    p.add_argument("model_j")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="MC evidence oracle sample count (proper priors)")

    p = subs.add_parser("predict", parents=[common], help="model-averaged predictions")
    p.add_argument("--levels", default="", help="comma-separated credibility levels")
    p.add_argument("--draws", type=int, default=1000)

    p = subs.add_parser("coverage", parents=[common], help="predictive-interval calibration")
    p.add_argument("--levels", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--draws", type=int, default=2000)

    p = subs.add_parser("synth", help="generate a bundled-style synthetic dataset")
    p.add_argument("--kind", required=True, choices=["gp", "heart"])
    p.add_argument("--file", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-size", dest="grid_size", type=int, default=20)
    return parser


def main(argv=None):
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # by name, at call time, where a tracer may wrap it
        return globals()[f"cmd_{args.command}"](args)
    except (CliError, evidence_mod.ConfigurationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (core.IterationError, optimizers.NonFiniteGradientError, np.linalg.LinAlgError,
            FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
