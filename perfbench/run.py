"""vbma benchmark: end-to-end fit/predict timings and per-module traced self times.

Usage (from the repository root)::

    python3 perfbench/run.py --workload crime-fit --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
Each run repeats the workload's user-facing call, with batches of set-ups in
between, until ``--seconds`` have passed, and checks every output.  Times are
scaled to a nominal machine speed by a reference loop timed between calls.  With
``--trace 1`` it instead alternates untraced calls and traced passes (set-up
plus one call) and reports per-module self times and counters; traced
outputs must match the untraced ones bitwise.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 means the program
could not be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: on a shared 2-vCPU machine a second BLAS thread waits on
# whatever else runs on the other vCPU, and 300x300 factorizations then vary
# 4x between runs.  Must be set before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

N_SAMPLES = 10  # S, MC draws per gradient, as in the acceptance config

# reference loop length, and its time at the nominal machine speed to which
# end-to-end times are scaled (the median on the machine in README.md)
REF_LOOPS = 40000
REF_NOMINAL_S = 0.3

clock = time.perf_counter


class ImportFailure(RuntimeError):
    pass


def import_vbma():
    """Import ``vbma`` from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "vbma" / "__init__.py"
    if not init.is_file():
        raise ImportFailure(f"{init} not found: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import vbma
    import vbma.cli
    if Path(vbma.__file__).resolve() != init.resolve():
        raise ImportFailure(f"imported vbma from {vbma.__file__}, not {init}")
    return vbma


# -- workloads ----------------------------------------------------------------


class Op:
    """Outcome of one timed call: time, work done, failed checks, outputs."""

    def __init__(self, elapsed, work, failures, fingerprint, info, parts):
        self.elapsed = elapsed
        self.work = work              # model-draws (fit) or predictive draws
        self.failures = failures      # list of failed-check messages
        self.fingerprint = fingerprint  # exact outputs, compared bitwise
        self.info = info              # iterations, q_maxerr
        self.parts = parts            # per-call metrics, e.g. predict_s


def simplex_failures(q):
    if (q < 0).any() or abs(float(q.sum()) - 1.0) > 1e-9:
        return [f"q off the simplex: {q.tolist()}"]
    return []


class FitWorkload:
    """Build a bundled study, then time ``core.run`` at a fixed budget.

    When the timed budget is too short for the accuracy gate, ``full_budget``
    names a longer fit that each run makes once, untimed, and gates instead.
    """

    budget = {}
    full_budget = None

    def __init__(self, vbma, seed):
        self.vbma = vbma
        self.seed = seed
        self.cfg = self._config(self.budget)

    def _config(self, budget):
        return self.vbma.core.VbmaConfig(n_samples=N_SAMPLES, seed=self.seed, **budget)

    def close(self):
        pass

    def setup(self):
        _, models = self.build()
        return models, [], b""

    def fit(self, models, cfg):
        t0 = clock()
        state = self.vbma.core.run(cfg, models)
        elapsed = clock() - t0
        maxerr = float(abs(state.q - self.reference(models)).max())
        return state, elapsed, maxerr

    def op(self, models):
        state, elapsed, maxerr = self.fit(models, self.cfg)
        failures = simplex_failures(state.q)
        if self.full_budget is None:
            failures += self.check(models, state.q, maxerr)
        fingerprint = (state.to_text() + repr(state.elbo_trace)).encode()
        work = len(models) * state.iteration * self.cfg.n_samples
        return Op(elapsed, work, failures, fingerprint,
                  {"iterations": state.iteration, "q_maxerr": maxerr},
                  {"fit_s": elapsed, "fit_draws_per_s": work / elapsed})

    def verify(self, models):
        """Failures and q_maxerr of the untimed full-budget fit, if any."""
        if self.full_budget is None:
            return None
        state, _, maxerr = self.fit(models, self._config(self.full_budget))
        failures = simplex_failures(state.q) + self.check(models, state.q, maxerr)
        return failures, maxerr


class CrimeFit(FitWorkload):
    name = "crime-fit"
    why = ("K=8 tiny g-prior linear models, n=47: time goes to per-op Python overhead in "
           "the tape; exact Zellner oracle. heart is left out: it drives the same layers")
    # a short timed fit, so that a run holds about ten of them; the gate needs
    # ~110 iterations (max |q - exact| near 0.03, inside criterion 2b's 0.06)
    budget = {"pretrain_iters": 20, "joint_iters": 10, "window": 5}
    full_budget = {"pretrain_iters": 80, "joint_iters": 30, "window": 15}
    setup_schedule = (20, 1)  # (set-ups per batch, timed calls per batch)
    MAX_ERR = 0.06

    def build(self):
        return self.vbma.studies.crime_study()

    def reference(self, models):
        if not hasattr(self, "_exact"):
            ev = self.vbma.evidence
            ests = [ev.zellner_log_evidence(m) for m in models]
            self._exact = ev.evidence_to_posterior(ests, [m.prior_weight for m in models])
        return self._exact

    def check(self, models, q, maxerr):
        if maxerr > self.MAX_ERR:
            return [f"max |q - closed form| = {maxerr:.4f} > {self.MAX_ERR}"]
        return []


def gp_reference(names):
    # criterion 7a: the generating (free-mean) model should carry the weight
    return np.array([1.0 if n == "gp:free-mean" else 0.0 for n in names])


class GpFit(FitWorkload):
    name = "gp-fit"
    why = ("K=2 GP models, n=300: few ops on 300x300 arrays (Cholesky, explicit inverse, "
           "kernel), trivial model loop. evidence.mc_log_evidence is left out: "
           "no ROADMAP item targets it")
    # q(gp:free-mean) is ~1 after a few joint iterations
    budget = {"pretrain_iters": 5, "joint_iters": 5, "window": 3}
    setup_schedule = (4, 1)

    def build(self):
        return self.vbma.studies.gp_study(seed=self.seed)

    def reference(self, models):
        return gp_reference([m.name for m in models])

    def check(self, models, q, maxerr):
        names = [m.name for m in models]
        q_true = float(q[names.index("gp:free-mean")])
        return [] if q_true > 0.5 else [f"q(gp:free-mean) = {q_true:.4f} <= 0.5"]


class GpPredict:
    """Short ``vbma fit`` in set-up, then ``vbma predict`` and ``vbma coverage``
    in process through ``vbma.cli.main``."""

    name = "gp-predict"
    why = ("only workload on the predictive path: vbma predict and coverage via cli.main, "
           "one K factorization per draw, a study rebuild per call; "
           "set-up runs a short vbma fit")
    setup_schedule = (1, 3)
    # an 18x18 lattice with 24 held-out rows keeps n=300 training points
    STUDY = {"grid_size": 18, "n_test": 24}
    FIT = {"--pretrain-iters": 3, "--joint-iters": 3, "--window": 2}
    PREDICT_LEVELS = (0.5, 0.8, 0.95)
    PREDICT_DRAWS = 10
    COVERAGE_DRAWS = 10

    def __init__(self, vbma, seed):
        self.vbma = vbma
        self.seed = seed
        self.out = WORK / f"{os.getpid()}-gp-predict"
        self.out.mkdir(parents=True, exist_ok=True)
        self.ini = self.out / "study.ini"
        self.ini.write_text("[study]\nname = gp\n"
                            + "".join(f"{k} = {v}\n" for k, v in self.STUDY.items())
                            + f"data_seed = {seed}\n")

    def _cli(self, *args):
        argv = [args[0], "--config", str(self.ini), "--out", str(self.out),
                "--seed", str(self.seed), *map(str, args[1:])]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.vbma.cli.main(argv)

    def setup(self):
        rc = self._cli("fit", "--samples", N_SAMPLES,
                       *[x for kv in self.FIT.items() for x in kv])
        if rc != 0:
            return None, [f"vbma fit exited {rc}"], b""
        files = ("weights.csv", "elbo_trace.csv", "checkpoint.txt")
        fingerprint = b"".join((self.out / f).read_bytes() for f in files)
        ckpt = (self.out / "checkpoint.txt").read_text()
        iterations = int(re.search(r"^iteration (\d+)$", ckpt, re.M).group(1))
        weights = _csv_rows((self.out / "weights.csv").read_bytes())
        q = np.array([float(r[1]) for r in weights])
        maxerr = float(abs(q - gp_reference([r[0] for r in weights])).max())
        return {"iterations": iterations, "q_maxerr": maxerr}, [], fingerprint

    def op(self, info):
        levels = ",".join(f"{x:g}" for x in self.PREDICT_LEVELS)
        t0 = clock()
        rc_p = self._cli("predict", "--levels", levels, "--draws", self.PREDICT_DRAWS)
        t1 = clock()
        rc_c = self._cli("coverage", "--draws", self.COVERAGE_DRAWS)
        t2 = clock()
        failures = [f"vbma {cmd} exited {rc}"
                    for cmd, rc in (("predict", rc_p), ("coverage", rc_c)) if rc != 0]
        fingerprint = b""
        if not failures:
            pred = (self.out / "predictions.csv").read_bytes()
            cov = (self.out / "coverage.csv").read_bytes()
            fingerprint = pred + cov
            failures += self.check_predictions(pred) + self.check_coverage(cov)
        rows = self.STUDY["n_test"]
        work = rows * (self.PREDICT_DRAWS + self.COVERAGE_DRAWS)
        return Op(t2 - t0, work, failures, fingerprint, info,
                  {"predict_s": t1 - t0, "coverage_s": t2 - t1,
                   "predict_draws_per_s": rows * self.PREDICT_DRAWS / (t1 - t0)})

    def verify(self, info):
        return None  # every call's outputs are checked in op

    def check_predictions(self, raw):
        rows = _csv_rows(raw)
        table = np.array([[float(v) for v in r] for r in rows])
        if table.shape != (self.STUDY["n_test"], 2 + 2 * len(self.PREDICT_LEVELS)):
            return [f"predictions.csv has shape {table.shape}"]
        if not np.isfinite(table).all():
            return ["non-finite prediction"]
        lo, hi = table[:, 2::2], table[:, 3::2]  # columns in increasing level
        nested = ((lo[:, 1:] <= lo[:, :-1]).all() and (hi[:, 1:] >= hi[:, :-1]).all()
                  and (lo <= hi).all())
        return [] if nested else ["prediction intervals not nested by level"]

    def check_coverage(self, raw):
        cov = [float(r[1]) for r in _csv_rows(raw)]
        ok = all(0.0 <= c <= 1.0 for c in cov) and all(
            a <= b for a, b in zip(cov, cov[1:]))
        return [] if ok and cov else [f"coverage not monotone in level: {cov}"]

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it


def _csv_rows(raw):
    lines = [ln for ln in raw.decode().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


WORKLOADS = {w.name: w for w in (CrimeFit, GpFit, GpPredict)}

# -- metrics ------------------------------------------------------------------

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("draws_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _self(span):
    return lambda p: p["spans"][span]["self_s"]


def _total(*names):
    return lambda p: sum(p["spans"][n]["total_s"] for n in names)


def _calls(span):
    return lambda p: p["spans"][span]["calls"]


def _raised(span, kind=BaseException):
    """Calls of ``span`` that raised an exception of type ``kind``."""
    return lambda p: sum(issubclass(e, kind) for e in p["spans"][span]["errors"])


def _estimate_ms(pct):
    def get(p):
        durs = sorted(p["spans"]["core.estimate"]["durations"])
        if not durs:
            return 0.0
        return 1e3 * durs[min(len(durs) - 1, int(pct / 100.0 * len(durs)))]
    return get


def _accept_ratio(p):
    grad = p["spans"]["autodiff.grad"]
    return (grad["calls"] - len(grad["errors"])) / grad["calls"] if grad["calls"] else 1.0


PER_LAYER = (
    # name, unit, better, value from one traced pass (median over passes)
    ("autodiff.grad_calls", "count", "lower", _calls("autodiff.grad")),
    ("autodiff.grad_self_s", "s", "lower", _self("autodiff.grad")),
    ("autodiff.backward_self_s", "s", "lower", _self("autodiff.backward")),
    ("autodiff.spd_logpdf_calls", "count", "lower", _calls("autodiff.spd_logpdf")),
    ("autodiff.spd_logpdf_self_s", "s", "lower", _self("autodiff.spd_logpdf")),
    ("families.sample_self_s", "s", "lower", _self("families.sample")),
    ("families.log_q_self_s", "s", "lower", _self("families.log_q")),
    ("families.reparam_jacobian_self_s", "s", "lower", _self("families.reparam_jacobian")),
    ("models.log_joint_calls", "count", "lower", _calls("models.log_joint")),
    ("models.log_joint_self_s", "s", "lower", _self("models.log_joint")),
    ("models.jitter_retries", "count", "lower",
     _raised("autodiff.spd_logpdf", np.linalg.LinAlgError)),
    ("models.predict_dist_calls", "count", "lower", _calls("models.predict_dist")),
    ("models.predict_dist_self_s", "s", "lower", _self("models.predict_dist")),
    ("core.estimate_calls", "count", "lower", _calls("core.estimate")),
    ("core.estimate_self_s", "s", "lower", _self("core.estimate")),
    ("core.estimate_ms_p50", "ms", "lower", _estimate_ms(50)),
    ("core.estimate_ms_p99", "ms", "lower", _estimate_ms(99)),
    ("core.run_self_s", "s", "lower", _self("core.run")),
    ("core.update_weights_self_s", "s", "lower", _self("core.update_weights")),
    ("core.iterations", "count", "lower", lambda p: p["info"]["iterations"]),
    ("core.rejected_draws", "count", "lower", _raised("autodiff.grad")),
    ("core.draw_accept_ratio", "ratio", "higher", _accept_ratio),
    ("core.q_maxerr", "prob", "lower", lambda p: p["info"]["q_maxerr"]),
    ("optimizers.step_calls", "count", "lower", _calls("optimizers.step")),
    ("optimizers.step_self_s", "s", "lower", _self("optimizers.step")),
    ("metrics.bma_draw_calls", "count", "lower", _calls("metrics.bma_draw")),
    ("metrics.bma_draw_self_s", "s", "lower", _self("metrics.bma_draw")),
    ("metrics.equal_tail_interval_self_s", "s", "lower", _self("metrics.equal_tail_interval")),
    ("metrics.coverage_curve_self_s", "s", "lower", _self("metrics.coverage_curve")),
    ("cli.build_ensemble_s", "s", "lower", _total("cli.build_ensemble")),
    ("cli.predict_self_s", "s", "lower", _self("cli.predict")),
    ("cli.coverage_self_s", "s", "lower", _self("cli.coverage")),
    ("studies.build_s", "s", "lower", _total("studies.crime", "studies.gp")),
    ("data.load_csv_s", "s", "lower", _total("data.load_csv")),
    ("data.prepare_s", "s", "lower", _total("data.prepare")),
    ("data.synth_gp_dataset_s", "s", "lower", _total("data.synth_gp_dataset")),
    ("trace.pass_wall_s", "s", "lower", lambda p: p["wall"]),
    ("trace.unattributed_frac", "frac", "lower",
     lambda p: 1.0 - sum(s["self_s"] for s in p["spans"].values()) / p["wall"]),
    ("trace.overhead_frac", "frac", "lower", None),  # traced / untraced call - 1
)

# counters that must repeat exactly for one seed
EXACT_COUNTERS = ("autodiff.grad_calls", "core.estimate_calls", "models.predict_dist_calls",
                  "metrics.bma_draw_calls", "core.rejected_draws", "core.iterations")

# spans each workload must fire at least once in a traced pass
DECLARED_SPANS = {
    "crime-fit": ("autodiff.grad", "autodiff.backward", "families.sample", "families.log_q",
                  "families.reparam_jacobian", "models.log_joint", "core.run",
                  "core.estimate", "core.update_weights", "optimizers.step",
                  "studies.crime", "data.load_csv", "data.prepare"),
    "gp-fit": ("autodiff.grad", "autodiff.backward", "autodiff.spd_logpdf",
               "families.sample", "families.log_q", "families.reparam_jacobian",
               "models.log_joint", "core.run", "core.estimate", "core.update_weights",
               "optimizers.step", "studies.gp", "data.synth_gp_dataset"),
    "gp-predict": ("cli.fit", "cli.predict", "cli.coverage", "cli.build_ensemble",
                   "cli.load_fit", "metrics.bma_draw", "metrics.equal_tail_interval",
                   "metrics.coverage_curve", "models.predict_dist", "families.sample",
                   "core.run", "studies.gp", "data.synth_gp_dataset"),
}


# -- runs ---------------------------------------------------------------------


class Ledger:
    """Counts attempted and failed operations; reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"check failed ({what}): {msg}", file=sys.stderr)

    def attempt(self, what, fn, *args):
        """Run ``fn``; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.record(what, ["raised"])
            return None


def checked_setup(wl, ledger):
    """Run the workload's set-up; returns its context (None on failure) and
    the fingerprint of its outputs."""
    out = ledger.attempt("setup", wl.setup)
    if out is None:
        return None, b""
    ctx, failures, fingerprint = out
    ledger.record("setup", failures)
    return (None if failures else ctx), fingerprint


def verify(wl, ctx, ledger):
    """Run the workload's untimed gate, if it has one; returns its q_maxerr."""
    out = ledger.attempt("verify", wl.verify, ctx)
    if out is None:
        return None
    failures, maxerr = out
    ledger.record("verify", failures)
    return maxerr


def reference_time():
    """Time of a fixed loop of small numpy ops and Python arithmetic, the
    kind of work the autodiff tape does.  It does not touch vbma, so it
    tracks only the machine's speed at the moment."""
    rng = np.random.default_rng(0)
    a, v = rng.standard_normal((5, 5)), rng.standard_normal(5)
    total = 0.0
    t0 = clock()
    for _ in range(REF_LOOPS):
        w = a @ v + np.exp(-0.5 * v * v)
        total += float(np.log1p(w * w).sum())
    return clock() - t0


def run_plain(wl, seconds, ledger):
    """Set-ups and timed calls for ``seconds``; end-to-end metrics.

    Set-ups come in batches spread over the run, like the calls, so that both
    medians sample the same stretch of a machine whose speed drifts.  A batch
    is timed as one sample, batch time / set-ups in it, so that a set-up of a
    millisecond is not one clock reading among scheduler noise.  The reference
    loop runs between calls; each sample is divided by its speed factor, the
    mean of the two reference times around it over ``REF_NOMINAL_S``.
    """
    batch, every = wl.setup_schedule
    setups, ops, speeds = [], [], []
    n_setups = 0
    ref = reference_time()
    start = clock()
    while not ops or clock() - start < seconds:
        setup_s = None
        if len(ops) % every == 0:
            t0 = clock()
            for _ in range(batch):
                ctx, _ = checked_setup(wl, ledger)
            setup_s = (clock() - t0) / batch
            n_setups += batch
        if ctx is None:
            break
        op = ledger.attempt("op", wl.op, ctx)
        if op is None:
            break
        if ops and op.fingerprint != ops[0].fingerprint:
            op.failures.append("rerun with one seed is not bitwise identical")
        ledger.record("op", op.failures)
        prev, ref = ref, reference_time()
        speed = (prev + ref) / 2 / REF_NOMINAL_S
        if setup_s is not None:
            setups.append(setup_s / speed)
        ops.append(op)
        speeds.append(speed)
    if not ops:
        return None, {}
    verify(wl, ctx, ledger)
    med = statistics.median
    metrics = {
        "setup_s": med(setups),
        "op_s": med(op.elapsed / f for op, f in zip(ops, speeds)),
        "draws_per_s": med(op.work / op.elapsed * f for op, f in zip(ops, speeds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {name: med(op.parts[name] * f if name.endswith("_per_s") else op.parts[name] / f
                       for op, f in zip(ops, speeds))
             for name in ops[0].parts}
    return metrics, {"ops": len(ops), "setups": n_setups, "named": named,
                     "op_wall_s": [op.elapsed for op in ops], "speeds": speeds}


def run_traced(wl, seconds, ledger, tracers):
    """Alternate untraced calls and traced passes (set-up plus one call).

    Returns per-layer metrics and the self-test results: traced outputs equal
    the untraced ones bitwise, exact counters repeat, declared spans fire.
    """
    ctx, ref_setup = checked_setup(wl, ledger)
    if ctx is None:
        return None, {}
    ref = ledger.attempt("op", wl.op, ctx)
    if ref is None:
        return None, {}
    ledger.record("op", ref.failures)
    untraced, passes = [ref.elapsed], []
    start = clock()
    while len(passes) < 2 or clock() - start < seconds:
        tracer = Tracer()
        tracers.append(tracer)  # spans stay in memory until exit
        t0 = clock()
        with tracer:
            sctx, setup_fp = checked_setup(wl, ledger)
            op = ledger.attempt("traced op", wl.op, sctx) if sctx is not None else None
        wall = clock() - t0
        if op is None:
            return None, {}
        if setup_fp != ref_setup or op.fingerprint != ref.fingerprint:
            op.failures.append("traced outputs differ from untraced outputs")
        ledger.record("traced op", op.failures)
        passes.append({"spans": tracer.summary(), "wall": wall, "info": op.info,
                       "op_s": op.elapsed})
        if len(passes) >= 2 and clock() - start >= seconds:
            break
        again = ledger.attempt("op", wl.op, ctx)
        if again is None:
            break
        if again.fingerprint != ref.fingerprint:
            again.failures.append("rerun with one seed is not bitwise identical")
        ledger.record("op", again.failures)
        untraced.append(again.elapsed)

    med = statistics.median
    getters = {name: get for name, _, _, get in PER_LAYER if get is not None}
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        if name in getters:
            # counts repeat exactly, so median_low keeps them whole numbers
            pick = statistics.median_low if unit == "count" else med
            metrics[name] = pick(getters[name](p) for p in passes)
    metrics["trace.overhead_frac"] = med(p["op_s"] for p in passes) / med(untraced) - 1.0
    maxerr = verify(wl, ctx, ledger)
    if maxerr is not None:
        metrics["core.q_maxerr"] = maxerr
    ledger.record("counter repeat", [
        f"{name} differs between traced passes"
        for name in EXACT_COUNTERS if len({getters[name](p) for p in passes}) > 1])
    # an unresolved target has no wrapper, so its metrics would read 0
    ledger.record("spans", [f"span target not found: {name}"
                            for name in tracers[-1].unresolved])
    missing = [s for s in DECLARED_SPANS[wl.name] if not passes[0]["spans"][s]["calls"]]
    return metrics, {"passes": passes, "missing_spans": missing,
                     "unresolved_spans": tracers[-1].unresolved}


# -- environment and output ---------------------------------------------------


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be queried."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))  # already loaded by numpy: no second copy
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "execution": "one workload per process, workloads run serially; "
                     "vbma threads unset (serial model loop); one BLAS thread",
        "tracing": "in-process function wrappers only; no whole-machine tracing "
                   "or perf counters (the benchmark runs unprivileged)",
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # VBMA_* variables would override the config the benchmark passes the CLI
    for key in [k for k in os.environ if k.startswith("VBMA_")]:
        del os.environ[key]
    try:
        vbma = import_vbma()
    except (ImportFailure, ImportError) as err:
        print(f"error: cannot import the program: {err}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment()))
    wl_cls = WORKLOADS[args.workload]
    print(f"# workload {wl_cls.name}: {wl_cls.why}")
    ledger = Ledger()
    tracers = []
    wl = wl_cls(vbma, args.seed)
    try:
        if args.trace:
            metrics, extra = run_traced(wl, args.seconds, ledger, tracers)
            declared = [(n, u) for n, u, _, _ in PER_LAYER]
        else:
            metrics, extra = run_plain(wl, args.seconds, ledger)
            declared = [(n, u) for n, u, _, _ in END_TO_END]
    finally:
        wl.close()
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    report(args, ledger, extra)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared},
    }))
    return 0


def report(args, ledger, extra):
    """Human-readable lines before the JSON result."""
    frac = ledger.failed / max(ledger.attempted, 1)
    print(f"# failed_frac {frac:.6g} ({ledger.failed}/{ledger.attempted} operations)")
    if not args.trace:
        for name, value in extra["named"].items():
            print(f"# {name} {value:.6g} {'1/s' if name.endswith('_per_s') else 's'}")
        print(f"# {extra['setups']} set-ups, {extra['ops']} timed calls; wall s: "
              + " ".join(f"{v:.4f}" for v in extra["op_wall_s"]))
        print("# speed factors: " + " ".join(f"{v:.3f}" for v in extra["speeds"]))
    else:
        for key in ("missing_spans", "unresolved_spans"):
            if extra[key]:
                print(f"# {key.upper()} " + " ".join(extra[key]))
        spans = extra["passes"][0]["spans"]
        wall = extra["passes"][0]["wall"]
        by_module = {}
        for name, agg in spans.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + agg["self_s"]
        print(f"# traced pass wall {wall:.6g} s; self time by module:")
        for module, s in sorted(by_module.items(), key=lambda kv: -kv[1]):
            print(f"#   {module:12s} {s:10.6f} s  {100 * s / wall:5.1f}%")
        rest = wall - sum(by_module.values())
        print(f"#   {'(remainder)':12s} {rest:10.6f} s  {100 * rest / wall:5.1f}%")


if __name__ == "__main__":
    sys.exit(main())
