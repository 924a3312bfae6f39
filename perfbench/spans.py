"""In-memory span tracer that wraps the public functions of ``vbma`` modules.

Each wrapper is installed at the name its caller looks up at call time (a
module attribute or a class attribute), so the program's own code is left
untouched and re-exported aliases are never patched.  A span records its
name, start, end, parent span and the type of any exception it raised;
spans stay in memory
until the process exits.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# span name -> (module, attribute path) where callers look the function up
SPAN_TARGETS = {
    "autodiff.grad": ("vbma.autodiff", "grad"),
    "autodiff.backward": ("vbma.autodiff", "backward"),
    "autodiff.spd_logpdf": ("vbma.autodiff", "gaussian_spd_logpdf"),
    "families.sample": ("vbma.families", "sample"),
    "families.log_q": ("vbma.families", "log_q"),
    "families.reparam_jacobian": ("vbma.families", "reparam_jacobian"),
    "models.log_joint": ("vbma.models", "Model.log_joint"),
    "models.predict_dist": ("vbma.models", "GPModel.predict_dist"),
    "core.run": ("vbma.core", "run"),
    "core.estimate": ("vbma.core", "estimate_grad_and_elbo"),
    "core.update_weights": ("vbma.core", "update_weights"),
    "optimizers.step": ("vbma.optimizers", "Adam.step"),
    "metrics.bma_draw": ("vbma.metrics", "bma_draw"),
    "metrics.equal_tail_interval": ("vbma.metrics", "equal_tail_interval"),
    "metrics.coverage_curve": ("vbma.metrics", "coverage_curve"),
    "cli.build_ensemble": ("vbma.cli", "build_ensemble"),
    "cli.load_fit": ("vbma.cli", "load_fit"),
    "cli.fit": ("vbma.cli", "cmd_fit"),
    "cli.predict": ("vbma.cli", "cmd_predict"),
    "cli.coverage": ("vbma.cli", "cmd_coverage"),
    "studies.crime": ("vbma.studies", "crime_study"),
    "studies.gp": ("vbma.studies", "gp_study"),
    "data.load_csv": ("vbma.data", "load_csv"),
    "data.prepare": ("vbma.data", "prepare"),
    "data.synth_gp_dataset": ("vbma.data", "synth_gp_dataset"),
}


def resolve(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{attr_path} not found; was it renamed?")
    return owner, attr


class Tracer:
    """Records spans while installed; use as a context manager.

    Spans are rows ``[name, start, end, parent_index, child_time, error]``,
    where ``error`` is the type of the exception the call raised, or None.
    Single-threaded by design: the benchmark never sets ``threads``.
    """

    def __init__(self):
        self.spans = []
        self.unresolved = []  # span names whose function was not found
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for name, (module_name, attr_path) in SPAN_TARGETS.items():
                try:
                    owner, attr = resolve(module_name, attr_path)
                except AttributeError:
                    self.unresolved.append(name)
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            row = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                row[5] = type(err)
                raise
            finally:
                row[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += row[2] - row[1]

        return wrapper

    def summary(self):
        """Per span name: calls, exception types raised, total (inclusive) s,
        self s, durations."""
        out = defaultdict(lambda: {"calls": 0, "errors": [], "total_s": 0.0,
                                   "self_s": 0.0, "durations": []})
        for name, start, end, _, child, error in self.spans:
            agg = out[name]
            agg["calls"] += 1
            if error is not None:
                agg["errors"].append(error)
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
            agg["durations"].append(end - start)
        return out
