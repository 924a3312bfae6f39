"""Self-test of the vbma benchmark's own instrumentation.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seed N]

For each workload it runs the traced mode at its minimum length (one
untraced call, two traced passes on one seed) and fails when:

- a declared span never fires (a renamed or moved function shows up here,
  not as a zero in the per-layer metrics);
- an exact-repeat counter differs between the two traced passes, or traced
  outputs (q, fit artifacts, predictions) differ bitwise from untraced ones;
- any output check fails;
- a wrapper is left installed afterwards.

It also checks that ``BENCHMARK.json`` declares the workloads and metrics
that ``run.py`` reports.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from spans import SPAN_TARGETS, resolve


def check_declarations():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {name: cls.why for name, cls in run.WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != [(n, u, b) for n, u, b, _ in run.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def check_workload(vbma, name, seed):
    originals = {}
    for span, (mod, path) in SPAN_TARGETS.items():
        try:
            owner, attr = resolve(mod, path)
        except AttributeError:
            continue  # reported by the traced run as an unresolved span
        originals[span] = vars(owner)[attr]
    ledger = run.Ledger()
    wl = run.WORKLOADS[name](vbma, seed)
    try:
        metrics, extra = run.run_traced(wl, 0.0, ledger, [])
    finally:
        wl.close()
    problems = []
    if metrics is None:
        problems.append("no traced pass completed")
    else:
        if extra["missing_spans"]:
            problems.append(f"declared spans never fired: {extra['missing_spans']}")
        if extra["unresolved_spans"]:
            problems.append(f"span targets not found: {extra['unresolved_spans']}")
    if ledger.failed:
        problems.append(f"{ledger.failed}/{ledger.attempted} checks failed (see stderr)")
    for span, original in originals.items():
        owner, attr = resolve(*SPAN_TARGETS[span])
        if vars(owner)[attr] is not original:
            problems.append(f"wrapper for {span} left installed")
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    vbma = run.import_vbma()
    results = {"declarations": check_declarations()}
    for name in run.WORKLOADS:
        results[name] = check_workload(vbma, name, args.seed)
    for name, problems in results.items():
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for msg in problems:
            print(f"  {msg}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
