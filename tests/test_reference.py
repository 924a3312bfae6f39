"""Short seeded fits of the bundled studies compared with checked-in values.

``reference_values.json`` holds, for each fit, the final q, each model's last
ELBO estimate and each model's variational ``mu``/``raw_scale``.  They are
compared at 1e-10 relative, not bitwise, since BLAS differs between machines.
A change that moves these numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_reference.py

and says so in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from vbma import core, studies

REFERENCE = Path(__file__).with_name("reference_values.json")
SEED = 11

FITS = {
    "crime": (lambda: studies.crime_study()[1],
              dict(pretrain_iters=20, joint_iters=10, window=5)),
    "heart": (lambda: studies.heart_study()[1],
              dict(pretrain_iters=10, joint_iters=5, window=3)),
    "gp": (lambda: studies.gp_study(grid_size=8, n_test=4)[1],
           dict(pretrain_iters=3, joint_iters=3, window=2)),
}


def fit_values(name):
    build, budget = FITS[name]
    models = build()
    state = core.run(core.VbmaConfig(n_samples=10, seed=SEED, **budget), models)
    return {
        "q": state.q.tolist(),
        "models": {
            m.name: {"elbo": float(trace[-1]), "mu": vs.mu.tolist(),
                     "raw_scale": vs.raw_scale.tolist()}
            for m, trace, vs in zip(models, state.elbo_trace, state.variational)
        },
    }


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_matches_reference_values(name):
    expected = json.loads(REFERENCE.read_text())[name]
    got = fit_values(name)
    np.testing.assert_allclose(got["q"], expected["q"], rtol=1e-10, atol=0)
    assert list(got["models"]) == list(expected["models"])
    for model, want in expected["models"].items():
        have = got["models"][model]
        for key in ("elbo", "mu", "raw_scale"):
            np.testing.assert_allclose(have[key], want[key], rtol=1e-10, atol=0,
                                       err_msg=f"{name} {model} {key}")


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps({n: fit_values(n) for n in sorted(FITS)}, indent=1) + "\n")
