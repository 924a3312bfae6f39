"""End-to-end acceptance checks.

Each test covers one numbered criterion (or sub-clause) at its stated
tolerance and prints a single PASS/FAIL line; with ``pytest -v`` the test
names themselves give the per-criterion ledger. The three study pipelines run
once each at module scope, so this file takes several minutes.

Each criterion is checked against a reference that belongs to the data it
runs on.  On the bundled crime table that reference is the exact posterior
from the closed-form Zellner evidence: 1a (weights), 2b and 3a (Bayes factor)
compare VBMA with it.  Published values are used only where they describe the
same setup:

- 2a compares the closed-form crime probabilities with the MC3 column of the
  paper's Table 1.  It fails: the closed form is exact for the documented
  g = n, log-and-center setup, which misses the table by up to 0.23, and the
  paper's own setup (prior, transforms, model space) is not recorded here.
- 4b and 4c quote the real 303-subject heart table, which is not
  redistributable.  They run only when ``VBMA_HEART_CSV`` names a copy of it
  (columns ``studies.HEART_COLUMNS``) and are skipped otherwise; the bundled
  ``heart.csv`` is a synthetic stand-in with a zero age coefficient.  When
  the real table is given, every criterion that reads the heart fit uses it.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from vbma import autodiff as ad
from vbma import core, evidence, families, metrics, studies
from vbma.core import VbmaConfig, estimate_grad_and_elbo, update_weights
from vbma.families import VariationalState
from vbma.metrics import BmaPosterior, bayes_factor
from vbma.models import GaussianMeanModel, GPModel


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


# -- study fixtures (run once) ------------------------------------------------


@pytest.fixture(scope="module")
def crime_fit():
    ds, models = studies.crime_study()
    cfg = VbmaConfig(n_samples=10, pretrain_iters=500, joint_iters=200,
                     window=100, seed=1)
    t0 = time.perf_counter()
    state = core.run(cfg, models)
    runtime = time.perf_counter() - t0
    ests = [evidence.zellner_log_evidence(m) for m in models]
    exact = evidence.evidence_to_posterior(ests, [m.prior_weight for m in models])
    return ds, models, state, exact, runtime


HEART_CSV = os.environ.get("VBMA_HEART_CSV", "")
REAL_HEART = bool(HEART_CSV) and os.path.exists(HEART_CSV)
needs_real_heart = pytest.mark.skipif(
    not REAL_HEART,
    reason="needs the real 303-subject heart table at $VBMA_HEART_CSV; "
           "the bundled heart.csv is a synthetic stand-in")


@pytest.fixture(scope="module")
def heart_fit():
    ds, models = studies.heart_study(path=HEART_CSV if REAL_HEART else None)
    cfg = VbmaConfig(n_samples=10, pretrain_iters=500, joint_iters=200,
                     window=100, seed=0)
    state = core.run(cfg, models)
    return ds, models, state


@pytest.fixture(scope="module")
def gp_fit():
    ds, models = studies.gp_study()
    cfg = VbmaConfig(n_samples=10, pretrain_iters=500, joint_iters=200,
                     window=100, seed=0)
    t0 = time.perf_counter()
    state = core.run(cfg, models)
    runtime = time.perf_counter() - t0
    return ds, models, state, runtime


def weight_of(models, q, name):
    return float(q[[m.name for m in models].index(name)])


# Table 1 of the paper: top four crime models and their MC3 probabilities.
# Under equal model priors this table gives studies.CRIME_BF_PAIR a Bayes
# factor of 0.58/0.11 ~ 5.3 (0.57/0.11 ~ 5.2 in its VBMA column), outside the
# published range [2.0, 4.0] that 3a was written against.  The source does not
# say whether the pair or the range is misquoted, so 3a takes the width of
# that range (2*sqrt(2) times or over sqrt(2)) around the exact Bayes factor.
TABLE1_TOP4 = ("lin:Prob", "lin:Prob+Ed", "lin:M+Prob", "lin:M+Prob+Ed")
TABLE1_MC3 = (0.58, 0.17, 0.11, 0.07)
HEART_TOP = "logit:chol+trestbps+sex+thalach"
HEART_FULL = "logit:chol+trestbps+sex+age+thalach"


# -- criterion 1: crime model probabilities vs the exact posterior -----------


def test_criterion_1a_crime_table_weights(crime_fit):
    ds, models, state, exact, runtime = crime_fit
    q = state.q
    top = np.argsort(q)[::-1][:4]
    exact_top = np.argsort(exact)[::-1][:4]
    dev = np.abs(q[exact_top] - exact[exact_top]).max()
    ok = list(top) == list(exact_top) and dev <= 0.07
    report("1a", ok,
           f"top4={[models[i].name for i in top]} weights={q[top].round(3).tolist()} "
           f"vs closed-form top4={[models[i].name for i in exact_top]} "
           f"{exact[exact_top].round(3).tolist()} (max dev {dev:.3f}, tol 0.07)")


def test_criterion_1b_crime_runtime(crime_fit):
    *_, runtime = crime_fit
    report("1b", runtime < 120.0, f"crime ensemble runtime {runtime:.1f}s < 120s")


# -- criterion 2: exact-oracle agreement --------------------------------------


def test_criterion_2a_closed_form_vs_published_mc3(crime_fit):
    ds, models, state, exact, _ = crime_fit
    devs = [abs(weight_of(models, exact, n) - v)
            for n, v in zip(TABLE1_TOP4, TABLE1_MC3)]
    report("2a", max(devs) <= 0.01,
           f"closed-form probs {[round(weight_of(models, exact, n), 3) for n in TABLE1_TOP4]}"
           f" vs published {TABLE1_MC3} (tol 0.01, max dev {max(devs):.3f}); "
           "the closed form is exact for the documented g = n, log-and-center "
           "setup, and the paper's Table 1 setup is not recorded in the repository")


def test_criterion_2b_vbma_vs_closed_form(crime_fit):
    ds, models, state, exact, _ = crime_fit
    devs = np.abs(state.q - exact)
    report("2b", devs.max() <= 0.06,
           f"max |vbma - closed form| = {devs.max():.3f} (tol 0.06)")


# -- criterion 3: Bayes factors -----------------------------------------------


def crime_bf(models, q):
    names = [m.name for m in models]
    priors = np.array([m.prior_weight for m in models])
    i, j = names.index(studies.CRIME_BF_PAIR[0]), names.index(studies.CRIME_BF_PAIR[1])
    return bayes_factor(q, priors, i, j)


def heart_bf(models, q):
    names = [m.name for m in models]
    priors = np.array([m.prior_weight for m in models])
    i, j = names.index(studies.HEART_BF_PAIR[0]), names.index(studies.HEART_BF_PAIR[1])
    return bayes_factor(q, priors, i, j)


def test_criterion_3a_crime_bf_range(crime_fit):
    _, models, state, exact, _ = crime_fit
    bf, oracle = crime_bf(models, state.q), crime_bf(models, exact)
    ratio = abs(math.log(bf / oracle))
    report("3a", ratio <= 0.5 * math.log(2.0),
           f"crime BF (drop first predictor) vbma={bf:.2f}, oracle={oracle:.2f}, "
           f"|log ratio| {ratio:.3f} (tol log(2)/2 = {0.5 * math.log(2.0):.3f}, "
           "the width of the published range [2.0, 4.0])")


def test_criterion_3b_heart_bf_range(heart_fit):
    _, models, state = heart_fit
    bf = heart_bf(models, state.q)
    report("3b", 0.10 <= bf <= 0.35,
           f"heart BF (drop first predictor) vbma={bf:.3f}, published range [0.10, 0.35]")


def test_criterion_3c_bf_directions(crime_fit, heart_fit):
    _, cm, cs, _, _ = crime_fit
    _, hm, hs = heart_fit
    c, h = crime_bf(cm, cs.q), heart_bf(hm, hs.q)
    report("3c", c > 1.0 and h < 1.0,
           f"directions: crime {c:.2f} > 1 (favoring the smaller model), "
           f"heart {h:.3f} < 1 (favoring inclusion)")


# -- criterion 4: logistic ensemble -------------------------------------------


def test_criterion_4a_heart_top_model(heart_fit):
    _, models, state = heart_fit
    top = models[int(np.argmax(state.q))].name
    report("4a", top == HEART_TOP, f"top model {top} (expected {HEART_TOP})")


@needs_real_heart
def test_criterion_4b_heart_top_weight(heart_fit):
    _, models, state = heart_fit
    w = weight_of(models, state.q, HEART_TOP)
    report("4b", abs(w - 0.43) <= 0.10,
           f"top-model weight {w:.3f} vs published 0.43 (tol 0.10)")


@needs_real_heart
def test_criterion_4c_heart_top_two_order(heart_fit):
    _, models, state = heart_fit
    order = [models[i].name for i in np.argsort(state.q)[::-1][:2]]
    report("4c", order == [HEART_TOP, HEART_FULL],
           f"top two {order} (published: top then full model)")


# -- criterion 5: conjugate recovery ------------------------------------------


@pytest.fixture(scope="module")
def conjugate_fit():
    y = np.random.default_rng(0).normal(0.7, 1.0, size=25)
    model = GaussianMeanModel(y, obs_sd=1.0, prior_mean=0.0, prior_sd=1.0)
    cfg = VbmaConfig(n_samples=10, pretrain_iters=1500, joint_iters=100,
                     window=50, seed=2)
    return model, core.run(cfg, [model])


def test_criterion_5_conjugate_recovery(conjugate_fit):
    model, state = conjugate_fit
    mean, sd = model.posterior()
    vs = state.variational[0]
    elbo_tail = float(np.mean(state.elbo_trace[0][-100:]))
    dm = abs(vs.mu[0] - mean)
    dsd = abs(float(vs.sd()[0]) - sd)
    dev = abs(elbo_tail - model.log_evidence())
    report("5", dm <= 1e-2 and dsd <= 1e-2 and dev <= 0.05,
           f"|mu err|={dm:.4f}, |sd err|={dsd:.4f} (tol 1e-2); "
           f"|ELBO - log evidence|={dev:.4f} nats (tol 0.05)")


# -- criterion 6: gradient unbiasedness ---------------------------------------


def test_criterion_6_gradient_unbiasedness():
    y = np.random.default_rng(0).normal(0.7, 1.0, size=25)
    model = GaussianMeanModel(y, obs_sd=1.0, prior_mean=0.0, prior_sd=1.0)
    state = VariationalState(np.array([0.0]), families.encode_scale(np.array([0.5])), [0.0])
    lam = np.concatenate([state.mu, state.raw_scale])

    def analytic_elbo(l):
        m, s2 = l[0], float(ad.softplus(l[1]))
        e_ll = -0.5 * 25 * np.log(2 * np.pi) - (np.sum((y - m) ** 2) + 25 * s2) / 2.0
        e_lp = -0.5 * np.log(2 * np.pi) - (m**2 + s2) / 2.0
        return e_ll + e_lp + 0.5 * np.log(2 * np.pi * np.e * s2)

    h = 1e-6
    truth = np.array([
        (analytic_elbo(lam + e) - analytic_elbo(lam - e)) / (2 * h)
        for e in (np.array([h, 0.0]), np.array([0.0, h]))
    ])
    rng = np.random.default_rng(7)
    total = np.zeros(2)
    for _ in range(10_000):
        G, _ = estimate_grad_and_elbo(model, state, rng.standard_normal((1, 1)))
        total += G
    rel = np.abs(total / 10_000 - truth) / np.abs(truth)
    report("6", bool(np.all(rel < 0.02)),
           f"mean of 1e4 single-sample gradients vs analytic: rel err {rel.round(4)} (tol 2%)")


# -- criterion 7: GP study ----------------------------------------------------


def test_criterion_7a_gp_selects_generating_model(gp_fit):
    ds, models, state, _ = gp_fit
    q_true = weight_of(models, state.q, "gp:free-mean")
    report("7a", q_true > 0.9, f"q(generating model) = {q_true:.4f} > 0.9")


def test_criterion_7b_gp_rmse_vs_oracle(gp_fit):
    ds, models, state, _ = gp_fit
    coords_test = np.column_stack([ds.column("x1", "test"), ds.column("x2", "test")])
    y_test = ds.y("test")
    post = BmaPosterior(models, state.q, state.variational)
    pred = metrics.predictive_means(post, coords_test, n_theta=50, seed=3)
    vbma_rmse = metrics.rmse(pred, y_test)
    coords_tr = np.column_stack([ds.column("x1", "train"), ds.column("x2", "train")])
    oracle = GPModel(coords_tr, ds.y("train"), free_mean=False, mean_offset=0.0)
    om, _, _ = oracle.predict_dist(np.array([[1.0, 3.0, 3.0, 0.3]]), coords_test)
    oracle_rmse = metrics.rmse(om[0], y_test)
    ratio = vbma_rmse / oracle_rmse
    report("7b", ratio <= 1.05,
           f"rmse {vbma_rmse:.4f} vs exact-hyperparameter oracle {oracle_rmse:.4f} "
           f"(ratio {ratio:.3f}, tol 1.05)")


def test_criterion_7c_gp_runtime(gp_fit):
    *_, runtime = gp_fit
    report("7c", runtime < 600.0, f"GP study runtime {runtime:.0f}s < 600s at n=300")


# -- criterion 8: property suites ---------------------------------------------


def test_criterion_8a_simplex_every_iteration():
    y = np.random.default_rng(3).normal(size=12)
    models = [GaussianMeanModel(y, prior_sd=s, name=f"m{s}") for s in (1.0, 3.0)]
    for m in models:
        m.prior_weight = 0.5
    sums = []
    core.run(VbmaConfig(n_samples=5, pretrain_iters=15, joint_iters=25, window=10, seed=0),
             models, progress=lambda s: sums.append(abs(s.q.sum() - 1.0)))
    report("8a", max(sums) < 1e-12, f"max |sum(q) - 1| over iterations = {max(sums):.1e}")


def test_criterion_8b_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        elbos = rng.normal(scale=20, size=4)
        lp = np.log(rng.dirichlet(np.ones(4)))
        shift = rng.normal(scale=500)
        worst = max(worst, np.abs(update_weights(elbos, lp)
                                  - update_weights(elbos + shift, lp)).max())
    report("8b", worst < 1e-12, f"max weight change under ELBO shifts = {worst:.1e}")


def test_criterion_8c_elbo_bounded_by_evidence(conjugate_fit):
    model, state = conjugate_fit
    tail = np.array(state.elbo_trace[0][-100:])
    se = tail.std(ddof=1) / np.sqrt(len(tail))
    slack = model.log_evidence() + 3 * se + 1e-9 - tail.mean()
    report("8c", slack >= 0.0,
           f"mean ELBO {tail.mean():.4f} <= log evidence {model.log_evidence():.4f} + 3se")


def test_criterion_8d_bf_multiplicativity(crime_fit):
    _, models, state, _, _ = crime_fit
    priors = np.array([m.prior_weight for m in models])
    q = state.q
    worst = 0.0
    for i, j, k in ((0, 1, 2), (1, 3, 5), (2, 4, 7)):
        lhs = bayes_factor(q, priors, i, j) * bayes_factor(q, priors, j, k)
        rhs = bayes_factor(q, priors, i, k)
        worst = max(worst, abs(lhs / rhs - 1.0))
    report("8d", worst < 1e-9, f"max |B_ij B_jk / B_ik - 1| = {worst:.1e}")


def test_criterion_8e_seeded_bitwise_determinism():
    def one():
        ds, models = studies.crime_study()
        cfg = VbmaConfig(n_samples=4, pretrain_iters=20, joint_iters=15, window=5,
                         seed=6)
        return core.run(cfg, models)

    a, b = one(), one()
    same_q = np.array_equal(a.q, b.q)
    same_tr = a.elbo_trace == b.elbo_trace
    same_vs = all(
        np.array_equal(x.mu, y.mu) and np.array_equal(x.raw_scale, y.raw_scale)
        for x, y in zip(a.variational, b.variational)
    )
    report("8e", same_q and same_tr and same_vs,
           "identical seeds give bitwise-identical runs")


def test_criterion_8f_reparametrized_samples_pass_ks():
    normal = VariationalState(np.array([1.5]), families.encode_scale(np.array([0.49])), [0.0])
    logn = VariationalState(np.array([0.5]), families.encode_scale(np.array([0.25])), [1.0])
    rng = np.random.default_rng(0)
    dn = np.array([families.sample(normal, rng.standard_normal(1))[0] for _ in range(4000)])
    dl = np.array([families.sample(logn, rng.standard_normal(1))[0] for _ in range(4000)])
    p1 = stats.kstest(dn, stats.norm(1.5, 0.7).cdf).pvalue
    p2 = stats.kstest(dl, stats.lognorm(s=0.5, scale=np.exp(0.5)).cdf).pvalue
    report("8f", p1 > 0.01 and p2 > 0.01,
           f"KS p-values: normal {p1:.3f}, log-normal {p2:.3f} (> 0.01)")


def test_criterion_8g_finite_difference_every_model(crime_fit, heart_fit):
    _, crime_models, *_ = crime_fit
    _, heart_models, _ = heart_fit
    gp, gp_offset = studies.gp_study(grid_size=5, n_test=5)[1]
    conj = GaussianMeanModel(np.random.default_rng(0).normal(size=8))
    checks = {
        "linear": (crime_models[-1], np.array([0.1, 0.5, -0.3, 0.8, 2.0])),
        "logistic": (heart_models[-1], np.array([0.2, 0.5, -0.4, 0.3, 0.1, -0.6])),
        "gp": (gp, np.array([0.1, 0.9, 2.0, 3.0, 0.6])),
        "gp:offset-mean": (gp_offset, np.array([0.9, 2.0, 3.0, 0.6])),
        "conjugate": (conj, np.array([0.4])),
    }
    worst = {}
    for label, (model, theta) in checks.items():
        worst[label] = ad.finite_diff_check(model.log_joint, theta, h=1e-5)
    ok = all(v < 1e-4 for v in worst.values())
    report("8g", ok, "max FD discrepancy per model: "
           + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))
