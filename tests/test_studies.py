"""Bundled study builders: preprocessing conventions and ensemble shapes."""

import numpy as np
import pytest

from vbma import studies
from vbma.models import GPModel, LinRegModel, LogisticModel


def test_crime_study_shape_and_centering():
    ds, models = studies.crime_study()
    assert len(models) == 8
    assert all(isinstance(m, LinRegModel) for m in models)
    assert sum(m.prior_weight for m in models) == pytest.approx(1.0)
    for col in ("y",) + studies.CRIME_PREDICTORS:
        assert abs(ds.column(col, "train").mean()) < 1e-10
    # g defaults to the training size
    assert all(m.g == ds.train_mask.sum() == 47 for m in models)


def test_crime_study_split():
    ds, models = studies.crime_study(train_fraction=0.5, split_seed=1)
    assert ds.train_mask.sum() == round(0.5 * 47)
    assert all(m.n == ds.train_mask.sum() for m in models)


def test_heart_study_shape():
    ds, models = studies.heart_study(prior_sd=7.0)
    assert len(models) == 32
    assert all(isinstance(m, LogisticModel) for m in models)
    assert all(m.prior_sd == 7.0 for m in models)
    # sex stays binary; continuous columns are log-centered
    assert set(np.unique(ds.column("sex"))) == {0.0, 1.0}
    assert abs(ds.column("chol").mean()) < 1e-10


def test_heart_study_explicit_bundled_path_matches_default():
    from vbma import data as data_io

    ds, models = studies.heart_study()
    ds2, models2 = studies.heart_study(path=data_io.bundled_path("heart.csv"))
    assert [m.name for m in models2] == [m.name for m in models]
    assert list(ds2.columns) == list(ds.columns)
    for name in ds.columns:
        assert np.array_equal(ds2.column(name), ds.column(name))
    for m, m2 in zip(models, models2):
        assert np.array_equal(m2.X, m.X) and np.array_equal(m2.y, m.y)
        assert m2.prior_weight == m.prior_weight


def test_heart_bf_pair_names_exist():
    _, models = studies.heart_study()
    names = {m.name for m in models}
    assert set(studies.HEART_BF_PAIR) <= names
    _, crime_models = studies.crime_study()
    assert set(studies.CRIME_BF_PAIR) <= {m.name for m in crime_models}


def test_gp_study_pair():
    ds, models = studies.gp_study(grid_size=6, n_test=6, seed=0)
    assert len(models) == 2
    assert all(isinstance(m, GPModel) for m in models)
    correct, wrong = models
    assert correct.free_mean and not wrong.free_mean
    y = ds.y("train")
    assert wrong.mean_offset == pytest.approx(y.mean() + 2.0 * y.std(ddof=1))


@pytest.mark.parametrize("grid_size, n_test, lattice", [
    (20, 100, (15, 20)),  # gp-fit's study: 300 training points, 15 full rows
    (5, 5, (4, 5)),
    (18, 24, (17, 18)),  # gp-predict's: 16 full rows and 12 points of the next
    (8, 4, (8, 8)),
])
def test_gp_study_takes_the_lattice_path_on_full_rows(grid_size, n_test, lattice):
    # the held-out frontier is the lattice's trailing rows, so the training
    # inputs are a full lattice when n_test is a multiple of grid_size, and
    # else one whose last row misses its trailing n_test % grid_size points
    _, models = studies.gp_study(grid_size=grid_size, n_test=n_test, seed=0)
    N = lattice[0] * lattice[1]
    holes = list(range(N - n_test % grid_size, N))
    assert [m.lattice for m in models] == [lattice, lattice]
    assert all(model.holes.tolist() == holes for model in models)


def test_gp_predictive_means_matches_direct_computation():
    from vbma import families, metrics
    from vbma.families import FamilyTag, VariationalState

    ds, models = studies.gp_study(grid_size=6, n_test=6, seed=0)
    model = models[0]
    # a point-mass variational state makes the average a single predict_dist
    theta = np.array([0.0, 1.0, 3.0, 3.0, 0.3])
    mu = np.array([0.0, 0.0, np.log(3.0), np.log(3.0), np.log(0.3)])
    state = VariationalState(
        mu, families.encode_scale(np.full(5, 1e-12)),
        (FamilyTag.NORMAL,) + (FamilyTag.LOGNORMAL,) * 4,
    )
    post = metrics.BmaPosterior([model], np.array([1.0]), [state])
    coords = np.column_stack([ds.column("x1", "test"), ds.column("x2", "test")])
    approx = metrics.predictive_means(post, coords, n_theta=3, seed=0)
    exact, _, _ = model.predict_dist(theta[None], coords)
    assert np.allclose(approx, exact[0], atol=1e-3)
