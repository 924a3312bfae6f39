"""Ingestion, preparation, splits, and the synthetic dataset generators."""

import tracemalloc

import numpy as np
import pytest

from vbma import data as data_io
from vbma.data import IngestionError


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- CSV loading --------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3,4\n")
    cols = data_io.load_csv(p)
    assert np.array_equal(cols["a"], [1.0, 3.0])
    assert np.array_equal(cols["b"], [2.0, 4.0])


def test_load_csv_subset_and_missing_column(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n")
    assert list(data_io.load_csv(p, columns=["b"])) == ["b"]
    with pytest.raises(IngestionError, match="missing columns"):
        data_io.load_csv(p, columns=["c"])


def test_load_csv_locates_bad_cell(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n1,oops\n")
    with pytest.raises(IngestionError, match="'oops'.*column 'b'"):
        data_io.load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_rejects_a_non_finite_cell(tmp_path, cell):
    # float() parses these, and a model fitted on them rejects every draw
    p = write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(IngestionError, match=f"non-finite cell '{cell}' at row 3, column 'b'"):
        data_io.load_csv(p)


def test_load_csv_locates_missing_value(tmp_path):
    p = write(tmp_path, "a,b\n1,\n")
    with pytest.raises(IngestionError, match="missing value"):
        data_io.load_csv(p)


def test_load_csv_locates_short_row(tmp_path):
    p = write(tmp_path, "a,b,c\n1,2,3\n4,5\n")
    with pytest.raises(IngestionError, match="row 3, column 'c'"):
        data_io.load_csv(p)
    assert list(data_io.load_csv(p, columns=("a", "b"))["b"]) == [2.0, 5.0]


@pytest.mark.parametrize("text, columns", [
    ("x,x,y\n1,2,3\n4,5,6\n7,8,9\n", None),
    ("x,y\n1,2\n", ["x", "y", "x"]),
], ids=["in-header", "in-columns"])
def test_load_csv_rejects_a_repeated_column_name(tmp_path, text, columns):
    # a repeated name would collect two columns' cells into one
    p = write(tmp_path, text)
    with pytest.raises(IngestionError, match="column 'x' is named more than once"):
        data_io.load_csv(p, columns=columns)


def test_load_csv_empty_inputs(tmp_path):
    with pytest.raises(IngestionError, match="empty"):
        data_io.load_csv(write(tmp_path, ""))
    with pytest.raises(IngestionError, match="no data rows"):
        data_io.load_csv(write(tmp_path, "a,b\n"))


def test_load_csv_skips_comment_lines(tmp_path):
    p = write(tmp_path, "# provenance note\na\n1\n")
    assert np.array_equal(data_io.load_csv(p)["a"], [1.0])


def test_round_trip_write_then_load(tmp_path):
    cols = {"x": np.array([1.25, -3.5]), "y": np.array([0.0, 7.0])}
    p = tmp_path / "rt.csv"
    data_io.write_csv(p, list(cols), zip(*cols.values()), header_comments=["note"])
    back = data_io.load_csv(p)
    for k in cols:
        assert np.array_equal(back[k], cols[k])


# -- preparation --------------------------------------------------------------


def test_prepare_centers_training_rows_only():
    cols = {"x": np.array([1.0, 2.0, 9.0]), "y": np.array([0.0, 0.0, 0.0])}
    ds = data_io.prepare(cols, "y", center_columns=("x",), train_fraction=2 / 3, split_seed=0)
    mask = data_io.split_mask(3, 2 / 3, 0)
    assert np.array_equal(ds.train_mask, mask) and mask.sum() == 2
    assert abs(ds.column("x", "train").mean()) < 1e-10
    assert ds.column("x", "test")[0] == pytest.approx(cols["x"][~mask][0] - cols["x"][mask].mean())


def test_prepare_constant_column_centers_to_zero():
    cols = {"x": np.full(5, 3.3), "y": np.zeros(5)}
    ds = data_io.prepare(cols, "y", center_columns=("x",))
    assert np.allclose(ds.column("x"), 0.0)


def test_prepare_log_of_e_column():
    cols = {"x": np.full(4, np.e), "y": np.zeros(4)}
    ds = data_io.prepare(cols, "y", log_columns=("x",))
    assert np.allclose(ds.column("x"), 1.0)
    ds2 = data_io.prepare(cols, "y", log_columns=("x",), center_columns=("x",))
    assert np.allclose(ds2.column("x"), 0.0)


def test_prepare_rejects_nonpositive_under_log():
    cols = {"x": np.array([1.0, -2.0]), "y": np.zeros(2)}
    with pytest.raises(IngestionError, match="row 2"):
        data_io.prepare(cols, "y", log_columns=("x",))


def test_dataset_rejects_ragged_columns():
    with pytest.raises(IngestionError):
        data_io.Dataset({"a": np.zeros(2), "b": np.zeros(3)}, "a")


# -- splits -------------------------------------------------------------------


def test_split_mask_size_and_reproducibility():
    m1 = data_io.split_mask(47, 0.5, seed=4)
    m2 = data_io.split_mask(47, 0.5, seed=4)
    assert m1.sum() == round(0.5 * 47)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, data_io.split_mask(47, 0.5, seed=5))


def test_split_mask_edge_fractions():
    assert data_io.split_mask(10, 1.0, 0).all()
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match="train_fraction"):
            data_io.split_mask(10, fraction, 0)
    assert data_io.split_mask(10, 0.06, 0).sum() == 1  # round(0.6) rows
    with pytest.raises(ValueError, match=r"train_fraction 0.04 leaves no training rows out of 10"):
        data_io.split_mask(10, 0.04, 0)


# -- synthetic lattice surface ------------------------------------------------


def test_sq_exp_kernel_values():
    coords = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    K = data_io.sq_exp_kernel(coords, eta=2.0, nu1=3.0, nu2=2.0)
    assert K[0, 0] == pytest.approx(4.0)
    assert K[0, 1] == pytest.approx(4.0 * np.exp(-(9.0) / (2 * 9.0)))
    assert K[0, 2] == pytest.approx(4.0 * np.exp(-(16.0) / (2 * 4.0)))


def test_synth_gp_nugget_dominates_when_signal_vanishes():
    # eta -> 0: y is nearly i.i.d. noise, variance ~ sigma^2
    ds = data_io.synth_gp_dataset(grid_size=20, eta=1e-4, sigma=0.8, seed=2, n_test=0)
    y = ds.y()
    assert y.var() == pytest.approx(0.64, rel=0.10)
    lattice = y.reshape(20, 20)
    r = np.corrcoef(lattice[:, :-1].ravel(), lattice[:, 1:].ravel())[0, 1]
    assert abs(r) < 0.1


def test_synth_gp_smooth_surface_is_autocorrelated():
    ds = data_io.synth_gp_dataset(grid_size=20, eta=1.0, nu1=3.0, nu2=3.0,
                                  sigma=0.05, seed=3, n_test=0)
    lattice = ds.y().reshape(20, 20)
    r = np.corrcoef(lattice[:, :-1].ravel(), lattice[:, 1:].ravel())[0, 1]
    assert r > 0.8


def test_synth_gp_reproducible_and_frontier_heldout():
    a = data_io.synth_gp_dataset(seed=9)
    b = data_io.synth_gp_dataset(seed=9)
    assert np.array_equal(a.y("all"), b.y("all"))
    assert a.train_mask.sum() == 300 and (~a.train_mask).sum() == 100
    # test region is the trailing (frontier) block of the lattice
    assert not a.train_mask[-100:].any()


def test_synth_gp_covariance_is_the_kernel_plus_noise():
    # 4000 seeded 3 x 3 surfaces with nu1 != nu2: the sample covariance about
    # the known mean 0 matches sq_exp_kernel + sigma^2 I within 5 standard
    # errors, sqrt((C_ii C_jj + C_ij^2) / M) for Gaussian rows, in every
    # entry.  The covariance with the axes swapped, which a swapped range or
    # an x2-major vec would give, is off by far more.
    m, nu1, nu2 = 4000, 0.8, 2.5
    ys = np.array([data_io.synth_gp_dataset(grid_size=3, nu1=nu1, nu2=nu2, sigma=0.3,
                                            seed=s, n_test=0).y() for s in range(m)])
    coords = np.column_stack([np.repeat(np.arange(3.0), 3), np.tile(np.arange(3.0), 3)])
    sample = ys.T @ ys / m

    def worst_z(nu_a, nu_b):
        c = data_io.sq_exp_kernel(coords, 1.0, nu_a, nu_b) + 0.09 * np.eye(9)
        se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c**2) / m)
        return np.abs((sample - c) / se).max()

    assert worst_z(nu1, nu2) < 5
    assert worst_z(nu2, nu1) > 20


def test_synth_gp_forms_no_n_by_n_array():
    # n = 10^4: one n x n float array would be 800 MB
    tracemalloc.start()
    try:
        ds = data_io.synth_gp_dataset(grid_size=100, n_test=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == 10_000 and np.isfinite(ds.y()).all()
    assert peak < 8e6


def test_synth_gp_rejects_bad_hyperparameters():
    with pytest.raises(ValueError):
        data_io.synth_gp_dataset(eta=-1.0)


@pytest.mark.parametrize("n_test", [30, -3])
def test_synth_gp_rejects_n_test_outside_the_lattice(n_test):
    # a held-out block larger than the 25-row lattice wrapped, a negative
    # one held out nothing
    with pytest.raises(ValueError, match=rf"n_test must be in 0 \.\.\. 25 .*got {n_test}"):
        data_io.synth_gp_dataset(grid_size=5, n_test=n_test)


# -- bundled tables -----------------------------------------------------------


def test_bundled_crime_table_statistics():
    cols = data_io.load_csv(data_io.bundled_path("crime.csv"))
    y = cols["y"]
    assert len(y) == 47
    # spot checks against independently published summaries of this table
    assert y.mean() == pytest.approx(905.0851, abs=0.01)
    assert np.corrcoef(y, cols["Po1"])[0, 1] == pytest.approx(0.6876, abs=0.001)


def test_bundled_heart_table_regenerates_from_documented_recipe():
    bundled = data_io.load_csv(data_io.bundled_path("heart.csv"))
    fresh = data_io.synth_heart_dataset()
    assert set(bundled) == set(fresh)
    for k in fresh:
        assert np.allclose(bundled[k], fresh[k])


def test_heart_generator_seed_sensitivity():
    a = data_io.synth_heart_dataset(seed=1)
    b = data_io.synth_heart_dataset(seed=2)
    assert not np.array_equal(a["y"], b["y"])
