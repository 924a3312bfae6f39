"""Dataset ingestion: CSV loading, log/center preparation with its
train/test split, and the synthetic 2-D lattice generator for the
Gaussian-process study.

A prepared dataset holds the transformed columns only: models fit, predict
and report on that scale, and nothing maps a prediction back to the
original units.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np


class IngestionError(ValueError):
    pass


@dataclass
class Dataset:
    columns: dict  # name -> 1-d float array
    response: str
    train_mask: np.ndarray = None  # bool per row; None = all training

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise IngestionError("columns have unequal lengths")
        if self.train_mask is None:
            self.train_mask = np.ones(self.n, dtype=bool)

    @property
    def n(self):
        return len(next(iter(self.columns.values())))

    def column(self, name, rows="all"):
        x = self.columns[name]
        if rows == "train":
            return x[self.train_mask]
        if rows == "test":
            return x[~self.train_mask]
        return x

    @property
    def inputs(self):
        """Names of the non-response columns, in table order."""
        return tuple(n for n in self.columns if n != self.response)

    def design(self, names, rows="train"):
        """Stacked design matrix (no intercept column) for the named predictors;
        ``(n_rows, 0)`` when ``names`` is empty."""
        if not names:
            return np.zeros((len(self.y(rows)), 0))
        return np.column_stack([self.column(n, rows) for n in names])

    def y(self, rows="train"):
        return self.column(self.response, rows)


def load_csv(path, columns=None):
    """Read a CSV into a Dataset-ready column dict.

    ``columns`` restricts and validates the header; every requested cell must
    parse as a finite float.  Errors name the offending row/column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.lstrip().startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file")
        header = [h.strip() for h in header]
        wanted = list(columns) if columns is not None else header
        repeated = [c for names in (header, wanted) for i, c in enumerate(names) if c in names[:i]]
        if repeated:
            raise IngestionError(f"{path}: column {repeated[0]!r} is named more than once")
        missing = [c for c in wanted if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing columns {missing}")
        idx = {c: header.index(c) for c in wanted}
        data = {c: [] for c in wanted}
        nrows = 0
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            for c in wanted:
                try:
                    cell = row[idx[c]].strip()
                except IndexError:  # a row shorter than the header
                    cell = ""
                if cell == "":
                    raise IngestionError(f"{path}: missing value at row {rownum}, column '{c}'")
                try:
                    value = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}: unparseable cell '{cell}' at row {rownum}, column '{c}'"
                    )
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{path}: non-finite cell '{cell}' at row {rownum}, column '{c}'")
                data[c].append(value)
            nrows += 1
    if nrows == 0:
        raise IngestionError(f"{path}: no data rows")
    return {c: np.array(v) for c, v in data.items()}


def bundled_path(name):
    """Path of a CSV shipped with the package."""
    return importlib.resources.files("vbma.datasets").joinpath(name)


def prepare(columns, response, log_columns=(), center_columns=(), train_fraction=1.0,
            split_seed=0):
    """Log-transform then center the named columns, with
    ``split_mask(n, train_fraction, split_seed)`` as the training rows (by
    default, every row).

    Centering offsets are computed on training rows only, so held-out rows
    do not leak into the transform.  A ``response``, log or center name that
    is not a column raises ``IngestionError``.
    """
    missing = [name for name in (response, *log_columns, *center_columns) if name not in columns]
    if missing:
        raise IngestionError(f"no column {missing[0]!r} (columns: {', '.join(columns)})")
    out = {}
    mask = split_mask(len(next(iter(columns.values()))), train_fraction, split_seed)
    for name, x in columns.items():
        x = np.asarray(x, dtype=float).copy()
        if name in log_columns:
            bad = np.flatnonzero(x <= 0)
            if bad.size:
                raise IngestionError(
                    f"column '{name}': nonpositive value at row {bad[0] + 1} under log transform"
                )
            x = np.log(x)
        if name in center_columns:
            x = x - float(np.mean(x[mask]))
        out[name] = x
    return Dataset(out, response, train_mask=mask)


def split_mask(n, fraction, seed):
    """Reproducible boolean training mask with round(fraction * n) True rows."""
    if not 0 < fraction <= 1:
        raise ValueError(f"train_fraction must be in (0, 1], got {fraction}")
    if fraction == 1:
        return np.ones(n, dtype=bool)
    n_train = int(round(fraction * n))
    if not n_train:
        raise ValueError(f"train_fraction {fraction} leaves no training rows out of {n}")
    rng = np.random.default_rng(seed)
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[:n_train]] = True
    return mask


def sq_exp_kernel(coords, eta, nu1, nu2, other=None):
    """Squared-exponential kernel on 2-d inputs with per-axis ranges, between
    the rows of ``coords`` and those of ``other`` (default: ``coords``)."""
    coords = np.asarray(coords, dtype=float)
    other = coords if other is None else np.asarray(other, dtype=float)
    d1 = coords[:, 0][:, None] - other[:, 0][None, :]
    d2 = coords[:, 1][:, None] - other[:, 1][None, :]
    # eta^2 exp(-d1^2 / 2 nu1^2 - d2^2 / 2 nu2^2), in d1's and d2's storage
    np.negative(np.square(d1, out=d1), out=d1)
    d1 /= 2.0 * nu1**2
    np.square(d2, out=d2)
    d2 /= 2.0 * nu2**2
    d1 -= d2
    np.exp(d1, out=d1)
    d1 *= eta**2
    return d1


def synth_gp_dataset(grid_size=20, beta=0.0, eta=1.0, nu1=3.0, nu2=3.0, sigma=0.3,
                     seed=0, n_test=100):
    """Draw a surface from a constant-mean GP on an integer g x g lattice.

    Rows are in x1-major order (x2 varies fastest).  The surface is drawn
    from the lattice's Kronecker factors, with no n x n array:
    y = beta + eta * vec(L1 Z L2^T) + sigma * eps, where L1 and L2 are the
    Cholesky factors of the g x g squared-exponential factors on the x1 axis
    (range nu1) and the x2 axis (range nu2), each with 1e-8 added to its
    diagonal, and Z (g x g), then eps (n), come from one
    ``default_rng(seed)``.  The covariance is
    eta^2 (A1 + 1e-8 I) kron (A2 + 1e-8 I) + sigma^2 I, the kernel's
    ``sq_exp_kernel(coords, eta, nu1, nu2) + sigma^2 I`` up to the jitter.

    The test set is a contiguous frontier region (the trailing ``n_test``
    rows of the lattice, 0 <= n_test <= grid_size**2), mimicking
    extrapolation beyond the training domain.  The surface is drawn before
    the split, so ``n_test`` does not change ``y``.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    for name, v in (("eta", eta), ("nu1", nu1), ("nu2", nu2)):
        if v <= 0:
            raise ValueError(f"{name} must be positive")
    g1, g2 = np.meshgrid(np.arange(grid_size), np.arange(grid_size), indexing="ij")
    coords = np.column_stack([g1.ravel(), g2.ravel()]).astype(float)
    n = coords.shape[0]
    if not 0 <= n_test <= n:
        raise ValueError(f"n_test must be in 0 ... {n} (grid_size**2), got {n_test}")
    axis = np.arange(grid_size, dtype=float)
    # a factor's smallest eigenvalue is ~1e-12 at g = 20 and nu = 3, so its
    # Cholesky needs the jitter
    L1, L2 = (np.linalg.cholesky(np.exp(-np.subtract.outer(axis, axis) ** 2 / (2.0 * nu**2))
                                 + 1e-8 * np.eye(grid_size)) for nu in (nu1, nu2))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((grid_size, grid_size))
    y = beta + eta * (L1 @ z @ L2.T).ravel() + sigma * rng.standard_normal(n)
    mask = np.ones(n, dtype=bool)
    mask[n - n_test:] = False  # frontier rows held out
    return Dataset(
        {"x1": coords[:, 0], "x2": coords[:, 1], "y": y},
        response="y",
        train_mask=mask,
    )


def synth_heart_dataset(n=303, seed=1):
    """Synthetic heart-disease-style table (documented stand-in).

    The original clinical table is not redistributable here, so the bundled
    copy is generated by this function instead: marginal means/sds and the
    correlation structure follow published summaries of the well-known
    303-subject table (age 54.4 +- 9.0, resting blood pressure 131.6 +- 17.5,
    cholesterol 246.7 +- 51.8, max heart rate 149.6 +- 22.9, 68% male,
    cor(age, thalach) ~ -0.40).  The response is Bernoulli with a logit that
    loads on log cholesterol, log blood pressure, sex, and log max heart
    rate; age enters only through its correlation with the others.  The
    coefficients were fixed from reported effect directions and magnitudes;
    the default seed is the first whose realized maximum-likelihood fit sits
    within 0.7 standard errors of the generating coefficients (a draw
    representative of its own design, not tuned to any target output).
    """
    rng = np.random.default_rng(seed)
    means = np.array([54.4, 131.6, 246.7, 149.6])  # age, trestbps, chol, thalach
    sds = np.array([9.0, 17.5, 51.8, 22.9])
    corr = np.array([
        [1.00, 0.28, 0.21, -0.40],
        [0.28, 1.00, 0.13, -0.05],
        [0.21, 0.13, 1.00, -0.10],
        [-0.40, -0.05, -0.10, 1.00],
    ])
    cov = corr * np.outer(sds, sds)
    x = rng.multivariate_normal(means, cov, size=n)
    x = np.maximum(x, means / 4.0)  # keep clinical measurements positive
    age, trestbps, chol, thalach = x.T
    sex = (rng.random(n) < 0.68).astype(float)
    lc = np.log(chol) - np.mean(np.log(chol))
    lt = np.log(trestbps) - np.mean(np.log(trestbps))
    lh = np.log(thalach) - np.mean(np.log(thalach))
    # age coefficient is exactly zero: its apparent effect is mediated by
    # max heart rate, mirroring the usual finding on the real table
    logit = -0.9 + 1.75 * lc + 2.7 * lt + 1.3 * sex - 6.9 * lh
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return {
        "age": np.round(age, 1),
        "sex": sex,
        "trestbps": np.round(trestbps, 1),
        "chol": np.round(chol, 1),
        "thalach": np.round(thalach, 1),
        "y": y,
    }


def write_csv(path, names, rows, header_comments=()):
    """Write ``# `` comment lines, the header ``names`` and one line per row,
    every line ending in ``\\n``; floats are written to 10 significant digits."""
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\n")
