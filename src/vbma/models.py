"""Concrete model specifications: linear regression under a g-prior,
logistic regression with independent normal priors, Gaussian-process
regression with a squared-exponential kernel, and a conjugate normal-mean
toy used by the test oracles.

Every model exposes the same surface: a parameter layout (named blocks with
family tags), ``log_lik``/``log_prior``/``log_joint`` that accept either a
plain array or an autodiff node, a vectorized predictive simulator, and a
prior model weight.  A model that sets ``supports_blocks`` evaluates its
log densities over the last axis and broadcasts over any leading axes, so
one call takes a single ``(d,)`` parameter vector, an ``(S, d)`` block of S
draws or a ``(K, S, d)`` block and returns one value per row: the linear,
logistic and normal-mean models, and a GP model whose training inputs lie
on a lattice, full or with holes.  The linear, logistic and GP models
compute ``log_lik`` and its gradient in closed form, in numpy: a tape node
gives one node (``ad.closed_form``), an array gives an array and computes
no gradient.  The linear model's ``log_lik`` reads sufficient statistics
about the column means, built on first use, and the linear stack's reads
the full design's, so neither forms an ``(..., n)`` or ``(K, S, n)`` array.
The GP chains the gradients of ``ad.gaussian_spd_logpdf`` with
respect to its covariance, dense or Kronecker, to its hyperparameters.  The
normal-mean model records its ``log_lik`` on the tape, as user models do.
The proper priors (normal-mean, logistic and GP) are each a mean-field
``families.VariationalState``, the model's ``prior``: ``families.log_q``
is their ``log_prior``, one closed-form node, and ``families.sample``
their ``sample_prior``.  The linear model's improper g-prior is its own
closed form.
A regression model on p predictors lays out [beta0, beta (p), ...], and
the intercept-only model is the p = 0 case of the same formulas: a size-0
``beta`` block and an (n, 0) design, whose terms are exact zeros.
The subset builders, and ``studies.gp_study`` for its pair, return a
``SubsetEnsemble``: the K members as a list, plus one stacked model on the
members' shared, padded layout that evaluates all of them at once, and the
``(K, D)`` mask of each member's coordinates in that layout.  Evaluation
leaves a model's data and parameters unchanged, but it
is not safe to run concurrently for one GP model: off a lattice, each draw
writes its n x n intermediates into the model's own work array, and is done
with it before it returns.

The improper blocks of the g-prior models (``phi ~ 1/phi``, flat intercept)
are implemented as log-prior terms ``-log phi`` and ``0``.  Cross-model
comparison is only meaningful because every model in the subset ensemble
shares these blocks, so the arbitrary additive constants cancel in
evidence ratios.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from . import autodiff as ad
from . import families
from .data import sq_exp_kernel
from .families import FamilyTag

LOG2PI = np.log(2.0 * np.pi)

# a block of draws holds about MC_BYTES of temporaries, by the model's
# bytes_per_draw, so memory stays bounded however many draws are asked for:
# the MC evidence's likelihood blocks and the GP's predictive stacks
MC_BYTES = 32 * 2**20


class DecompositionError(np.linalg.LinAlgError):
    pass


class ConditioningError(np.linalg.LinAlgError):
    pass


@dataclass(frozen=True)
class ParamBlock:
    name: str
    size: int
    tag: FamilyTag


class ParamLayout:
    """Flat parameter vector split into named, family-tagged blocks."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        offsets = np.cumsum([0] + [b.size for b in self.blocks])
        self._slices = {
            b.name: slice(int(lo), int(hi))
            for b, lo, hi in zip(self.blocks, offsets[:-1], offsets[1:])
        }
        self.dim = int(offsets[-1])

    def slice(self, name):
        return self._slices[name]

    def tags(self):
        out = []
        for b in self.blocks:
            out.extend([b.tag] * b.size)
        return tuple(out)

    def names(self):
        out = []
        for b in self.blocks:
            if b.size == 1:
                out.append(b.name)
            else:
                out.extend([f"{b.name}[{i}]" for i in range(b.size)])
        return tuple(out)


def _values(theta):
    """The array under ``theta``, a tape node or an array."""
    return theta.value if isinstance(theta, ad.Node) else np.asarray(theta, dtype=float)


class Model:
    """Base class; subclasses bind their data at construction.

    A model whose prior is a product of independent normal and log-normal
    coordinates sets ``prior``, a ``families.VariationalState`` on its
    layout, and takes ``log_prior`` and ``sample_prior`` from it; any other
    model overrides ``log_prior``, and ``sample_prior`` for an MC evidence.
    """

    name: str
    layout: ParamLayout
    prior_weight: float = 1.0
    # True when log_lik/log_prior work over the last axis and broadcast over
    # leading ones, taking an (..., d) block to (...) values; otherwise they
    # take one (d,) vector at a time
    supports_blocks: bool = False

    def log_lik(self, theta):
        raise NotImplementedError

    def log_prior(self, theta):
        """log p(theta) of the ``prior`` state (``families.log_q``): one
        closed-form node on the tape."""
        val, grads = families.log_q(self.prior, _values(theta))
        return ad.closed_form(theta, val, grads, "log_prior") if isinstance(theta, ad.Node) else val

    def sample_prior(self, rng, n):
        """An (n, d) block of prior draws, from one (n, d) block of standard
        normals of ``rng``, row by row."""
        return families.sample(self.prior, rng.standard_normal((n, self.layout.dim)))

    def log_joint(self, theta):
        return self.log_lik(theta) + self.log_prior(theta)

    def bytes_per_draw(self):
        """An upper estimate of the bytes each row of a plain-array block adds
        to the peak memory of ``log_lik``, by which
        ``evidence.mc_log_evidence`` sizes its blocks.  The default counts
        the draw alone; the built-in models count their temporaries, as
        measured by ``tracemalloc``."""
        return 8 * self.layout.dim

    def draw_predictive(self, thetas, X, rng, noise=True):
        """Predictive draws for T parameter draws at m input rows.

        ``thetas`` is ``(T, d)`` and ``X`` is ``(m, k)``; the result is
        ``(T, m)``.  Entry ``[t, i]`` is one draw of the response at ``X[i]``
        given ``thetas[t]``, or with ``noise=False`` its conditional mean.
        """
        raise NotImplementedError

    def has_proper_prior(self):
        return True


class GaussianMeanModel(Model):
    """1-D normal mean with known observation sd and a normal prior.

    Conjugate, so the exact posterior and log evidence are available in
    closed form; this is the workhorse oracle for the variational machinery.
    """

    supports_blocks = True

    def __init__(self, y, obs_sd=1.0, prior_mean=0.0, prior_sd=1.0, name="normal-mean"):
        self.y = np.asarray(y, dtype=float)
        self.obs_sd = float(obs_sd)
        self.prior_mean = float(prior_mean)
        self.prior_sd = float(prior_sd)
        self.name = name
        self.layout = ParamLayout([ParamBlock("mu", 1, FamilyTag.NORMAL)])

    def log_lik(self, theta):
        mu = theta[..., 0:1]
        n = len(self.y)
        ssq = ad.vsum((self.y - mu) ** 2, axis=-1)
        return -0.5 * (n * (LOG2PI + 2.0 * np.log(self.obs_sd)) + ssq / self.obs_sd**2)

    @functools.cached_property
    def prior(self):
        return families.VariationalState.exact([self.prior_mean], [self.prior_sd], [0.0])

    def posterior(self):
        """Exact posterior (mean, sd)."""
        n = len(self.y)
        prec = 1.0 / self.prior_sd**2 + n / self.obs_sd**2
        mean = (self.prior_mean / self.prior_sd**2 + self.y.sum() / self.obs_sd**2) / prec
        return mean, np.sqrt(1.0 / prec)

    def log_evidence(self):
        """Exact log marginal likelihood log N(y; m, s^2 I + t^2 11'), with s, t
        the observation and prior sds, in O(n) by the matrix determinant lemma
        and Sherman-Morrison, the quadratic form split so no large terms cancel."""
        n = len(self.y)
        s2, t2 = self.obs_sd**2, self.prior_sd**2
        resid = self.y - self.prior_mean
        r_bar = resid.mean()
        quad = np.sum((resid - r_bar) ** 2) / s2 + n * r_bar**2 / (s2 + n * t2)
        logdet = n * np.log(s2) + np.log1p(n * t2 / s2)
        return float(-0.5 * (n * LOG2PI + logdet + quad))

    def bytes_per_draw(self):
        return 8 * 4 * len(self.y)  # y - mu and its square

    def draw_predictive(self, thetas, X, rng, noise=True):
        mean = np.asarray(thetas, dtype=float)[:, :1] + np.zeros(len(X))
        return mean + rng.normal(0.0, self.obs_sd, mean.shape) if noise else mean


class _Regression(Model):
    """What linear and logistic regression share: the (n, p) design ``X`` of
    the p ``predictors``, the responses ``y``, the layout [beta0, beta (size
    p, 0 for the intercept-only model), *``tail``] and the name, ``PREFIX``
    and the predictors joined by "+" ("intercept" when p = 0).  ``inputs``
    names the columns of the rows given to ``draw_predictive`` (default:
    ``predictors``); the model picks its predictors from them.
    """

    supports_blocks = True
    PREFIX: str

    def __init__(self, X, y, predictors, inputs, tail=()):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.predictors = tuple(predictors)
        self.p = len(self.predictors)
        if self.X.shape != (len(self.y), self.p):
            raise ValueError(f"design X must be (n, p) = {(len(self.y), self.p)} for predictors "
                             f"{self.predictors}, got {self.X.shape}")
        self._columns = [tuple(inputs or self.predictors).index(p) for p in self.predictors]
        self.name = self.PREFIX + ("+".join(self.predictors) or "intercept")
        self.layout = ParamLayout([ParamBlock("beta0", 1, FamilyTag.NORMAL),
                                   ParamBlock("beta", self.p, FamilyTag.NORMAL), *tail])

    def _linear(self, t, rows=None):
        """beta0 + x'beta (..., m) from an array ``t`` (..., d), for each row x
        of the design, or of ``rows`` (m, k) with the model's ``inputs`` as
        columns."""
        X = self.X if rows is None else np.asarray(rows, dtype=float)[:, self._columns]
        return t[..., :1] + t[..., self.layout.slice("beta")] @ X.T


class LinRegModel(_Regression):
    """Linear regression on a predictor subset with Zellner's g-prior.

    Priors: phi ~ 1/phi, flat intercept, slopes ~ N(0, g (X'X)^-1 / phi),
    with g finite and > 0.  The g-prior presumes a centred design matrix
    (intercept handled separately); nothing enforces one, and ``log_lik``
    is exact without it.  ``log_lik`` and ``log_prior`` are closed forms of
    its own, each one tape node; at p = 0 every term of the slopes is an
    exact 0.
    """

    PREFIX = "lin:"

    def __init__(self, X, y, predictors=(), g=None, inputs=None):
        super().__init__(X, y, predictors, inputs, [ParamBlock("phi", 1, FamilyTag.LOGNORMAL)])
        self.n = len(self.y)
        self.g = float(self.n if g is None else g)
        if not 0 < self.g < np.inf:  # also False for nan
            raise ValueError(f"g must be finite and > 0, got {self.g}")
        self.xtx = self.X.T @ self.X
        sign, self.logdet_xtx = np.linalg.slogdet(self.xtx)  # (1, 0.0) at p = 0
        if sign <= 0:
            raise DecompositionError(f"singular X'X for predictor subset {self.predictors}")

    def has_proper_prior(self):
        return False

    @functools.cached_property
    def _stats(self):
        """The sufficient statistics of ``log_lik`` about the column means:
        (x_bar (p,), y_bar, yc'yc, Xc'yc (p,), Xc'Xc (p, p)) for the centred
        Xc = X - x_bar and yc = y - y_bar."""
        x_bar, y_bar = self.X.mean(axis=0), self.y.mean()
        Xc, yc = self.X - x_bar, self.y - y_bar
        return x_bar, y_bar, yc @ yc, Xc.T @ yc, Xc.T @ Xc

    def bytes_per_draw(self):
        # four p-vectors (beta Xc'Xc, r, r + Xc'yc and its product with beta)
        # and a few values per row, p being the stack's full P for a stack;
        # none grows with n.  tracemalloc reads 0.5-0.9 of this for p = 0 to
        # 12, on blocks of 64 to 1024 rows
        return 8 * (4 * self.X.shape[1] + 10)

    def log_lik(self, theta):
        """With a = beta0 - y_bar + x_bar'beta (``_stats``), the squared error
        is yc'yc - 2 beta'Xc'yc + beta'Xc'Xc beta + n a^2, and its gradient
        in (beta0, beta) is (2 n a, 2 (Xc'Xc beta - Xc'yc + n a x_bar)): no
        (..., n) array is formed.  The x_bar terms keep an uncentred design
        exact."""
        t = _values(theta)
        beta, phi = t[..., self.layout.slice("beta")], t[..., -1]
        x_bar, y_bar, yy, xy, xx = self._stats
        with np.errstate(all="ignore"):  # checked once, in ad.closed_form
            a = t[..., 0] - y_bar + beta @ x_bar
            n_a = self.n * a
            r = xy - beta @ xx  # Xc'(yc - Xc beta)
            ssq = yy - (beta * (xy + r)).sum(axis=-1) + n_a * a
            val = 0.5 * self.n * (np.log(phi) - LOG2PI) - 0.5 * phi * ssq
            if not isinstance(theta, ad.Node):
                return val
            grads = np.concatenate([(-phi * n_a)[..., None],
                                    phi[..., None] * (r - n_a[..., None] * x_bar),
                                    (0.5 * self.n / phi - 0.5 * ssq)[..., None]], axis=-1)
        return ad.closed_form(theta, val, grads, "linreg_log_lik")

    def log_prior(self, theta):
        t = _values(theta)
        beta, phi = t[..., self.layout.slice("beta")], t[..., -1]
        with np.errstate(all="ignore"):  # checked once, in ad.closed_form
            b_xtx = beta @ self.xtx  # X'X is symmetric
            quad = (beta * b_xtx).sum(axis=-1)
            # phi ~ 1/phi and a flat intercept, then the slopes' normal
            log_phi = np.log(phi)
            val = -log_phi + (-0.5 * self.p * LOG2PI + 0.5 * self.p * log_phi
                              - 0.5 * self.p * np.log(self.g) + 0.5 * self.logdet_xtx
                              - 0.5 * phi / self.g * quad)
            if not isinstance(theta, ad.Node):
                return val
            grads = np.zeros(t.shape)  # on the layout [beta0, beta, phi]
            grads[..., 1:-1] = (-phi / self.g)[..., None] * b_xtx
            grads[..., -1] = -1.0 / phi + (0.5 * self.p / phi - 0.5 / self.g * quad)
        return ad.closed_form(theta, val, grads, "linreg_log_prior")

    def draw_predictive(self, thetas, X, rng, noise=True):
        mean = self._linear(np.asarray(thetas, dtype=float), X)
        if not noise:
            return mean
        phi = np.asarray(thetas, dtype=float)[:, self.layout.slice("phi")]
        return mean + rng.standard_normal(mean.shape) / np.sqrt(phi)


class LogisticModel(_Regression):
    """Bernoulli regression with logit link and independent normal priors of
    sd ``prior_sd``, finite and > 0.

    ``log_lik`` is a closed form, one tape node; ``prior`` is N(0,
    prior_sd^2) on every coefficient, as a mean-field state.
    """

    PREFIX = "logit:"

    def __init__(self, X, y, predictors=(), prior_sd=10.0, inputs=None):
        super().__init__(X, y, predictors, inputs)
        if not set(np.unique(self.y)) <= {0.0, 1.0}:
            raise ValueError("responses must be binary 0/1")
        self.prior_sd = float(prior_sd)
        if not 0 < self.prior_sd < np.inf:  # also False for nan
            raise ValueError(f"prior_sd must be finite and > 0, got {self.prior_sd}")
        self._sign = 1.0 - 2.0 * self.y  # -1 where y=1, +1 where y=0

    def log_lik(self, theta):
        t = _values(theta)
        with np.errstate(all="ignore"):  # checked once, in ad.closed_form
            # log p(y|a) = -softplus((1-2y) a), the stable log-sigmoid form,
            # with one exp(-|.|) shared by softplus and its derivative sigmoid
            s = self._sign * self._linear(t)
            e = np.exp(-np.abs(s))
            val = -(np.maximum(s, 0.0) + np.log1p(e)).sum(axis=-1)
            if not isinstance(theta, ad.Node):
                return val
            d_logit = -self._sign * np.where(s >= 0, 1.0, e) / (1.0 + e)
            grads = np.concatenate([d_logit.sum(axis=-1, keepdims=True), d_logit @ self.X],
                                   axis=-1)
        return ad.closed_form(theta, val, grads, "logistic_log_lik")

    @functools.cached_property
    def prior(self):
        d = self.layout.dim
        return families.VariationalState.exact(np.zeros(d), np.full(d, self.prior_sd), np.zeros(d))

    def bytes_per_draw(self):
        return 8 * 6 * len(self.y)  # the logit, exp(-|s|) and the softplus terms

    def draw_predictive(self, thetas, X, rng, noise=True):
        p = ad.sigmoid(self._linear(np.asarray(thetas, dtype=float), X))
        return (rng.random(p.shape) < p).astype(float) if noise else p


class GPModel(Model):
    """Constant-mean GP regression with a squared-exponential kernel on 2-d
    inputs; the latent surface is marginalized analytically.

    The mean is beta + ``mean_offset``: ``free_mean=True`` makes beta the
    first coordinate, with a normal prior, and otherwise beta is 0, so the
    mean is fixed at ``mean_offset``.  The positive hyperparameters h = (eta,
    nu1, nu2, sigma) (scale, the two correlation ranges, noise sd) are the
    last four coordinates and carry log-normal priors.  The priors are the
    class constants ``MEAN_PRIOR`` and ``LOGNORMAL_PRIORS``, held as one
    mean-field state, ``prior``.

    The training inputs lie on a lattice when they are points of the
    Cartesian product of their distinct x1 and x2 values, with at least two
    values on each axis, in strictly increasing x1-major order (x2 fastest)
    of the sorted axes.  On the full product of N = n1 n2 points, K =
    eta^2 kron(A1, A2) + (sigma^2 + jitter) I with A1 and A2 the kernel's
    factors on the two axes, and ``log_lik`` evaluates the density from those
    factors alone (``ad.KroneckerCov``).  With m of the N points missing, it
    is the same density on the remaining n = N - m, exact, from the same
    factors and an m x m Schur complement; the model takes this path only
    while it is cheaper than the dense Cholesky, m N (n1 + n2) + m^3 <
    n^3 / 3.  ``lattice`` is then ``(n1, n2)`` and ``holes`` the sorted flat
    x1-major indices of the missing points (empty on a full lattice), else
    both are None; ``path`` names the path taken.  On a lattice the model
    sets ``supports_blocks``: a block of draws is one call over a stack of
    factor pairs, one pair per draw.  Otherwise, for shuffled or scattered
    inputs, a draw writes its n x n intermediates into the model's own work
    array and is done with them when it returns, so it allocates no n x n
    array.  ``predict_dist`` takes a stack of draws and the same path as
    ``log_lik``: on a lattice, the stack is one call from the factors, and
    ``draw_predictive`` makes one such call per block of draws.
    """

    BASE_JITTER = 1e-6  # relative to eta^2
    HYPER = ("eta", "nu1", "nu2", "sigma")
    # (mean, sd) of beta's normal prior, and (location, sd) of the log-normal
    # priors on h, by name
    MEAN_PRIOR = (0.0, 1.0)
    LOGNORMAL_PRIORS = {"eta": (0.0, 1.0), "nu1": (1.0, 1.0), "nu2": (1.0, 1.0),
                        "sigma": (0.0, 1.0)}

    def __init__(self, coords, y, free_mean=True, mean_offset=0.0, name="gp",
                 prior_weight=1.0):
        self.coords = np.asarray(coords, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.n = len(self.y)
        self.free_mean = bool(free_mean)
        self.mean_offset = float(mean_offset)
        self.name = name
        self.prior_weight = prior_weight
        blocks = [ParamBlock("beta", 1, FamilyTag.NORMAL)] if self.free_mean else []
        blocks += [ParamBlock(k, 1, FamilyTag.LOGNORMAL) for k in self.HYPER]
        self.layout = ParamLayout(blocks)
        lattice = _lattice(self.coords)
        self.supports_blocks = lattice is not None
        self.lattice = self.holes = None
        if lattice is not None:
            self._axes, self.holes = lattice
            self.lattice = tuple(len(a) for a in self._axes)
            self._axis_d1sq, self._axis_d2sq = (np.square(a[:, None] - a[None, :])
                                                for a in self._axes)

    @property
    def path(self):
        """The density path ``log_lik`` takes: "dense n", "lattice n1xn2" or
        "lattice n1xn2 with m holes"."""
        if self.lattice is None:
            return f"dense {self.n}"
        holes = f" with {len(self.holes)} holes" if len(self.holes) else ""
        return "lattice {}x{}".format(*self.lattice) + holes

    # the dense path's n x n arrays, built on first use (by predict_dist or an
    # off-lattice log_lik, never by a lattice fit): squared distances along
    # x1 and x2, squared in place, and the (3, n, n) work array: the kernel's
    # ``base``, K (then its Cholesky factor, then K^-1) and df/dK
    _d1sq = functools.cached_property(
        lambda self: np.square(d := self.coords[:, :1] - self.coords[:, 0], out=d))
    _d2sq = functools.cached_property(
        lambda self: np.square(d := self.coords[:, 1:] - self.coords[:, 1], out=d))
    _work = functools.cached_property(lambda self: np.empty((3, self.n, self.n)))

    def _split(self, theta):
        """The mean (beta = ``theta[..., 0]`` plus the offset, or the offset
        alone) and h = ``theta[..., -4:]``."""
        mean = theta[..., 0] + self.mean_offset if self.free_mean else self.mean_offset
        return mean, theta[..., -4:]

    def _kernel(self, h, base, K):
        """Training covariance K = eta^2 (base + jitter I) + sigma^2 I, with
        base = exp(-d1^2 / 2 nu1^2 - d2^2 / 2 nu2^2) and the jitter relative
        to eta^2, written into the n x n arrays ``base`` and ``K``; returns K."""
        e, a, b, s = h
        with np.errstate(all="ignore"):  # one finiteness check on K below
            np.multiply(self._d1sq, -0.5 / a**2, out=base)
            base += np.multiply(self._d2sq, -0.5 / b**2, out=K)
            np.exp(base, out=base)
            np.multiply(base, e**2, out=K)
            K.flat[:: self.n + 1] += s**2 + self.BASE_JITTER * e**2
        if not np.isfinite(K).all():
            raise ad.NonFiniteValueError("gp_kernel")
        return K

    def _lattice_kernel(self, h):
        """K on a lattice as an ``ad.KroneckerCov`` of the two axes' factors;
        a block's hyperparameters h (..., 4) broadcast over the factors' axes."""
        e, a, b, s = (h[..., i, None, None] for i in range(4))
        return ad.KroneckerCov(np.exp(self._axis_d1sq * (-0.5 / a**2)),
                               np.exp(self._axis_d2sq * (-0.5 / b**2)),
                               e**2, s**2 + self.BASE_JITTER * e**2, self.holes)

    def log_lik(self, theta):
        beta, h = self._split(_values(theta))
        if self.lattice is None:
            base, K, work = self._work
            resid, cov = self.y - beta, self._kernel(h, base, K)
        else:
            resid = self.y - (beta[..., None] if self.free_mean else beta)
            cov, work = self._lattice_kernel(h), None
        try:
            val, grads = ad.gaussian_spd_logpdf(resid, cov, work=work)
        except np.linalg.LinAlgError:
            # the jitter is far above K's rounding error (~n eps eta^2), so K
            # fails only where eta^2 underflows and a larger jitter would not help
            if self.lattice is None:
                min_eig = np.linalg.eigvalsh(self._kernel(h, base, K)).min()
            else:  # the full lattice's, a lower bound when there are holes
                min_eig = cov.eigen()[-1].min(axis=(-2, -1))
            worst = np.argmin(min_eig)  # the worst draw of a block
            raise ConditioningError(
                f"kernel matrix not positive definite at jitter {self.BASE_JITTER:g} eta^2 "
                f"(min eigenvalue ~ {np.ravel(min_eig)[worst]:.3e}, "
                f"eta={np.ravel(h[..., 0])[worst]:.3g})"
            ) from None
        if not isinstance(theta, ad.Node):
            return val
        d_resid, d_cov = grads()
        e, a, b, s = np.moveaxis(h, -1, 0)
        if self.lattice is None:
            # tr(G dK/dh) for G = d_cov (Rasmussen & Williams 2006, sec. 5.4.1);
            # <A, B> by einsum, not np.vdot: numpy's BLAS threads its ddot at
            # n^2 elements and then contends with the threads of scipy's LAPACK
            d_scale, d_nugget = np.einsum("ij,ij->", d_cov, base), np.trace(d_cov)
            d_nu1 = e**2 * np.einsum("ij,ij,ij->", d_cov, base, self._d1sq)
            d_nu2 = e**2 * np.einsum("ij,ij,ij->", d_cov, base, self._d2sq)
        else:
            # the factors' chain rule: dA1/dnu1 = A1 o d1^2 / nu1^3, and for nu2
            d_scale, d_nugget = d_cov.scale[..., 0, 0], d_cov.nugget[..., 0, 0]
            d_nu1 = (d_cov.a1 * cov.a1 * self._axis_d1sq).sum(axis=(-2, -1))
            d_nu2 = (d_cov.a2 * cov.a2 * self._axis_d2sq).sum(axis=(-2, -1))
        # a * a * a, not a**3: numpy's vectorized power and its scalar one
        # round differently, and a block must match its rows bitwise
        g = np.stack([2.0 * e * (d_scale + self.BASE_JITTER * d_nugget), d_nu1 / (a * a * a),
                      d_nu2 / (b * b * b), 2.0 * s * d_nugget], axis=-1)
        if self.free_mean:
            g = np.concatenate([-d_resid.sum(axis=-1, keepdims=True), g], axis=-1)
        return ad.closed_form(theta, val, g, "gp_log_lik")

    @functools.cached_property
    def prior(self):
        loc, sd = np.array([self.MEAN_PRIOR, *map(self.LOGNORMAL_PRIORS.get, self.HYPER)]
                           ).T[:, -self.layout.dim:]
        lognormal = [t is FamilyTag.LOGNORMAL for t in self.layout.tags()]
        return families.VariationalState.exact(loc, sd, lognormal)

    def bytes_per_draw(self):
        if self.lattice is None:  # a row at a time, in the model's work array
            return super().bytes_per_draw()
        n1, n2 = self.lattice
        # the factors and their eigenvectors, a few lattice-sized arrays (d,
        # t, v, ...) and, with m holes, the (m, N) arrays W / d and Z and the
        # (m + 1, N) stack [v; Z]; tracemalloc reads 0.75-0.85 of this at
        # 15x20 and 17x18 - 6
        return 8 * (2 * (n1 * n1 + n2 * n2) + (7 + 3 * len(self.holes)) * n1 * n2)

    def predict_dist(self, thetas, coords_new):
        """Conditional mean and variance of the latent surface at p new
        inputs, and the noise variance sigma^2, for a stack of T draws.

        ``thetas`` is (T, d); the results are (T, p), (T, p) and (T, 1).
        With k the kernel's covariances between the training and the new
        inputs over eta^2, the mean is beta + eta^2 k' K^-1 (y - beta) and
        the variance eta^2 - eta^4 diag(k' K^-1 k), clamped at 0.  On a
        lattice, k factors for any input, on the training axes or off them,
        into k1 (T, n1, p) and k2 (T, n2, p) on the two axes, and the stack
        is one call of ``ad.kronecker_conditional``: exact, with the holes,
        and no n x n array.  Off a lattice each draw factors the dense K;
        that path is the lattice path's oracle in the tests.
        """
        rows = np.asarray(thetas, dtype=float)
        X = np.atleast_2d(np.asarray(coords_new, dtype=float))
        beta, h = self._split(rows)
        if self.lattice is None:
            base, K, _ = self._work
            mean, var = np.empty((2, len(rows), len(X)))
            for t, row in enumerate(rows):
                b, h_t = self._split(row)
                eta, nu1, nu2, _ = h_t
                # K is symmetric, so K.T is K in Fortran order, factored in place
                L = cholesky(self._kernel(h_t, base, K).T, lower=True, overwrite_a=True,
                             check_finite=False)
                ks = sq_exp_kernel(self.coords, eta, nu1, nu2, other=X)
                mean[t] = b + ks.T @ cho_solve((L, True), self.y - b, check_finite=False)
                w = solve_triangular(L, ks, lower=True, check_finite=False)
                var[t] = eta**2 - np.sum(w**2, axis=0)
        else:
            beta = beta[:, None] if self.free_mean else beta
            eta2 = h[:, :1] ** 2
            k1, k2 = (np.exp(np.square(axis[:, None] - x) * (-0.5 / nu**2)[:, None, None])
                      for axis, x, nu in zip(self._axes, X.T, h.T[1:3]))
            k_r, k_k = ad.kronecker_conditional(self.y - beta, self._lattice_kernel(h), k1, k2)
            mean, var = beta + eta2 * k_r, eta2 - eta2 * eta2 * k_k
        return mean, np.maximum(var, 0.0), h[:, 3:] ** 2

    def draw_predictive(self, thetas, X, rng, noise=True):
        # one call draws the noise of all T draws, the same stream as T calls
        # of m; predict_dist takes blocks of about MC_BYTES of temporaries
        thetas = np.asarray(thetas, dtype=float)
        z = rng.standard_normal((len(thetas), len(X))) if noise else None
        out = np.empty((len(thetas), len(X)))
        block = max(1, MC_BYTES // self._predict_bytes_per_draw(len(X)))
        for lo in range(0, len(thetas), block):
            mean, var, noise_var = self.predict_dist(thetas[lo:lo + block], X)
            out[lo:lo + block] = mean if z is None else (
                mean + np.sqrt(var + noise_var) * z[lo:lo + block])
        return out

    def _predict_bytes_per_draw(self, p):
        """An upper estimate of the bytes a draw of a stack adds to the peak
        memory of ``predict_dist`` at p inputs: on a lattice, ``bytes_per_draw``
        and the cross factors, B, C and their products, and with m holes the
        (m, n1, p) arrays of z's terms and of their products with B;
        tracemalloc reads 0.66-0.89 of this at 15x20, 17x18 - 6 and 11x12 - 8
        for p from 1 to 400."""
        if self.lattice is None:  # a draw at a time; its mean and variance
            return 8 * 2 * p
        n1, n2 = self.lattice
        return self.bytes_per_draw() + 8 * p * (4 * (n1 + n2) + 2 * len(self.holes) * n1)


def _lattice(coords):
    """``(axes, holes)`` when the rows of ``coords`` are points of the lattice
    of their distinct x1 and x2 values ``axes``, each axis increasing, in
    strictly increasing x1-major order, with at least two values on each
    axis, and the Kronecker path with the m missing points ``holes`` (flat
    x1-major indices, sorted) is cheaper than a dense Cholesky: for N = n1 n2
    lattice points and n = N - m rows, m N (n1 + n2) + m^3 < n^3 / 3.  Else
    None.  On a single row or column one factor would be as large as K, and
    its eigendecomposition costs more than K's Cholesky factorization and
    inverse."""
    axes = [np.unique(x) for x in coords.T]
    n1, n2 = (len(a) for a in axes)
    if n1 < 2 or n2 < 2:
        return None
    flat = np.searchsorted(axes[0], coords[:, 0]) * n2 + np.searchsorted(axes[1], coords[:, 1])
    n, N = len(flat), n1 * n2
    m = N - n
    if not (np.diff(flat) > 0).all() or m * N * (n1 + n2) + m**3 >= n**3 / 3:
        return None
    missing = np.ones(N, dtype=bool)
    missing[flat] = False
    return axes, np.flatnonzero(missing)


class SubsetEnsemble(list):
    """Models whose layouts are each the largest member's with some
    coordinates left out, as a list, and the one model that evaluates them
    together: the models over every subset of one predictor set, or the GP
    pair, whose fixed-mean member leaves out beta.

    ``stacked`` is a copy of the largest member (the model on all P
    predictors, or the free-mean GP) whose per-member constants get a leading
    K axis: for linear models ``p`` and ``logdet_xtx``, and for GP models the
    mean offset.  The linear stack reads the full design's ``xtx``, as its
    likelihood reads the full design's statistics: a member's padded slopes
    are exact zeros, so its rows and columns of X'X add nothing.  A logistic
    or GP stack's ``prior`` is the largest member's sd held exactly, with
    ``mask`` = ``mask[:, None]``, so ``families.log_q`` leaves out each
    member's padding.  Its
    inherited ``log_joint`` takes a ``(K, S, D)`` block to ``(K, S)``
    values on the largest member's layout, ``[beta0, beta (P), *tail]`` or
    ``[beta, *h]``; it is None when that member takes no blocks, as a GP off
    a lattice.  ``mask`` is the ``(K, D)`` membership array: row k is True
    on member k's coordinates, in layout order, and the padding it leaves
    out is zero.  Both are built on first use.  ``core.run`` evaluates the
    list as built in one pass per iteration; a changed list or a copy of it
    runs model by model.
    """

    def __init__(self, models):
        super().__init__(models)
        self.members = tuple(models)

    @functools.cached_property
    def _full(self):
        return max(self.members, key=lambda m: m.layout.dim)

    @functools.cached_property
    def mask(self):
        full = self._full
        mask = np.ones((len(self.members), full.layout.dim), dtype=bool)
        if isinstance(full, GPModel):
            mask[:, 0] = [m.free_mean for m in self.members]
        else:
            mask[:, 1:1 + full.p] = [[n in m.predictors for n in full.predictors]
                                     for m in self.members]
        return mask

    @functools.cached_property
    def stacked(self):
        full = self._full
        if not full.supports_blocks:
            return None
        stacked = copy.copy(full)
        stacked.name = f"stack of {len(self.members)}"
        if isinstance(full, LinRegModel):
            stacked.p = np.array([[m.p] for m in self.members], dtype=float)
            stacked.logdet_xtx = np.array([[m.logdet_xtx] for m in self.members])
            return stacked
        if isinstance(full, GPModel):
            stacked.mean_offset = np.array([[m.mean_offset] for m in self.members])
        prior = full.prior
        stacked.prior = families.VariationalState.exact(prior.mu, prior.sd(), prior.lognormal_mask,
                                                        self.mask[:, None])
        return stacked


def _subset_ensemble(cls, dataset, predictors, **kw):
    y = dataset.y("train")
    models = [cls(dataset.design(subset, "train"), y, predictors=subset,
                  inputs=dataset.inputs, **kw)
              for r in range(len(predictors) + 1)
              for subset in itertools.combinations(predictors, r)]
    for m in models:
        m.prior_weight = 1.0 / len(models)
    return SubsetEnsemble(models)


def linreg_subset_ensemble(dataset, predictors, g=None):
    """All 2^k g-prior linear models over subsets of ``predictors``, as a
    ``SubsetEnsemble``."""
    return _subset_ensemble(LinRegModel, dataset, predictors, g=g)


def logistic_subset_ensemble(dataset, predictors, prior_sd=10.0):
    """All 2^k logistic models over subsets of ``predictors``, as a
    ``SubsetEnsemble``."""
    return _subset_ensemble(LogisticModel, dataset, predictors, prior_sd=prior_sd)
