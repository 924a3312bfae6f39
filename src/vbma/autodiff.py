"""Reverse-mode automatic differentiation for scalar and row objectives.

A ``Node`` wraps a numpy array (or python float) and records the operations
applied to it.  Calling :func:`grad` on a scalar-valued function replays the
recorded tape backwards and returns the exact gradient with respect to every
input coordinate.  A row objective maps a block of rows, such as ``(S, d)``
or ``(K, S, d)``, to one value per row, each depending only on its own row;
one sweep then gives every row's gradient.  Constant operands are not
recorded, so the sweep computes no gradient that nothing reads.  The
supported operation set is deliberately small: the elementwise arithmetic and
link functions needed by log-density models, plus the reductions (sum, dot).
A model that knows its gradients in closed form enters the tape as one node
through :func:`closed_form`.

:func:`gaussian_spd_logpdf` is plain numpy, not a tape operation: it returns
a multivariate-normal log density and a function that computes, on demand,
its gradients with respect to the residual and the covariance, so a caller
that needs only the value pays for no gradient.  The covariance is dense or
a :class:`KroneckerCov`, scale * kron(a1, a2) + nugget * I, the covariance
of a separable kernel on a lattice, full or with holes.  The Kronecker form
costs the eigendecompositions of its two small factors, an m x m Schur
complement for m holes, and no n x n array; it broadcasts over leading
axes, so a block of draws is one call.  :func:`kronecker_conditional` gives
the Gaussian conditioning terms of new points against the same covariance,
from the same factors, for the GP's predictive.  The GP model
chains these gradients to its parameters in closed form; a covariance built
from tape operations links to them through a one-node adapter (README,
"Writing a model").

Tapes are single-use, confined to the thread that built them, and keep no
state between evaluations.  Given a work array, :func:`gaussian_spd_logpdf`
overwrites its covariance and writes the covariance gradient into the array,
so the GP model reuses one set of n x n arrays from draw to draw.
Evaluations that share such arrays must not run concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotrf, dpotri


class UnsupportedOperationError(TypeError):
    """An objective used an operation the tape cannot differentiate."""


class NonFiniteValueError(FloatingPointError):
    """A non-finite intermediate appeared during evaluation."""

    def __init__(self, op: str):
        super().__init__(f"non-finite value produced by operation '{op}'")
        self.op = op


def _check_finite(value, op):
    if not np.isfinite(value).all():
        raise NonFiniteValueError(op)
    return value


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    g = np.asarray(g, dtype=float)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class Node:
    """One value on the tape.  Supports +, -, *, /, ** (constant exponent) and
    numpy-style ops."""

    __slots__ = ("value", "parents", "_grad")

    # make ndarray <op> Node defer to Node's reflected operators instead of
    # producing an object array; numpy ufuncs applied to a Node then raise,
    # which is the desired unsupported-operation rejection
    __array_ufunc__ = None

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents  # tuple of (Node, vjp callable)
        self._grad = None

    @property
    def shape(self):
        return self.value.shape

    def __len__(self):
        return len(self.value)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return Node(-self.value, ((self, lambda g: -g),))

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, other):
        return power(self, other)

    def __getitem__(self, idx):
        def vjp(g, idx=idx, shape=self.value.shape):
            out = np.zeros(shape)
            np.add.at(out, idx, g)
            return out

        return Node(self.value[idx], ((self, vjp),))

    # comparisons read values only; they never enter the tape
    def __lt__(self, other):
        return self.value < _value_of(other)

    def __gt__(self, other):
        return self.value > _value_of(other)

    def __le__(self, other):
        return self.value <= _value_of(other)

    def __ge__(self, other):
        return self.value >= _value_of(other)

    def __floordiv__(self, other):
        raise UnsupportedOperationError("floor division is not differentiable")

    __rfloordiv__ = __floordiv__

    def __mod__(self, other):
        raise UnsupportedOperationError("modulo is not differentiable")

    __rmod__ = __mod__

    def __repr__(self):
        return f"Node({self.value!r})"


def _value_of(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=float)


def _is_const(x):
    return not isinstance(x, Node)


def _links(*pairs):
    """The (operand, vjp) pairs of an operation whose operand is on the tape;
    constants get no gradient."""
    return tuple(pair for pair in pairs if isinstance(pair[0], Node))


# -- elementary operations --------------------------------------------------


def add(a, b):
    av, bv = _value_of(a), _value_of(b)
    val = _check_finite(av + bv, "add")
    return Node(val, _links(
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ))


def sub(a, b):
    av, bv = _value_of(a), _value_of(b)
    val = _check_finite(av - bv, "sub")
    return Node(val, _links(
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: -_unbroadcast(g, bv.shape)),
    ))


def mul(a, b):
    av, bv = _value_of(a), _value_of(b)
    val = _check_finite(av * bv, "mul")
    return Node(val, _links(
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ))


def div(a, b):
    av, bv = _value_of(a), _value_of(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _check_finite(av / bv, "div")
    return Node(val, _links(
        (a, lambda g: _unbroadcast(g / bv, av.shape)),
        (b, lambda g: _unbroadcast(-g * av / bv**2, bv.shape)),
    ))


def power(a, b):
    """``a ** b`` for a node ``a`` and a constant exponent ``b``."""
    if isinstance(b, Node):
        raise UnsupportedOperationError("a tape node as exponent is not supported")
    av, bv = a.value, np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = _check_finite(av**bv, "pow")
    return Node(val, ((a, lambda g: _unbroadcast(g * bv * av ** (bv - 1), av.shape)),))


def exp(x):
    if _is_const(x):
        return np.exp(x)
    with np.errstate(over="ignore"):
        val = _check_finite(np.exp(x.value), "exp")
    return Node(val, ((x, lambda g: g * val),))


def log(x):
    if _is_const(x):
        return np.log(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _check_finite(np.log(x.value), "log")
    return Node(val, ((x, lambda g: g / x.value),))


def sqrt(x):
    if _is_const(x):
        return np.sqrt(x)
    with np.errstate(invalid="ignore"):
        val = _check_finite(np.sqrt(x.value), "sqrt")
    return Node(val, ((x, lambda g: g * 0.5 / val),))


def softplus_sigmoid(x):
    """softplus(x) = log(1 + e^x) and its derivative sigmoid(x), in numpy,
    stable, from one e = exp(-|x|): max(x, 0) + log1p(e), and 1 / (1 + e)
    for x >= 0, e / (1 + e) below."""
    e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e), np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x):
    val, sig = softplus_sigmoid(_value_of(x))
    if _is_const(x):
        return val
    return Node(_check_finite(val, "softplus"), ((x, lambda g: g * sig),))


def sigmoid(x):
    val = softplus_sigmoid(_value_of(x))[1]
    if _is_const(x):
        return val
    return Node(_check_finite(val, "sigmoid"), ((x, lambda g: g * val * (1.0 - val)),))


def vsum(x, axis=None):
    """Sum of all elements, or along ``axis``."""
    if _is_const(x):
        return np.sum(x, axis=axis)
    val = _check_finite(np.sum(x.value, axis=axis), "sum")
    shape = x.value.shape

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return Node(val, ((x, vjp),))


def dot(a, b):
    """Matrix product with ``@`` semantics, leading axes included (a stack of
    matrices broadcasts); either side may be a constant array."""
    if _is_const(a) and _is_const(b):
        return _value_of(a) @ _value_of(b)
    av, bv = _value_of(a), _value_of(b)
    val = _check_finite(av @ bv, "dot")
    # as matrices: a 1-d left operand is a row, a 1-d right operand a column
    am = av[None, :] if av.ndim == 1 else av
    bm = bv[:, None] if bv.ndim == 1 else bv

    def as_matrix(g):
        g = np.asarray(g)
        if bv.ndim == 1:
            g = g[..., None]
        if av.ndim == 1:
            g = g[..., None, :]
        return g

    def vjp_a(g):
        ga = as_matrix(g) @ np.swapaxes(bm, -1, -2)
        return _unbroadcast(ga[..., 0, :] if av.ndim == 1 else ga, av.shape)

    def vjp_b(g):
        gb = np.swapaxes(am, -1, -2) @ as_matrix(g)
        return _unbroadcast(gb[..., 0] if bv.ndim == 1 else gb, bv.shape)

    return Node(val, _links((a, vjp_a), (b, vjp_b)))


class KroneckerCov(NamedTuple):
    """The covariance scale * kron(a1, a2) + nugget * I of the N = n1 n2 points
    of a lattice, for symmetric n1 x n1 ``a1`` and n2 x n2 ``a2`` and scalar
    ``scale`` and ``nugget``, restricted to the N - m points not in ``holes``:
    the sorted flat (x1-major) indices of m missing points, none by default.
    Leading axes make a stack of covariances: ``a1`` (..., n1, n1), ``a2``
    (..., n2, n2), and ``scale`` and ``nugget`` (..., 1, 1), broadcast against
    each other; every covariance of a stack misses the same ``holes``."""

    a1: np.ndarray
    a2: np.ndarray
    scale: np.ndarray
    nugget: np.ndarray
    holes: tuple | np.ndarray = ()

    def eigen(self):
        """``(l1, q1, l2, q2, d)``: the eigendecompositions a1 = q1 diag(l1) q1'
        and a2 = q2 diag(l2) q2', and the full lattice's eigenvalues
        d = scale l1 l2' + nugget as an (..., n1, n2) array.  A factor stack
        that is exactly centrosymmetric, as the kernel's factor on an evenly
        spaced axis is, takes two half-size eigenproblems (``_eigh``); the
        eigenvalues are then not in ascending order."""
        l1, q1 = _eigh(self.a1)
        l2, q2 = _eigh(self.a2)
        return l1, q1, l2, q2, self.scale * (l1[..., :, None] * l2[..., None, :]) + self.nugget


def _eigh(a):
    """``np.linalg.eigh`` of a stack of symmetric (..., n, n) matrices, split
    in two when every matrix is exactly centrosymmetric, J a J = a for the
    exchange matrix J (Cantoni & Butler 1976).  With k = n // 2, top-left
    block B and top-right block C, the vectors [p; -J p] / sqrt(2) are
    eigenvectors of a for the eigenpairs (l, p) of B - C J, and [p; J p] /
    sqrt(2) for those of B + C J; for odd n the middle row and column of a,
    off the diagonal scaled by sqrt(2), border B + C J, and its eigenvector
    (p, s) gives [p / sqrt(2); s; J p / sqrt(2)].  Returns the k eigenpairs
    of B - C J, then the n - k of B + C J."""
    n = a.shape[-1]
    k = n // 2
    if n < 2 or not np.array_equal(a, a[..., ::-1, ::-1]):
        return np.linalg.eigh(a)
    B, CJ = a[..., :k, :k], a[..., :k, ::-1][..., :k]
    l_minus, p_minus = np.linalg.eigh(B - CJ)
    plus = np.empty(a.shape[:-2] + (n - k, n - k))
    np.add(B, CJ, out=plus[..., :k, :k])
    if n % 2:
        plus[..., :k, k] = plus[..., k, :k] = np.sqrt(2.0) * a[..., :k, k]
        plus[..., k, k] = a[..., k, k]
    l_plus, p_plus = np.linalg.eigh(plus)
    q = np.zeros(a.shape)
    half = np.sqrt(0.5)
    q[..., :k, :k] = half * p_minus
    q[..., n - k:, :k] = -q[..., k - 1::-1, :k]
    q[..., :k, k:] = half * p_plus[..., :k, :]
    q[..., n - k:, k:] = q[..., k - 1::-1, k:]
    if n % 2:
        q[..., k, k:] = p_plus[..., k, :]
    return np.concatenate([l_minus, l_plus], axis=-1), q


def _mT(x):
    """``x`` with its last two axes swapped: each matrix of a stack transposed."""
    return np.swapaxes(x, -1, -2)


def _stack_rows(x):
    """An (..., m, p, q) stack of m matrices as one (..., m p, q) matrix."""
    return x.reshape(x.shape[:-3] + (-1, x.shape[-1]))


def _kronecker_factors(r, cov):
    """The factor algebra of a ``KroneckerCov`` K_oo and a residual ``r``
    (..., N - m), shared by ``_kronecker_logpdf`` and ``kronecker_conditional``.

    Returns ``(l1, q1, l2, q2, d, t, u, holes)``: ``cov.eigen()``, t = Q' r
    on the (n1, n2) lattice, with ``r`` padded with zeros at the holes and
    Q = q1 (x) q2, and u = t / d, so that Q u = P r for P = K^-1, the full
    lattice's inverse (Saatci 2011).  ``holes`` is None on a full lattice;
    with m holes it is ``(keep, Wd, L, L_inv, y)``: the mask of the points
    that remain, the rows W_k / d, flattened, with W_k = q1[i_k]' q2[j_k] for
    hole k at (i_k, j_k), the Cholesky factor L of C = P_hh = <W_k / d, W_l>
    and its inverse, and y = L^-1 (P r)_h.  Then K_oo^-1 = P_oo - P_oh C^-1
    P_ho exactly, and for any x on the full lattice, x' P r - (L^-1 (P x)_h)'
    y is x_o' K_oo^-1 r_o: x's entries at the holes cancel.  Raises
    ``np.linalg.LinAlgError`` if a d is not positive or C does not factor.
    """
    l1, q1, l2, q2, d = cov.eigen()
    n1, n2 = d.shape[-2:]
    N, holes = n1 * n2, np.asarray(cov.holes, dtype=np.intp)
    m = holes.size
    if r.shape[-1:] != (N - m,):
        raise ValueError(f"resid has shape {r.shape}, the covariance size {N - m}")
    if not (d > 0).all():
        raise np.linalg.LinAlgError(
            f"covariance not positive definite (min eigenvalue {d.min():.3e})")
    if m:
        keep = np.ones(N, dtype=bool)
        keep[holes] = False
        r_full = np.zeros(r.shape[:-1] + (N,))
        r_full[..., keep] = r
        r = r_full
    t = _mT(q1) @ r.reshape(r.shape[:-1] + (n1, n2)) @ q2
    u = t / d
    if not m:
        return l1, q1, l2, q2, d, t, u, None
    W = q1[..., holes // n2, :, None] * q2[..., holes % n2, None, :]
    W = W.reshape(W.shape[:-2] + (N,))  # row k: W_k
    Wd = W / d.reshape(d.shape[:-2] + (1, N))
    # C = P_hh; a C that does not factor raises LinAlgError
    L = np.linalg.cholesky(Wd @ _mT(W))
    L_inv = np.linalg.inv(L)
    y = L_inv @ (W @ u.reshape(u.shape[:-2] + (N, 1)))
    return l1, q1, l2, q2, d, t, u, (keep, Wd, L, L_inv, y)


def _kronecker_logpdf(r, cov):
    """``gaussian_spd_logpdf`` for a ``KroneckerCov``, over any leading axes
    of ``r`` (..., N - m) and ``cov``.

    With Q = q1 (x) q2, the full lattice's covariance is K = Q diag(d) Q', so
    the density needs only t = Q' r, formed on the (n1, n2) reshape of ``r``
    as q1' R q2, and alpha = Q (t / d) (Saatci 2011).  With A the (n1, n2)
    reshape of alpha, the field gradients are a1: scale/2 (A a2 A' - q1
    diag(sum_l l2_l / d_il) q1'), a2 the mirror form; scale: (sum A o (a1 A
    a2) - sum l1 l2' / d) / 2; nugget: (sum A^2 - sum 1 / d) / 2.

    With holes h, in the terms of ``_kronecker_factors``, log det K_oo =
    sum log d + log det C and the quadratic form is r' P r - y' y, exactly;
    the value forms no P's hole columns U_k = q1 (W_k / d) q2'.  In the
    gradients, alpha = P r - U' L^-' y, zero at the holes, enters the full
    lattice's formulas, and -K_oo^-1 / 2 adds the rank-m term Z' Z / 2 for
    Z = L^-1 U: a1 gets scale/2 sum_k Z_k a2 Z_k', a2 scale/2 sum_k Z_k' a1
    Z_k, scale <sum_k Z_k' a1 Z_k, a2> / 2 and nugget sum Z^2 / 2, each sum
    over k one matrix product of the stacked Z_k.
    """
    l1, q1, l2, q2, d, t, u, holes = _kronecker_factors(r, cov)
    n1, n2 = d.shape[-2:]
    N, m = n1 * n2, len(cov.holes)
    mats = (-2, -1)
    logdet, quad = np.log(d).sum(axis=mats), (t * u).sum(axis=mats)
    if m:
        keep, Wd, L, L_inv, y = holes
        logdet = logdet + 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
        quad = quad - (y * y).sum(axis=mats)
    val = -0.5 * ((N - m) * np.log(2.0 * np.pi) + logdet + quad)
    _check_finite(val, "gaussian_spd_logpdf")
    a1, a2, scale = cov[:3]

    def grads():
        A = q1 @ u @ _mT(q2)
        if m:
            # Z = L^-1 U, each row Z_k an (n1, n2) matrix
            Z = (q1[..., None, :, :] @ (L_inv @ Wd).reshape(Wd.shape[:-1] + (n1, n2))
                 @ _mT(q2)[..., None, :, :])
            A = A - (_mT(y) @ Z.reshape(Z.shape[:-2] + (N,))).reshape(A.shape)
        inv_d = 1.0 / d
        g_a1 = A @ a2 @ _mT(A) - (q1 * (l2[..., None, :] @ _mT(inv_d))) @ _mT(q1)
        g_a2 = _mT(A) @ a1 @ A - (q2 * (l1[..., None, :] @ inv_d)) @ _mT(q2)
        g_scale = ((A * (a1 @ A @ a2)).sum(axis=mats, keepdims=True)
                   - l1[..., None, :] @ inv_d @ l2[..., :, None])
        g_nugget = (A * A).sum(axis=mats, keepdims=True) - inv_d.sum(axis=mats, keepdims=True)
        d_resid = -A.reshape(A.shape[:-2] + (N,))
        if m:
            Zt = _mT(Z)
            a2_sum = _mT(_stack_rows(Z)) @ _stack_rows(a1[..., None, :, :] @ Z)
            g_a1 = g_a1 + _mT(_stack_rows(Zt)) @ _stack_rows(a2[..., None, :, :] @ Zt)
            g_a2 = g_a2 + a2_sum
            g_scale = g_scale + (a2_sum * a2).sum(axis=mats, keepdims=True)
            g_nugget = g_nugget + (Z * Z).sum(axis=(-3, -2, -1))[..., None, None]
            # compress, not d_resid[..., keep], whose result is not C-ordered:
            # a row sum over it would round differently in a block
            d_resid = np.compress(keep, d_resid, axis=-1)
        return d_resid, KroneckerCov(0.5 * scale * g_a1, 0.5 * scale * g_a2,
                                     0.5 * g_scale, 0.5 * g_nugget)

    return (val if val.ndim else float(val)), grads


def kronecker_conditional(resid, cov, k1, k2):
    """The Gaussian conditioning terms of p points against a ``KroneckerCov``
    K_oo, full or with holes, from its factors: no n x n array and no n x n
    factorization.

    Column p of ``k1`` (..., n1, p) and ``k2`` (..., n2, p) gives the
    lattice vector k_p = kron(k1[:, p], k2[:, p]), such as the factors of a
    separable kernel between the lattice and a test point; its entries at
    the holes need not be zero.  Returns k_o' K_oo^-1 resid and k_o' K_oo^-1
    k_o for each p, with k_o the entries of k_p at the points that remain,
    as two (..., p) arrays over the leading axes of ``resid`` (..., N - m),
    ``cov``, ``k1`` and ``k2``.  With B = q1' k1 and C = q2' k2, Q' k_p is
    the outer product of B[:, p] and C[:, p], so k_p' P r = sum_ij B_ip
    u_ij C_jp and k_p' P k_p = sum_ij B_ip^2 C_jp^2 / d_ij; with holes, z_p =
    L^-1 (P k_p)_h, (P k_p)_h,k = sum_ij (W_k / d)_ij B_ip C_jp, subtracts
    z_p' y and |z_p|^2 (``_kronecker_factors``).  Raises
    ``np.linalg.LinAlgError`` as ``gaussian_spd_logpdf`` does.
    """
    _, q1, _, q2, d, _, u, holes = _kronecker_factors(resid, cov)
    B, C = _mT(q1) @ k1, _mT(q2) @ k2
    k_r = (B * (u @ C)).sum(axis=-2)
    k_k = (B * B * ((1.0 / d) @ (C * C))).sum(axis=-2)
    if holes is not None:
        _, Wd, _, L_inv, y = holes
        Wd = Wd.reshape(Wd.shape[:-1] + d.shape[-2:])  # row k: (W_k / d) as (n1, n2)
        z = L_inv @ (B[..., None, :, :] * (Wd @ C[..., None, :, :])).sum(axis=-2)
        k_r = k_r - (z * y).sum(axis=-2)
        k_k = k_k - (z * z).sum(axis=-2)
    return k_r, k_k


def gaussian_spd_logpdf(resid, cov, work=None):
    """log N(resid; 0, cov) for symmetric positive-definite ``cov``, and its
    gradients on demand.

    Returns ``(value, grads)``: a float, or one value per row for a stack, and
    a function whose call returns ``(d_resid, d_cov)``, the value's gradients
    with respect to ``resid`` and ``cov``.  A caller that needs only the value
    never calls ``grads`` and pays for no gradient.  Raises
    ``np.linalg.LinAlgError`` if the factorization fails, and
    ``UnsupportedOperationError`` for a tape-node operand: a model links the
    gradients to the tape itself.

    For a dense ``cov``, d_resid = -alpha with alpha = cov^-1 resid, and
    d_cov = G = (alpha alpha' - cov^-1) / 2, which costs cov's inverse from
    its Cholesky factor.  ``work``, an n x n C-ordered float array, makes the
    call allocate no n x n array: ``cov`` must then be C-ordered and exactly
    symmetric, its storage is overwritten by its Cholesky factor and then, by
    ``grads``, by its inverse, and G is written into ``work``.  Without it,
    ``cov`` is copied.  Call ``grads`` at most once, before ``cov`` or
    ``work`` is used again.

    ``cov`` may also be a ``KroneckerCov``: the call then takes the
    eigendecompositions of its two factors and forms no n x n array, raises
    ``np.linalg.LinAlgError`` if an eigenvalue of the full lattice's
    covariance is not positive, and d_cov is a ``KroneckerCov`` whose four
    fields hold the gradients with respect to ``cov``'s (its ``holes`` are
    left empty).  With m holes, ``resid`` has the N - m entries of the
    points that remain, in lattice order, and the value is exact, by an
    m x m Schur complement whose Cholesky factorization raises
    ``np.linalg.LinAlgError`` if it fails; the value costs O(m^2 N) on top
    of the full lattice's, and ``grads`` O(m N (n1 + n2)).  A stacked
    ``KroneckerCov`` or ``resid`` (..., n) gives one value per row, and
    gradients whose row r is that of value r, over the broadcast leading
    axes.  ``work`` applies to a dense ``cov`` only.
    """
    if isinstance(resid, Node) or isinstance(cov, Node):
        raise UnsupportedOperationError("gaussian_spd_logpdf takes arrays, not tape nodes")
    r = np.asarray(resid, dtype=float)
    if isinstance(cov, KroneckerCov):
        if work is not None:
            raise ValueError("work applies to a dense covariance only")
        return _kronecker_logpdf(r, cov)
    n = r.shape[0]
    # cov is symmetric, so cov.T is cov in Fortran order: LAPACK factors and
    # then inverts it in place, in the lower triangle, and zeroes the upper one
    c, info = dpotrf((cov if work is not None else np.array(cov, dtype=float)).T,
                     lower=1, clean=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    alpha = cho_solve((c, True), r, check_finite=False)
    logdet = 2.0 * np.sum(np.log(np.diag(c)))
    val = float(-0.5 * (n * np.log(2.0 * np.pi) + logdet + r @ alpha))
    _check_finite(val, "gaussian_spd_logpdf")

    def grads():
        low_inv, info = dpotri(c, lower=1, overwrite_c=1)
        if info:
            raise np.linalg.LinAlgError("covariance inverse failed")
        # the upper triangle is zero, so low_inv + low_inv' is cov^-1 with its
        # diagonal doubled; then one rank-1 update by scipy's BLAS
        G = np.add(low_inv, low_inv.T, out=np.empty((n, n)) if work is None else work)
        G.flat[:: n + 1] = low_inv.diagonal()
        G *= -0.5
        # G is symmetric, so its transpose is the Fortran array BLAS updates
        dger(0.5, alpha, alpha, a=G.T, overwrite_a=1)
        return -alpha, G

    return val, grads


def closed_form(x, values, grads, op):
    """A row objective whose values and gradients were computed off the
    tape, as one node linked to ``x``.

    ``values`` has shape ``x.shape[:-1]`` and ``grads`` the shape of ``x``:
    row r of ``grads`` is the gradient of ``values[r]`` with respect to row
    r of ``x``.  The values and the gradients are each checked once for
    finiteness, and a non-finite entry raises ``NonFiniteValueError(op)``.
    """
    _check_finite(values, op)
    _check_finite(grads, op)
    return Node(values, ((x, lambda g: g[..., None] * grads),))


# -- reverse sweep ----------------------------------------------------------


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(out: Node, seed=None):
    """Reverse sweep from ``out``; fills ``_grad`` on every node.

    Without ``seed``, ``out`` must be a scalar, seeded with 1.  ``seed``, an
    array of ``out``'s shape, is the gradient of the objective with respect
    to ``out``: ones sweep the sum of its entries, as a row objective's does.
    """
    if seed is None:
        if np.asarray(out.value).size != 1:
            raise ValueError("backward requires a scalar output")
        seed = np.ones_like(out.value)
    elif np.shape(seed) != out.value.shape:
        raise ValueError(f"seed has shape {np.shape(seed)}, the output {out.value.shape}")
    order = _toposort(out)
    for node in order:
        node._grad = None
    out._grad = seed
    for node in reversed(order):
        if node._grad is None:
            continue
        for parent, vjp in node.parents:
            contrib = vjp(node._grad)
            # a contribution may be another node's gradient array: never add
            # into it in place
            parent._grad = contrib if parent._grad is None else parent._grad + contrib


def grad(f, x):
    """Evaluate ``f`` at ``x`` and return ``(value, gradient)``.

    Scalar objective: ``x`` is 1-d and ``f`` maps it to a scalar node using
    only the supported operations; returns a float and a gradient of the same
    length as ``x``.

    Row objective: ``x`` is a block ``(..., d)`` of rows, such as ``(S, d)``
    or ``(K, S, d)``, and ``f`` returns a node of shape ``x.shape[:-1]`` whose
    entry for a row depends only on that row.  One sweep backpropagates the
    sum, so each row of the gradient is that of ``f``'s entry for the row;
    returns ``(values x.shape[:-1], grads x.shape)``.  The sweep is seeded
    with ones, so no row-sum node enters the tape.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteValueError("input")
    rows = x.ndim >= 2
    leaf = Node(x)
    out = f(leaf)
    if not isinstance(out, Node):
        # constant objective: gradient is exactly zero
        val = np.asarray(out, dtype=float)
        return (np.broadcast_to(val, x.shape[:-1]).copy() if rows else float(val)), np.zeros_like(x)
    if rows:
        if out.value.shape != x.shape[:-1]:
            raise ValueError(f"row objective returned shape {out.value.shape}, "
                             f"expected {x.shape[:-1]}")
        backward(out, np.ones(out.value.shape))
    else:
        backward(out)
    g = leaf._grad
    if g is None:
        g = np.zeros_like(x)
    _check_finite(g, "backward")
    g = np.asarray(g, dtype=float).reshape(x.shape)
    return (out.value.copy() if rows else float(out.value)), g


def value(f, x):
    """Evaluate ``f`` at ``x`` without touching gradients."""
    out = f(Node(np.asarray(x, dtype=float)))
    return float(out.value if isinstance(out, Node) else np.asarray(out))


def finite_diff_check(f, x, h=1e-5):
    """Max relative discrepancy between the tape gradient and central
    differences with step ``h``: max_i |g_i - fd_i| / (|g_i| + h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    _, g = grad(f, x)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd = (value(f, x + e) - value(f, x - e)) / (2.0 * h)
        worst = max(worst, abs(g[i] - fd) / (abs(g[i]) + h))
    return worst
