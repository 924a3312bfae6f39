"""Reverse-mode automatic differentiation for scalar and row objectives.

A ``Node`` wraps a numpy array (or python float) and records the operations
applied to it.  Calling :func:`grad` on a scalar-valued function replays the
recorded tape backwards and returns the exact gradient with respect to every
input coordinate.  A row objective maps a block of rows, such as ``(S, d)``
or ``(K, S, d)``, to one value per row, each depending only on its own row;
one sweep then gives every row's gradient.  Constant operands are not
recorded, so the sweep computes no gradient that nothing reads.  The
supported operation set is deliberately small: the elementwise arithmetic and
link functions needed by log-density models, plus the reductions (sum, dot)
and one multivariate-normal primitive needed to express Gaussian-process
marginals efficiently.  A model that knows its gradients in closed form
enters the tape as one node through :func:`closed_form`.

The multivariate-normal primitive takes a dense covariance or a
:class:`KroneckerCov`, scale * kron(a1, a2) + nugget * I, the covariance of
a separable kernel on a full lattice.  The Kronecker form costs the
eigendecompositions of its two small factors, and no n x n array; it
broadcasts over leading axes, so a block of draws is one call.

Tapes are single-use and confined to the thread that built them.  The tape
keeps no state between evaluations, and no primitive keeps an n x n array for
the sweep: :func:`gaussian_spd_logpdf` finishes its covariance gradient before
it returns.  Given a work array, it overwrites its covariance and writes that
gradient into the array, so the GP model reuses one set of n x n arrays from
draw to draw.  Evaluations that share such arrays must not run concurrently.
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


def _sigmoid_np(x, e):
    # stable, with e = exp(-|x|): 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x):
    v = _value_of(x)
    e = np.exp(-np.abs(v))  # shared by the value and the vjp's sigmoid
    val = np.maximum(v, 0.0) + np.log1p(e)  # stable: max(v, 0) + log1p(exp(-|v|))
    if _is_const(x):
        return val
    sig = _sigmoid_np(v, e)
    return Node(_check_finite(val, "softplus"), ((x, lambda g: g * sig),))


def sigmoid(x):
    v = _value_of(x)
    val = _sigmoid_np(v, np.exp(-np.abs(v)))
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
    """The covariance scale * kron(a1, a2) + nugget * I, of size n1 n2, for
    symmetric n1 x n1 ``a1`` and n2 x n2 ``a2`` and scalar ``scale`` and
    ``nugget``; each field is an array or a tape node.  Leading axes make a
    stack of covariances: ``a1`` (..., n1, n1), ``a2`` (..., n2, n2), and
    ``scale`` and ``nugget`` (..., 1, 1), broadcast against each other."""

    a1: object
    a2: object
    scale: object
    nugget: object

    def eigen(self):
        """``(l1, q1, l2, q2, d)``: the eigendecompositions a1 = q1 diag(l1) q1'
        and a2 = q2 diag(l2) q2', and the covariance's eigenvalues
        d = scale l1 l2' + nugget as an (..., n1, n2) array."""
        l1, q1 = np.linalg.eigh(_value_of(self.a1))
        l2, q2 = np.linalg.eigh(_value_of(self.a2))
        d = _value_of(self.scale) * (l1[..., :, None] * l2[..., None, :]) + _value_of(self.nugget)
        return l1, q1, l2, q2, d


def _mT(x):
    """``x`` with its last two axes swapped: each matrix of a stack transposed."""
    return np.swapaxes(x, -1, -2)


def _kronecker_logpdf(resid, cov):
    """``gaussian_spd_logpdf`` for a ``KroneckerCov``, over any leading axes
    of ``resid`` (..., n) and ``cov``.

    With Q = q1 (x) q2, the covariance is Q diag(d) Q', so the density needs
    only t = Q' resid, formed on the (n1, n2) reshape of ``resid`` as
    q1' R q2, and alpha = Q (t / d) (Saatci 2011).  Each node field is
    linked to its gradient, with A the (n1, n2) reshape of alpha:
    a1: scale/2 (A a2 A' - q1 diag(sum_l l2_l / d_il) q1'), a2 the mirror
    form; scale: (sum A o (a1 A a2) - sum l1 l2' / d) / 2; nugget:
    (sum A^2 - sum 1 / d) / 2.  Row by row, each link scales its gradient
    by that row's cotangent and sums over the rows that share the field.
    """
    l1, q1, l2, q2, d = cov.eigen()
    n1, n2 = d.shape[-2:]
    r = _value_of(resid)
    if r.shape[-1:] != (n1 * n2,):
        raise ValueError(f"resid has shape {r.shape}, the covariance size {n1 * n2}")
    if not (d > 0).all():
        raise np.linalg.LinAlgError(
            f"covariance not positive definite (min eigenvalue {d.min():.3e})")
    t = _mT(q1) @ r.reshape(r.shape[:-1] + (n1, n2)) @ q2
    u = t / d
    mats = (-2, -1)
    val = -0.5 * (n1 * n2 * np.log(2.0 * np.pi) + np.log(d).sum(axis=mats)
                  + (t * u).sum(axis=mats))
    _check_finite(val, "gaussian_spd_logpdf")
    a1, a2, scale, nugget = (_value_of(x) for x in cov)
    A = q1 @ u @ _mT(q2)
    inv_d = 1.0 / d
    grads = {
        "a1": lambda: 0.5 * scale * (A @ a2 @ _mT(A) - (q1 * (l2[..., None, :] @ _mT(inv_d)))
                                     @ _mT(q1)),
        "a2": lambda: 0.5 * scale * (_mT(A) @ a1 @ A - (q2 * (l1[..., None, :] @ inv_d))
                                     @ _mT(q2)),
        "scale": lambda: 0.5 * ((A * (a1 @ A @ a2)).sum(axis=mats, keepdims=True)
                                - l1[..., None, :] @ inv_d @ l2[..., :, None]),
        "nugget": lambda: 0.5 * ((A * A).sum(axis=mats, keepdims=True)
                                 - inv_d.sum(axis=mats, keepdims=True)),
    }
    alpha = A.reshape(A.shape[:-2] + (n1 * n2,))
    links = list(_links((resid, lambda g: _unbroadcast(-g[..., None] * alpha, r.shape))))
    for name, field in zip(cov._fields, cov):
        if isinstance(field, Node):
            links.append((field, lambda g, grad_f=grads[name](), shape=field.value.shape:
                          _unbroadcast(g[..., None, None] * grad_f, shape)))
    return Node(val, tuple(links)) if links else (val if val.ndim else float(val))


def gaussian_spd_logpdf(resid, cov, work=None):
    """log N(resid; 0, cov) for symmetric positive-definite ``cov``.

    A single tape primitive so that Gaussian-process marginals cost one
    Cholesky factorization instead of O(n^3) scalar records.  Raises
    ``np.linalg.LinAlgError`` if the factorization fails.

    ``cov`` may also be a ``KroneckerCov``: the call then takes the
    eigendecompositions of its two factors and forms no n x n array, and
    raises ``np.linalg.LinAlgError`` if an eigenvalue of the covariance is
    not positive.  ``work`` applies to a dense ``cov`` only.  A stacked
    ``KroneckerCov`` or ``resid`` (..., n) gives one value per row.

    With constant operands the result is a float, or an array for a stack.
    For a node ``cov`` the call forms G = df/dcov = (alpha alpha' - K^-1) / 2
    at once and links the output to ``cov``'s parents through their vjps of G, scaled by the
    cotangent (exact: the output is a scalar and every vjp is linear in its
    cotangent), so no n x n array outlives the call.  ``cov`` itself then
    gets no gradient from this term, unless it is a leaf, linked to G.

    ``work``, an n x n C-ordered float array, makes the call allocate no
    n x n array: ``cov`` must then be C-ordered and exactly symmetric, its
    storage is overwritten by its Cholesky factor and then by its inverse,
    and G is written into ``work`` (and copied where a link keeps it).
    Without it, ``cov`` is copied.
    """
    if isinstance(cov, KroneckerCov):
        if work is not None:
            raise ValueError("work applies to a dense covariance only")
        return _kronecker_logpdf(resid, cov)
    r, K = _value_of(resid), _value_of(cov)
    n = r.shape[0]
    # K is symmetric, so K.T is K in Fortran order: LAPACK factors and then
    # inverts it in place, in the lower triangle, and zeroes the upper one
    c, info = dpotrf((K if work is not None else K.copy()).T, lower=1, clean=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    alpha = cho_solve((c, True), r, check_finite=False)
    logdet = 2.0 * np.sum(np.log(np.diag(c)))
    val = -0.5 * (n * np.log(2.0 * np.pi) + logdet + r @ alpha)
    _check_finite(val, "gaussian_spd_logpdf")
    links = [(resid, lambda g: -g * alpha)] if isinstance(resid, Node) else []
    if isinstance(cov, Node):
        low_inv, info = dpotri(c, lower=1, overwrite_c=1)
        if info:
            raise np.linalg.LinAlgError("covariance inverse failed")
        # G = (alpha alpha' - K^-1) / 2.  The upper triangle is zero, so
        # low_inv + low_inv' is K^-1 with its diagonal doubled; then one
        # rank-1 update by scipy's BLAS
        G = np.add(low_inv, low_inv.T, out=np.empty((n, n)) if work is None else work)
        G.flat[:: n + 1] = low_inv.diagonal()
        G *= -0.5
        # G is symmetric, so its transpose is the Fortran array BLAS updates
        dger(0.5, alpha, alpha, a=G.T, overwrite_a=1)
        for parent, vjp in cov.parents or ((cov, lambda G: G),):
            grad_G = vjp(G)
            if work is not None and np.may_share_memory(grad_G, work):
                grad_G = grad_G.copy()
            links.append((parent, lambda g, grad_G=grad_G: g * grad_G))
    return Node(val, tuple(links)) if links else float(val)


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


def backward(out: Node):
    """Reverse sweep from scalar ``out``; fills ``_grad`` on every node."""
    if np.asarray(out.value).size != 1:
        raise ValueError("backward requires a scalar output")
    order = _toposort(out)
    for node in order:
        node._grad = None
    out._grad = np.ones_like(out.value)
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
    returns ``(values x.shape[:-1], grads x.shape)``.
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
        backward(vsum(out))
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
