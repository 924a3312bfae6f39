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
marginals efficiently.

Tapes are single-use and confined to the thread that built them; there is no
shared mutable state between evaluations.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri


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
        return add(self, -other if isinstance(other, Node) else -_value_of(other))

    def __rsub__(self, other):
        return add(other, -self)

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


def gaussian_spd_logpdf(resid, cov):
    """log N(resid; 0, cov) for symmetric positive-definite ``cov``.

    A single tape primitive so that Gaussian-process marginals cost one
    Cholesky factorization instead of O(n^3) scalar records.  Raises
    ``np.linalg.LinAlgError`` if the factorization fails.
    """
    r, K = _value_of(resid), _value_of(cov)
    n = r.shape[0]
    c, low = cho_factor(K, lower=True)
    alpha = cho_solve((c, low), r)
    logdet = 2.0 * np.sum(np.log(np.diag(c)))
    val = -0.5 * (n * np.log(2.0 * np.pi) + logdet + r @ alpha)
    _check_finite(val, "gaussian_spd_logpdf")

    def vjp_r(g):
        return -g * alpha

    def vjp_K(g):
        # K^-1 from the existing factor; dpotri fills the lower triangle only
        low_inv, info = dpotri(c, lower=1)
        if info:
            raise np.linalg.LinAlgError("covariance inverse failed")
        Kinv = np.where(np.tri(len(low_inv), dtype=bool), low_inv, low_inv.T)
        return g * 0.5 * (np.outer(alpha, alpha) - Kinv)

    return Node(val, _links((resid, vjp_r), (cov, vjp_K)))


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
