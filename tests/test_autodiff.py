"""Tape correctness: every operation against finite differences and, where
possible, an independent closed-form gradient."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

from vbma import autodiff as ad

finite_vec = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=2, max_size=6
).map(np.array)


def test_grad_of_quadratic_matches_closed_form():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    x0 = np.array([1.0, -2.0])
    val, g = ad.grad(lambda x: 0.5 * ad.dot(x, ad.dot(A, x)), x0)
    assert val == pytest.approx(0.5 * x0 @ A @ x0)
    assert np.allclose(g, A @ x0)


@given(finite_vec)
@settings(max_examples=40, deadline=None)
def test_elementary_chain_matches_finite_differences(x):
    def f(v):
        return ad.vsum(ad.exp(-(v**2) / 4.0) + ad.sigmoid(v) * 0.3 + ad.softplus(v))

    assert ad.finite_diff_check(f, x, h=1e-5) < 1e-4


@given(st.lists(st.floats(min_value=0.2, max_value=4.0), min_size=2, max_size=5).map(np.array))
@settings(max_examples=40, deadline=None)
def test_log_sqrt_power_positive_domain(x):
    def f(v):
        return ad.vsum(ad.log(v) + ad.sqrt(v) + v**1.7)

    assert ad.finite_diff_check(f, x, h=1e-6) < 1e-4


def test_sigmoid_gradient():
    _, g = ad.grad(lambda v: ad.vsum(ad.sigmoid(v)), np.array([0.0, 2.0, -3.0]))
    s = 1.0 / (1.0 + np.exp(-np.array([0.0, 2.0, -3.0])))
    assert np.allclose(g, s * (1 - s))


def test_getitem_scatters_gradient():
    x = np.array([1.0, 2.0, 3.0])
    _, g = ad.grad(lambda v: v[1] * 5.0 + v[1], x)
    assert np.allclose(g, [0.0, 6.0, 0.0])


def test_getitem_repeated_fancy_index_accumulates():
    _, g = ad.grad(lambda v: ad.vsum(v[[0, 0, 2]]), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(g, [2.0, 0.0, 1.0])


def test_row_objective_gives_each_rows_gradient():
    A = np.arange(6.0).reshape(3, 2) / 4.0
    X = np.random.default_rng(2).standard_normal((5, 3))

    def f(v):  # row s depends only on v[s]
        return ad.vsum(ad.exp(v[..., :2]) * ad.dot(v, A), axis=-1) + ad.vsum(v**2, axis=-1)

    vals, grads = ad.grad(f, X)
    assert vals.shape == (5,) and grads.shape == (5, 3)
    for s in range(5):
        val, g = ad.grad(f, X[s])
        assert vals[s] == pytest.approx(val, rel=1e-14)
        assert np.allclose(grads[s], g, rtol=1e-14, atol=0.0)


def test_row_objective_must_return_one_value_per_row():
    with pytest.raises(ValueError, match="row objective"):
        ad.grad(lambda v: ad.vsum(v), np.ones((3, 2)))


def test_vsum_axis_matches_fd():
    def f(v):
        m = v * np.arange(1.0, 7.0).reshape(2, 3)
        return ad.vsum(ad.vsum(m, axis=0) ** 2) + ad.vsum(ad.vsum(m, axis=-1) ** 3)

    assert ad.finite_diff_check(f, np.array([0.3, -1.0, 0.5]), h=1e-6) < 1e-5


def test_diamond_graph_accumulates_both_paths():
    # y = u * u with u reused: dy/dx must see both parents
    _, g = ad.grad(lambda v: (v[0] + v[0]) * v[0], np.array([3.0]))
    assert np.allclose(g, [12.0])


def test_broadcasting_unbroadcast_round_trip():
    x = np.array([1.0, 2.0])

    def f(v):
        m = v * np.ones((3, 2))  # broadcast up
        return ad.vsum(m * np.arange(6.0).reshape(3, 2))

    _, g = ad.grad(f, x)
    assert np.allclose(g, np.arange(6.0).reshape(3, 2).sum(axis=0))


def test_dot_matrix_vector_matches_fd():
    A = np.arange(6.0).reshape(2, 3) / 3.0

    def f(v):
        return ad.vsum(ad.dot(A, v) ** 2)

    assert ad.finite_diff_check(f, np.array([0.3, -1.0, 2.0]), h=1e-6) < 1e-5


def row_fd(f, X, h=1e-6):
    """Central differences of every value of row objective ``f`` (plain
    arrays in, plain arrays out) with respect to its own row."""
    fd = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        e = np.zeros_like(X)
        e[idx] = h
        fd[idx] = (f(X + e)[idx[:-1]] - f(X - e)[idx[:-1]]) / (2.0 * h)
    return fd


def test_stacked_row_objective_matches_fd():
    # a (K, S, d) block of rows with a constant (K, d, d) operand per leading
    # index, as in a stack of K models with masked quadratic forms
    r = np.random.default_rng(3)
    K, S, d, n = 3, 4, 3, 5
    A = r.standard_normal((K, d, d))
    B = r.standard_normal((d, n))
    w = r.standard_normal(n)

    def f(v):
        quad = ad.vsum(v * ad.dot(v, A), axis=-1)
        return quad + ad.dot(ad.sigmoid(ad.dot(v, B)), w) + ad.vsum(ad.exp(v[..., :1]), axis=-1)

    X = r.standard_normal((K, S, d))
    vals, grads = ad.grad(f, X)
    assert vals.shape == (K, S) and grads.shape == X.shape
    np.testing.assert_allclose(vals, f(X), rtol=1e-14)
    np.testing.assert_allclose(grads, row_fd(f, X), rtol=1e-6, atol=1e-8)
    for k in range(K):  # each stack member as a block of its own
        _, g_k = ad.grad(lambda v, k=k: ad.vsum(v * ad.dot(v, A[k]), axis=-1)
                         + ad.dot(ad.sigmoid(ad.dot(v, B)), w)
                         + ad.vsum(ad.exp(v[..., :1]), axis=-1), X[k])
        np.testing.assert_allclose(grads[k], g_k, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sa, sb", [((3,), (3,)), ((3,), (3, 2)), ((2, 3), (3,)),
                                    ((4, 2, 3), (3, 2)), ((2, 3), (4, 3, 2)),
                                    ((4, 2, 3), (4, 3, 2)), ((3,), (4, 3, 2)),
                                    ((4, 2, 3), (3,))])
def test_dot_gradients_for_every_operand_shape(sa, sb):
    # both operands on the tape; leading axes broadcast as in numpy's matmul
    r = np.random.default_rng(4)
    av, bv = r.standard_normal(sa), r.standard_normal(sb)
    w = r.standard_normal(np.shape(av @ bv))
    a, b = ad.Node(av), ad.Node(bv)
    ad.backward(ad.vsum(ad.dot(a, b) * w))
    for node, value, other in ((a, av, lambda x: np.sum((x @ bv) * w)),
                               (b, bv, lambda x: np.sum((av @ x) * w))):
        fd = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            e = np.zeros_like(value)
            e[idx] = 1e-6
            fd[idx] = (other(value + e) - other(value - e)) / 2e-6
        assert node._grad.shape == value.shape
        np.testing.assert_allclose(node._grad, fd, rtol=1e-6, atol=1e-8)


def test_subtraction_is_one_node_with_the_values_of_adding_the_negation():
    a = ad.Node(np.array([1.5, -2.0, 0.1]))
    b = ad.Node(np.array([0.3, 4.0, 0.1]))
    for out, operands, want in ((a - b, [a, b], a.value + -b.value),
                                (a - 2.5, [a], a.value + -2.5),
                                (np.ones(3) - a, [a], np.ones(3) + -a.value)):
        assert [p for p, _ in out.parents] == operands
        assert np.array_equal(out.value, want)
    f = lambda v: ad.vsum((v - v**2) - 1.0 + (3.0 - v) * v - v[0])
    assert ad.finite_diff_check(f, np.array([0.5, -1.2, 2.0]), h=1e-6) < 1e-6


def test_gaussian_spd_logpdf_value_matches_scipy():
    rng = np.random.default_rng(0)
    n = 5
    A = rng.standard_normal((n, n))
    cov = A @ A.T + n * np.eye(n)
    r = rng.standard_normal(n)
    given = cov.copy()
    out, _ = ad.gaussian_spd_logpdf(r, cov)
    assert np.array_equal(cov, given)  # without a work array, cov is copied
    assert type(out) is float
    assert out == pytest.approx(
        multivariate_normal.logpdf(r, mean=np.zeros(n), cov=cov), abs=1e-10
    )


def spd_problem(n=4, seed=2):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return rng, A @ A.T + n * np.eye(n), rng.standard_normal(n)


def logpdf_value(resid, cov):
    return ad.gaussian_spd_logpdf(resid, cov)[0]


def assert_matches_directional_fd(f, x, grad, rng, h=1e-6, rel=1e-7, symmetric=False):
    """<grad, D> against central differences of ``f`` along random
    directions D of ``x``'s shape (symmetric matrices if ``symmetric``)."""
    for _ in range(5):
        D = rng.standard_normal(np.shape(x))
        if symmetric:
            D = D + np.swapaxes(D, -1, -2)
        fd = (f(x + h * D) - f(x - h * D)) / (2.0 * h)
        assert np.sum(grad * D) == pytest.approx(fd, rel=rel, abs=1e-9)


def test_gaussian_spd_logpdf_gradients_match_fd():
    # d_resid and d_cov = G of a dense cov against central differences; the
    # factorization reads one triangle, so cov moves along symmetric D
    rng, cov, r = spd_problem()
    _, grads = ad.gaussian_spd_logpdf(r, cov)
    d_resid, G = grads()
    assert np.array_equal(G, G.T)
    assert_matches_directional_fd(lambda x: logpdf_value(x, cov), r, d_resid, rng)
    assert_matches_directional_fd(lambda x: logpdf_value(r, x), cov, G, rng, symmetric=True)


def test_gaussian_spd_logpdf_work_array_takes_the_factor_and_the_gradient():
    # with a work array, cov is overwritten, G is written into the work array,
    # and every number is bitwise that of the call that copies cov
    _, cov, r = spd_problem()
    val, grads = ad.gaussian_spd_logpdf(r, cov)
    d_resid, G = grads()
    K, work = cov.copy(), np.full_like(cov, np.nan)
    val_w, grads_w = ad.gaussian_spd_logpdf(r, K, work=work)
    assert not np.array_equal(K, cov)
    d_resid_w, G_w = grads_w()
    assert G_w is work
    assert val_w == val and np.array_equal(d_resid_w, d_resid) and np.array_equal(G_w, G)


def test_gaussian_spd_logpdf_rejects_indefinite():
    with pytest.raises(np.linalg.LinAlgError):
        ad.gaussian_spd_logpdf(np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def kronecker_problem():
    """Squared-exponential factors on 15 and 6 points; the first, with range
    3 on a unit spacing, is numerically singular (condition ~ 1e10)."""
    x1, x2 = np.arange(15.0), 0.7 * np.arange(6.0)
    a1 = np.exp(-np.subtract.outer(x1, x1) ** 2 / (2 * 3.0**2))
    a2 = np.exp(-np.subtract.outer(x2, x2) ** 2 / (2 * 1.3**2))
    r = np.random.default_rng(7).standard_normal(x1.size * x2.size)
    return r, a1, a2, 1.7, 0.09 + 1e-6 * 1.7


def dense_kronecker(a1, a2, scale, nugget):
    """scale * kron(a1, a2) + nugget * I as a dense array."""
    return scale * np.kron(a1, a2) + nugget * np.eye(len(a1) * len(a2))


# the fields of a KroneckerCov that carry a gradient; holes are indices
FIELDS = ("a1", "a2", "scale", "nugget")


def assert_kronecker_matches_dense(r, a1, a2, scale, nugget, holes=()):
    """The value, d_resid and the field gradients of the Kronecker form
    against the dense primitive on the same covariance without ``holes``,
    its G zero-padded at the holes and contracted with d cov / d field."""
    n1, n2 = len(a1), len(a2)
    keep = np.ones(n1 * n2, dtype=bool)
    keep[list(holes)] = False
    val, grads = ad.gaussian_spd_logpdf(r, ad.KroneckerCov(a1, a2, scale, nugget, holes))
    K_oo = dense_kronecker(a1, a2, scale, nugget)[np.ix_(keep, keep)]
    want_val, want_grads = ad.gaussian_spd_logpdf(r, K_oo)
    assert type(val) is float
    assert val == pytest.approx(want_val, rel=1e-10, abs=0)
    d_resid, d_cov = grads()
    want_d_resid, G_oo = want_grads()
    G = np.zeros((n1 * n2, n1 * n2))
    G[np.ix_(keep, keep)] = G_oo
    G4 = G.reshape(n1, n2, n1, n2)  # G[(i, k), (j, l)]
    for name, g, want in (("resid", d_resid, want_d_resid),
                          ("a1", d_cov.a1, scale * np.einsum("ikjl,kl->ij", G4, a2)),
                          ("a2", d_cov.a2, scale * np.einsum("ikjl,ij->kl", G4, a1)),
                          ("scale", d_cov.scale, np.sum(G * np.kron(a1, a2))),
                          ("nugget", d_cov.nugget, np.trace(G))):
        np.testing.assert_allclose(np.squeeze(g), want, rtol=1e-10,
                                   atol=1e-10 * np.abs(want).max(), err_msg=name)


def test_kronecker_cov_matches_the_dense_covariance():
    # n1 != n2, so a transposed reshape of resid would not agree
    problem = kronecker_problem()
    assert np.linalg.cond(problem[1]) > 1e9
    assert_kronecker_matches_dense(*problem)


def se_factor(n, ell):
    x = np.arange(float(n))
    return np.exp(-np.subtract.outer(x, x) ** 2 / (2 * ell**2))


@pytest.mark.parametrize("n1, n2, holes", [
    (17, 18, np.arange(300, 306)),  # gp-predict's training set: 16 rows and 12 points
    (18, 18, np.sort(np.random.default_rng(3).choice(324, 24, replace=False))),
    (15, 6, [0, 44, 89]),  # the first, an interior and the last point
])
def test_kronecker_cov_with_holes_matches_the_dense_covariance(n1, n2, holes):
    # the covariance of the lattice points other than the holes, exactly
    r = np.random.default_rng(11).standard_normal(n1 * n2 - len(holes))
    assert_kronecker_matches_dense(r, se_factor(n1, 3.0), se_factor(n2, 2.5),
                                   1.3, 0.09 + 1e-6 * 1.3, holes)


def assert_kronecker_matches_fd(holes=(), rel=1e-7):
    """d_resid and each field gradient against central differences, on a
    well-conditioned 3 x 4 lattice without ``holes``; a1 and a2 move along
    symmetric directions."""
    r, *fields = kronecker_stack((), 3, 4, seed=5)
    r = r[len(holes):]
    rng = np.random.default_rng(5)
    _, grads = ad.gaussian_spd_logpdf(r, ad.KroneckerCov(*fields, holes))
    d_resid, d_cov = grads()
    assert_matches_directional_fd(lambda x: logpdf_value(x, ad.KroneckerCov(*fields, holes)),
                                  r, d_resid, rng, rel=rel)
    for i, (name, g) in enumerate(zip(FIELDS, d_cov)):
        def f(x, i=i):
            return logpdf_value(r, ad.KroneckerCov(*fields[:i], x, *fields[i + 1:], holes))

        assert np.shape(g) == np.shape(fields[i]), name
        assert_matches_directional_fd(f, fields[i], g, rng, rel=rel,
                                      symmetric=name in ("a1", "a2"))


def test_kronecker_cov_gradients_match_fd():
    assert_kronecker_matches_fd()


def test_kronecker_cov_with_holes_gradients_match_fd():
    # the value's rounding (~12 eps) over the step, ~3e-9, is 1e-6 of one
    # directional derivative (~4e-3, the nugget's), so rel is 1e-6, not 1e-7;
    # the exact check against the dense primitive is the one above
    assert_kronecker_matches_fd(holes=(2, 5, 11), rel=1e-6)


def eigh_shapes(monkeypatch):
    """The shapes of the matrices every ``np.linalg.eigh`` call receives."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    return shapes


@pytest.mark.parametrize("n", [2, 3, 4, 5, 15, 20])
def test_centrosymmetric_factor_takes_two_half_size_eigenproblems(n, monkeypatch):
    # SE factors on an evenly spaced axis are exactly centrosymmetric: a
    # stack of them is split, and its eigenpairs reconstruct each factor
    # and are orthonormal to 1e-14, as eigh's own are
    x = np.arange(float(n))
    ell = np.random.default_rng(n).uniform(0.5, 3.0, (4, 1, 1))
    a = np.exp(-np.subtract.outer(x, x) ** 2 / (2 * ell**2))
    shapes = eigh_shapes(monkeypatch)
    l, q = ad.KroneckerCov(a, a[:, :2, :2], 1.0, 0.1).eigen()[:2]
    assert shapes[:2] == [(4, n // 2, n // 2), (4, n - n // 2, n - n // 2)]
    assert np.abs((q * l[..., None, :]) @ np.swapaxes(q, -1, -2) - a).max() <= 1e-14
    assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n)).max() <= 1e-14
    np.testing.assert_allclose(np.sort(l, axis=-1), np.linalg.eigvalsh(a), rtol=0, atol=1e-14)


def test_kronecker_cov_on_an_uneven_axis_keeps_eigh(monkeypatch):
    # an uneven x1 axis gives a factor that is not centrosymmetric: it takes
    # eigh whole, the even x2 axis is split, and the density still matches
    # the dense one, on the full lattice and with holes
    x1, x2 = np.array([0.0, 1.0, 3.0, 4.5]), np.arange(5.0)
    a1, a2 = (np.exp(-np.subtract.outer(x, x) ** 2 / (2 * 1.5**2)) for x in (x1, x2))
    shapes = eigh_shapes(monkeypatch)
    for holes in ((), (0, 7, 19)):
        r = np.random.default_rng(13).standard_normal(20 - len(holes))
        shapes.clear()
        assert_kronecker_matches_dense(r, a1, a2, 1.3, 0.09, holes)
        assert shapes[:3] == [(4, 4), (2, 2), (3, 3)]


def test_kronecker_cov_rejects_a_nonpositive_eigenvalue():
    r, a1, a2, scale, _ = kronecker_problem()
    cov = ad.KroneckerCov(a1, a2, scale, -1.0)
    assert cov.eigen()[-1].min() < 0
    with pytest.raises(np.linalg.LinAlgError):
        ad.gaussian_spd_logpdf(r, cov)


def kronecker_stack(lead, n1, n2, seed, even=False):
    """``(resid, a1, a2, scale, nugget)`` for a stack of Kronecker
    covariances of leading shape ``lead``: squared-exponential factors on
    random points, or with ``even`` on integer points (centrosymmetric
    factors), with random ranges, and scale and nugget of shape
    (*lead, 1, 1)."""
    r = np.random.default_rng(seed)

    def factor(n):
        x = np.arange(float(n)) if even else r.uniform(0.0, 5.0, lead + (n,))
        ell = r.uniform(0.5, 2.0, lead + (1, 1))
        return np.exp(-(x[..., :, None] - x[..., None, :]) ** 2 / (2 * ell**2))

    a1, a2 = factor(n1), factor(n2)
    scale, nugget = r.uniform(0.5, 2.0, lead + (1, 1)), r.uniform(0.05, 0.5, lead + (1, 1))
    return r.standard_normal(lead + (n1 * n2,)), a1, a2, scale, nugget


@given(n1=st.integers(2, 6), n2=st.integers(2, 6), S=st.integers(1, 4),
       leading=st.sampled_from(["S", "1S"]), m=st.integers(0, 3), even=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stacked_kronecker_cov_matches_a_loop_of_single_covariances(n1, n2, S, leading, m,
                                                                    even, seed):
    # the values, d_resid and the field gradients, bitwise against the
    # unbatched primitive (float scale and nugget) row by row, with m holes,
    # on random points and on integer ones, whose factors are split
    lead = (S,) if leading == "S" else (1, S)
    r_full, *fields = kronecker_stack(lead, n1, n2, seed, even)
    holes = np.sort(np.random.default_rng(seed).choice(n1 * n2, m, replace=False))
    problem = (r_full[..., m:], *fields)
    vals, grads = ad.gaussian_spd_logpdf(problem[0], ad.KroneckerCov(*problem[1:], holes))
    assert type(vals) is np.ndarray and vals.shape == lead
    d_resid, d_cov = grads()
    for idx in np.ndindex(*lead):
        r, a1, a2, scale, nugget = (x[idx] for x in problem)
        val, row_grads = ad.gaussian_spd_logpdf(r, ad.KroneckerCov(a1, a2, scale.item(),
                                                                   nugget.item(), holes))
        assert vals[idx] == val
        row_d_resid, row_d_cov = row_grads()
        for name, g, one in zip(("resid", *FIELDS),
                                (d_resid, *d_cov), (row_d_resid, *row_d_cov)):
            assert np.array_equal(g[idx].ravel(), np.ravel(one)), name


def test_constant_objective_returns_zero_gradient():
    val, g = ad.grad(lambda v: 7.5, np.array([1.0, 2.0]))
    assert val == 7.5
    assert np.allclose(g, 0.0)


def test_unsupported_operations_raise():
    x = ad.Node(np.array([1.0]))
    with pytest.raises(ad.UnsupportedOperationError):
        x // 2
    with pytest.raises(ad.UnsupportedOperationError):
        x % 2
    with pytest.raises(ad.UnsupportedOperationError):
        x ** x  # only constant exponents are differentiated
    with pytest.raises(TypeError):
        2.0 ** x
    with pytest.raises(TypeError):
        np.sin(x)  # numpy ufuncs are rejected, not silently wrapped
    with pytest.raises(ad.UnsupportedOperationError):
        ad.gaussian_spd_logpdf(x, np.eye(1))  # numpy only; see the README's adapter


def test_nonfinite_intermediate_names_the_operation():
    with pytest.raises(ad.NonFiniteValueError) as err:
        ad.grad(lambda v: ad.log(v[0] - 10.0), np.array([1.0]))
    assert "log" in str(err.value)


def test_nonfinite_row_names_the_operation():
    with pytest.raises(ad.NonFiniteValueError) as err:
        ad.grad(lambda v: ad.vsum(ad.log(v), axis=-1), np.array([[1.0], [-1.0]]))
    assert "log" in str(err.value)


def test_nonfinite_input_rejected():
    with pytest.raises(ad.NonFiniteValueError):
        ad.grad(lambda v: ad.vsum(v), np.array([np.nan]))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        ad.backward(ad.Node(np.array([1.0, 2.0])))


def test_finite_diff_check_rejects_bad_step():
    with pytest.raises(ValueError):
        ad.finite_diff_check(lambda v: ad.vsum(v), np.zeros(2), h=0.0)


def test_comparisons_do_not_enter_tape():
    x = ad.Node(np.array([1.0, 5.0]))
    assert np.array_equal(x > 2.0, [False, True])
    assert np.array_equal(x <= 1.0, [True, False])
