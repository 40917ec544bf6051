"""Tape autodiff vs. analytic and central-finite-difference oracles."""

import numpy as np
import pytest

from duffbench import numkit as nk


def fd_gradient(f, xs, h=1e-6):
    """Central finite differences of f(list of scalars) -> scalar."""
    xs = [float(x) for x in xs]
    grads = []
    for i, x in enumerate(xs):
        step = h * max(1.0, abs(x))
        hi = list(xs)
        lo = list(xs)
        hi[i] = x + step
        lo[i] = x - step
        grads.append((f(hi) - f(lo)) / (2.0 * step))
    return grads


def test_square_gradient_analytic():
    tape = nk.Tape()
    x = tape.leaf(3.0)
    y = x * x
    g = nk.grad(y)
    assert g[x] == pytest.approx(6.0, abs=1e-12)


def test_tanh_gradient_at_zero():
    tape = nk.Tape()
    x = tape.leaf(0.0)
    y = nk.tanh(x)
    g = nk.grad(y)
    assert g[x] == pytest.approx(1.0, abs=1e-15)


def test_unused_leaf_adjoint_exactly_zero():
    tape = nk.Tape()
    x = tape.leaf(2.0)
    unused = tape.leaf(5.0)
    y = x * x + 1.0
    g = nk.grad(y)
    assert g[unused] == 0.0
    assert g[unused].item() == 0.0


def test_forward_values_untouched_by_grad():
    tape = nk.Tape()
    x = tape.leaf(1.5)
    y = nk.sin(x) * x
    before = [n.value.copy() for n in tape.nodes]
    nk.grad(y)
    for node, val in zip(tape.nodes, before):
        assert np.array_equal(node.value, val)


def test_nan_raises_numeric_error_with_node_id():
    tape = nk.Tape()
    x = tape.leaf(-1.0)
    with np.errstate(invalid="ignore"):
        y = nk.log(x)  # nan
    z = y * 2.0
    with pytest.raises(nk.NumericError) as err:
        nk.grad(z)
    assert err.value.node_id == y.idx


def test_cross_tape_operands_rejected():
    t1, t2 = nk.Tape(), nk.Tape()
    a = t1.leaf(1.0)
    b = t2.leaf(2.0)
    with pytest.raises(nk.TapeError):
        a + b


def test_backward_appends_no_nodes_and_returns_arrays():
    tape = nk.Tape()
    x = tape.leaf(0.7)
    w = tape.leaf(np.array([[0.5, -1.0], [2.0, 0.25]]))
    unused = tape.leaf(1.0)
    a = x * w
    y = nk.vsum(nk.tanh(nk.sin(a) @ nk.cos(a)) / (1.0 + a * a))
    n_nodes = len(tape.nodes)
    grads = nk.backward(y, [x, w, unused])
    assert len(tape.nodes) == n_nodes
    assert all(isinstance(g, np.ndarray) for g in grads)
    assert [g.shape for g in grads] == [(), (2, 2), ()]


def _scalar_mix(a, lift):
    """Every Node operator with a scalar on either side; `lift` turns
    the scalars into something else (or leaves them alone)."""
    return (lift(2.0) - a) * lift(3) / lift(np.float64(1.5)) \
        + lift(0.25) * a + (a - lift(1)) + (lift(-0.5) + a) * a \
        + lift(0.125)


def test_scalar_operands_add_no_nodes_and_keep_the_lifted_bits():
    x0 = np.array([[0.3, -1.2], [2.5, 0.7]])
    results = []
    for lifted in (False, True):
        tape = nk.Tape()
        x = tape.leaf(x0)
        lift = tape.constant if lifted else (lambda c: c)
        y = nk.vsum(_scalar_mix(x, lift))
        results.append((len(tape.nodes), y.value, nk.backward(y, [x])[0]))
    (n_scalar, y_scalar, g_scalar), (n_lifted, y_lifted, g_lifted) = results
    assert n_lifted - n_scalar == 7  # one constant per scalar operand
    assert y_scalar == y_lifted
    assert np.array_equal(g_scalar, g_lifted)


def _random_graph(stream, n_leaves, size):
    """Build one random scalar graph over {+, ×, tanh, sin, pow}.

    Returns a closure usable both on tape leaves and on raw floats, so
    the same graph feeds the reverse pass and the finite-difference
    oracle.
    """
    ops = []
    pool = n_leaves
    for _ in range(size):
        kind = ["add", "mul", "tanh", "sin", "pow2", "pow3"][
            int(stream.integers(0, 6))]
        i = int(stream.integers(0, pool))
        j = int(stream.integers(0, pool))
        ops.append((kind, i, j))
        pool += 1

    def evaluate(leaves, lib):
        vals = list(leaves)
        for kind, i, j in ops:
            if kind == "add":
                vals.append(vals[i] + vals[j])
            elif kind == "mul":
                vals.append(vals[i] * vals[j])
            elif kind == "tanh":
                vals.append(lib["tanh"](vals[i]))
            elif kind == "sin":
                vals.append(lib["sin"](vals[i]))
            elif kind == "pow2":
                vals.append(vals[i] ** 2)
            else:
                vals.append(vals[i] ** 3)
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out

    return evaluate


_NP_LIB = {"tanh": np.tanh, "sin": np.sin}
_TAPE_LIB = {"tanh": nk.tanh, "sin": nk.sin}


def test_random_graphs_match_finite_differences():
    stream = nk.RngStream(2024).substream("graph-suite")
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        n_leaves = int(stream.integers(2, 5))
        size = int(stream.integers(3, 13))
        graph = _random_graph(stream, n_leaves, size)
        x0 = stream.uniform(-1.5, 1.5, size=n_leaves)
        out_val = graph(list(x0), _NP_LIB)
        if not np.isfinite(out_val) or abs(out_val) > 1e4:
            continue
        tape = nk.Tape()
        leaves = [tape.leaf(x) for x in x0]
        out = graph(leaves, _TAPE_LIB)
        grads = nk.grad(out, wrt=leaves)
        fd = fd_gradient(lambda xs: graph(xs, _NP_LIB), x0)
        for leaf, ref in zip(leaves, fd):
            err = abs(grads[leaf] - ref) / max(1.0, abs(ref))
            assert err < 1e-6, f"graph {checked}: ad={grads[leaf]} fd={ref}"
        checked += 1
    assert checked == 100


def test_linearity_of_differentiation():
    stream = nk.RngStream(7).substream("linearity")
    for _ in range(20):
        x0 = stream.uniform(-1.0, 1.0, size=3)
        a, b = stream.uniform(-2.0, 2.0, size=2)

        def build(tape, leaves):
            f = nk.sin(leaves[0]) * leaves[1] + leaves[2] ** 2
            g = nk.tanh(leaves[0] * leaves[2]) + leaves[1]
            return f, g

        tape = nk.Tape()
        leaves = [tape.leaf(x) for x in x0]
        f, g = build(tape, leaves)
        combo = a * f + b * g
        gc = nk.grad(combo, wrt=leaves)
        gf = nk.grad(f, wrt=leaves)
        gg = nk.grad(g, wrt=leaves)
        for leaf in leaves:
            assert gc[leaf] == pytest.approx(a * gf[leaf] + b * gg[leaf], abs=1e-12)


def test_two_layer_mlp_matches_finite_differences():
    stream = nk.RngStream(11).substream("mlp-check")
    w1 = stream.normal(size=(1, 8))
    b1 = stream.normal(size=8)
    w2 = stream.normal(size=(8, 2))
    b2 = stream.normal(size=2)
    x = stream.normal(size=(5, 1))
    y_ref = stream.normal(size=(5, 2))

    def loss_np(w1, b1, w2, b2):
        h = np.tanh(x @ w1 + b1)
        out = h @ w2 + b2
        return np.mean(np.sum((out - y_ref) ** 2, axis=1))

    tape = nk.Tape()
    lw1, lb1 = tape.leaf(w1), tape.leaf(b1)
    lw2, lb2 = tape.leaf(w2), tape.leaf(b2)
    h = nk.tanh(tape.constant(x) @ lw1 + lb1)
    out = h @ lw2 + lb2
    res = out - tape.constant(y_ref)
    loss = nk.vsum(res * res) / 5.0
    grads = nk.grad(loss, wrt=[lw1, lb1, lw2, lb2])

    for leaf, arr in zip([lw1, lb1, lw2, lb2], [w1, b1, w2, b2]):
        g_ad = grads[leaf]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            h_fd = 1e-5
            pert = arr.copy()
            pert[idx] += h_fd
            hi = loss_np(*[pert if a is arr else a for a in (w1, b1, w2, b2)])
            pert[idx] -= 2 * h_fd
            lo = loss_np(*[pert if a is arr else a for a in (w1, b1, w2, b2)])
            ref = (hi - lo) / (2 * h_fd)
            assert abs(g_ad[idx] - ref) / max(1.0, abs(ref)) < 1e-6


def test_matrix_ops_gradients():
    stream = nk.RngStream(13).substream("matrix")
    A = stream.normal(size=(3, 4))
    B = stream.normal(size=(4, 2))
    tape = nk.Tape()
    la, lb = tape.leaf(A), tape.leaf(B)
    out = nk.vsum((la @ lb) ** 2)
    g = nk.grad(out, wrt=[la, lb])
    # d/dA sum((AB)^2) = 2(AB)B^T
    assert np.allclose(g[la], 2 * (A @ B) @ B.T, atol=1e-12)
    assert np.allclose(g[lb], A.T @ (2 * (A @ B)), atol=1e-12)


def test_take_and_concat_gradients():
    tape = nk.Tape()
    x = tape.leaf(np.arange(6.0))
    picked = x[np.array([0, 2, 2])]
    y = nk.vsum(picked * np.array([1.0, 2.0, 3.0]))
    g = nk.grad(y, wrt=[x])[x]
    assert np.allclose(g, [1.0, 0.0, 5.0, 0.0, 0.0, 0.0])

    tape = nk.Tape()
    a = tape.leaf([1.0, 2.0])
    b = tape.leaf([3.0])
    both = nk.concat([a, b])
    y = nk.vsum(both * np.array([1.0, 10.0, 100.0]))
    g = nk.grad(y, wrt=[a, b])
    assert np.allclose(g[a], [1.0, 10.0])
    assert np.allclose(g[b], [100.0])


def test_softplus_sigmoid_stability_and_grad():
    tape = nk.Tape()
    x = tape.leaf([-800.0, -1.0, 0.0, 1.0, 800.0])
    y = nk.vsum(nk.softplus(x))
    g = nk.grad(y, wrt=[x])[x]
    assert np.all(np.isfinite(g))
    ref = 1.0 / (1.0 + np.exp(-np.array([-1.0, 0.0, 1.0])))
    assert np.allclose(g[1:4], ref, atol=1e-12)
    assert g[0] == pytest.approx(0.0, abs=1e-300)
    assert g[4] == pytest.approx(1.0, abs=1e-12)


def fd_check(op, arrays, h=1e-6, tol=1e-6):
    """Tape gradient of sum(op(leaves) * W) vs central differences in
    every entry of every input; W is a fixed non-uniform weighting."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    probe = nk.Tape()
    shape = op(*[probe.leaf(a) for a in arrays]).value.shape
    W = np.linspace(-1.5, 2.0, int(np.prod(shape))).reshape(shape)

    def loss(tape, leaves):
        return nk.vsum(op(*leaves) * tape.constant(W))

    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    grads = nk.backward(loss(tape, leaves), leaves)

    def value(arrs):
        t = nk.Tape()
        return float(loss(t, [t.leaf(a) for a in arrs]).value)

    for k, (arr, g) in enumerate(zip(arrays, grads)):
        assert g.shape == arr.shape
        for idx in np.ndindex(arr.shape):
            step = h * max(1.0, abs(arr[idx]))
            hi = [a.copy() for a in arrays]
            lo = [a.copy() for a in arrays]
            hi[k][idx] += step
            lo[k][idx] -= step
            ref = (value(hi) - value(lo)) / (2.0 * step)
            err = abs(g[idx] - ref) / max(1.0, abs(ref))
            assert err < tol, f"input {k} at {idx}: ad={g[idx]} fd={ref}"


_S = nk.RngStream(17).substream("primitive-grads")
_X = _S.uniform(-1.0, 1.0, size=(3, 4))
_Y = _S.uniform(-1.0, 1.0, size=(3, 4))
_POS = _S.uniform(0.5, 2.0, size=(3, 4))


def _sincos_mix(a):
    s, c = nk.sincos(a)
    return s * c - 2.0 * c


PRIMITIVES = {
    "scalar-operands": (lambda a: _scalar_mix(a, lambda c: c), [_X]),
    "sub": (lambda a, b: a - b, [_X, _Y]),
    "neg": (lambda a: -a, [_X]),
    "div": (lambda a, b: a / b, [_X, _POS]),
    "exp": (nk.exp, [_X]),
    "log": (nk.log, [_POS]),
    "sqrt": (nk.sqrt, [_POS]),
    "cos": (nk.cos, [_X]),
    "sincos": (_sincos_mix, [3.0 * _X]),
    "sigmoid": (nk.sigmoid, [3.0 * _X]),
    "outer": (nk.outer, [_X[0], _Y[1]]),
    "transpose": (nk.transpose, [_X]),
    "reshape": (lambda a: nk.reshape(a, (2, 6)), [_X]),
    "vmean": (lambda a: nk.vmean(a, axis=0), [_X]),
    "vmean-all": (nk.vmean, [_X]),
    "vsum-axis": (lambda a: nk.vsum(a, axis=1), [_X]),
    "vsum-negative-axis": (lambda a: nk.vsum(a, axis=(-2,)), [_X]),
    "vsum-keepdims": (lambda a: nk.vsum(a, axis=0, keepdims=True), [_X]),
    "take-slice": (lambda a: a[1:, ::2], [_X]),
    "take-repeated-fancy": (lambda a: a[np.array([2, 0, 2, 2])], [_X]),
    "concat-axis1": (lambda a, b: nk.concat([a, b], axis=1),
                     [_X[:, :2], _Y]),
    "matmul-2d": (lambda a, b: a @ b, [_X, _Y.T]),
    "matmul-1d": (lambda a, b: a @ b, [_X, _Y[0]]),
    "add-col-row": (lambda a, b: a + b, [_X[:, :1], _Y[:1]]),
    "mul-col-row": (lambda a, b: a * b, [_X[:, :1], _Y[:1]]),
    "add-matrix-vector": (lambda a, b: a + b, [_X, _Y[0]]),
    "mul-matrix-vector": (lambda a, b: a * b, [_X, _Y[0]]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradient_matches_finite_differences(name):
    op, arrays = PRIMITIVES[name]
    fd_check(op, arrays)
