"""Tape autodiff vs. analytic and central-finite-difference oracles."""

import numpy as np
import pytest

import oracles
from duffbench import nets
from duffbench import numkit as nk


def test_square_gradient_analytic():
    tape = nk.Tape()
    x = tape.leaf(3.0)
    y = x * x
    g = oracles.grad(y)
    assert g[x] == pytest.approx(6.0, abs=1e-12)


def test_tanh_gradient_at_zero():
    tape = nk.Tape()
    x = tape.leaf(0.0)
    y = oracles.tanh(x)
    g = oracles.grad(y)
    assert g[x] == pytest.approx(1.0, abs=1e-15)


def test_unused_leaf_adjoint_exactly_zero():
    tape = nk.Tape()
    x = tape.leaf(2.0)
    unused = tape.leaf(5.0)
    y = x * x + 1.0
    g = oracles.grad(y)
    assert g[unused] == 0.0
    assert g[unused].item() == 0.0


def test_forward_values_untouched_by_grad():
    tape = nk.Tape()
    x = tape.leaf(1.5)
    y = oracles.sin(x) * x
    before = [n.value.copy() for n in tape.nodes]
    oracles.grad(y)
    for node, val in zip(tape.nodes, before):
        assert np.array_equal(node.value, val)


def test_nan_raises_numeric_error_with_node_id():
    tape = nk.Tape()
    x = tape.leaf(-1.0)
    with np.errstate(invalid="ignore"):
        y = oracles.powc(x, 0.5)  # nan
    z = y * 2.0
    with pytest.raises(oracles.NumericError) as err:
        oracles.grad(z)
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
    s, c = oracles.sincos(a)
    y = nk.vsum(oracles.tanh(oracles.matmul(s, c)) / (1.0 + a * a))
    n_nodes = len(tape.nodes)
    grads = nk.backward(y, [x, w, unused])
    assert len(tape.nodes) == n_nodes
    assert all(isinstance(g, np.ndarray) for g in grads)
    assert [g.shape for g in grads] == [(), (2, 2), ()]


@pytest.mark.parametrize("op", [nk.add, nk.sub, nk.mul, nk.div])
def test_constant_named_in_wrt_gets_its_true_adjoint(op):
    # a constant in `wrt` gets the adjoint a leaf in its place would get
    tape = nk.Tape()
    x = tape.leaf(np.array([0.5, -2.0]))
    adjoints = []
    for lift in (tape.constant, tape.leaf):
        c = lift(np.array([1.5, 4.0]))
        adjoints.append(nk.backward(nk.vsum(op(c, op(x, c))), [c, x]))
    for kept, leaf in zip(*adjoints):
        assert np.array_equal(kept, leaf)
        assert np.all(kept != 0.0)
    c = tape.constant(np.array([1.5, 4.0]))
    assert np.array_equal(nk.backward(nk.vsum(c * x), [c])[0], x.value)


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


def test_random_graphs_match_finite_differences():
    assert oracles.check_random_graphs(100, rel_tol=1e-6) == 100


def test_linearity_of_differentiation():
    stream = nk.RngStream(7).substream("linearity")
    for _ in range(20):
        x0 = stream.uniform(-1.0, 1.0, size=3)
        a, b = stream.uniform(-2.0, 2.0, size=2)

        def build(tape, leaves):
            f = oracles.sin(leaves[0]) * leaves[1] \
                + oracles.powc(leaves[2], 2)
            g = oracles.tanh(leaves[0] * leaves[2]) + leaves[1]
            return f, g

        tape = nk.Tape()
        leaves = [tape.leaf(x) for x in x0]
        f, g = build(tape, leaves)
        combo = a * f + b * g
        gc = oracles.grad(combo, wrt=leaves)
        gf = oracles.grad(f, wrt=leaves)
        gg = oracles.grad(g, wrt=leaves)
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
    h = oracles.tanh(oracles.matmul(tape.constant(x), lw1) + lb1)
    out = oracles.matmul(h, lw2) + lb2
    res = out - tape.constant(y_ref)
    loss = nk.vsum(res * res) / 5.0
    grads = oracles.grad(loss, wrt=[lw1, lb1, lw2, lb2])

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
    out = nk.vsum(oracles.powc(oracles.matmul(la, lb), 2))
    g = oracles.grad(out, wrt=[la, lb])
    # d/dA sum((AB)^2) = 2(AB)B^T
    assert np.allclose(g[la], 2 * (A @ B) @ B.T, atol=1e-12)
    assert np.allclose(g[lb], A.T @ (2 * (A @ B)), atol=1e-12)


def test_take_and_concat_gradients():
    tape = nk.Tape()
    x = tape.leaf(np.arange(6.0))
    picked = x[np.array([0, 2, 2])]
    y = nk.vsum(picked * np.array([1.0, 2.0, 3.0]))
    g = oracles.grad(y, wrt=[x])[x]
    assert np.allclose(g, [1.0, 0.0, 5.0, 0.0, 0.0, 0.0])

    tape = nk.Tape()
    a = tape.leaf([1.0, 2.0])
    b = tape.leaf([3.0])
    both = oracles.concat([a, b])
    y = nk.vsum(both * np.array([1.0, 10.0, 100.0]))
    g = oracles.grad(y, wrt=[a, b])
    assert np.allclose(g[a], [1.0, 10.0])
    assert np.allclose(g[b], [100.0])


def test_softplus_sigmoid_stability_and_grad():
    tape = nk.Tape()
    x = tape.leaf([-800.0, -1.0, 0.0, 1.0, 800.0])
    y = nk.vsum(nk.softplus(x))
    g = oracles.grad(y, wrt=[x])[x]
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
    s, c = oracles.sincos(a)
    return s * c - 2.0 * c


PRIMITIVES = {
    "scalar-operands": (lambda a: _scalar_mix(a, lambda c: c), [_X]),
    "sub": (lambda a, b: a - b, [_X, _Y]),
    "neg": (oracles.neg, [_X]),
    "div": (lambda a, b: a / b, [_X, _POS]),
    "cos": (lambda a: oracles.sincos(a)[1], [_X]),
    "sincos": (_sincos_mix, [3.0 * _X]),
    "take-slice": (lambda a: a[1:, ::2], [_X]),
    "take-repeated-fancy": (lambda a: a[np.array([2, 0, 2, 2])], [_X]),
    "concat-axis1": (lambda a, b: oracles.concat([a, b], axis=1),
                     [_X[:, :2], _Y]),
    "matmul-2d": (oracles.matmul, [_X, _Y.T]),
    "matmul-1d": (oracles.matmul, [_X, _Y[0]]),
    "add-col-row": (lambda a, b: a + b, [_X[:, :1], _Y[:1]]),
    "mul-col-row": (lambda a, b: a * b, [_X[:, :1], _Y[:1]]),
    "add-matrix-vector": (lambda a, b: a + b, [_X, _Y[0]]),
    "mul-matrix-vector": (lambda a, b: a * b, [_X, _Y[0]]),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradient_matches_finite_differences(name):
    op, arrays = PRIMITIVES[name]
    fd_check(op, arrays)


@pytest.mark.parametrize("widths", [(3, 32, 2), (1, 1, 1), (2, 1, 5)],
                         ids=lambda w: "-".join(map(str, w)))
def test_stacked_weight_adjoints_add_in_running_total_order(widths):
    """Stacks of 1, 3 and 9 applications, each adding the batched
    products on top of the previous stacks, give the totals of a running
    sum of per-application products bit for bit."""
    stream = nk.RngStream(19).substream("stacked-adjoints")
    n, apps = 5, 13
    pairs = list(zip(widths[:-1], widths[1:]))
    inputs = [stream.normal(size=(apps, n, a)) for a, _ in pairs]
    adjoints = [stream.normal(size=(apps, n, b)) for _, b in pairs]
    running = [None] * (2 * len(pairs))
    for k in range(apps):
        for i, (x, g) in enumerate(zip(inputs, adjoints)):
            for j, c in ((2 * i, x[k].T @ g[k]), (2 * i + 1,
                                                  g[k].sum(axis=0))):
                running[j] = c if running[j] is None else running[j] + c
    grads = [np.full(shape, -0.0) for a, b in pairs for shape in ((a, b),
                                                                  (b,))]
    products = [(np.empty((9, a, b)), np.empty((9, b))) for a, b in pairs]
    start = 0
    for m in (1, 3, 9):
        nk.stacked_weight_adjoints([x[start:start + m] for x in inputs],
                                   [g[start:start + m] for g in adjoints],
                                   products, grads)
        start += m
    for got, ref in zip(grads, running):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("rows", [1, 30])
@pytest.mark.parametrize("activation", ["tanh", "sin"])
def test_slab_indexed_layer_loops_match_per_op_chain_bitwise(activation,
                                                             rows):
    """Applications 0, a middle one and the last of a stack, run through
    slabs that hold other values, with the biases added from row slabs:
    the output and input adjoint equal the per-op chain's bit for bit,
    application k's slab entries hold the chain's hidden outputs, cosines
    and pre-activation adjoints, and no other application's entries
    change."""
    spec = nets.MlpSpec(widths=(3, 16, 16, 2), activation=activation)
    stream = nk.RngStream(23).substream("slab-loops-" + activation)
    weights = nets.init_params(spec, stream)
    apps, hidden = 5, spec.widths[1:-1]
    outputs = [stream.normal(size=(apps, rows, w)) for w in hidden]
    cosines = ([stream.normal(size=(apps, rows, w)) for w in hidden]
               if activation == "sin" else [])
    adjoints = [stream.normal(size=(apps, rows, w)) for w in hidden]
    bias_rows = [np.tile(b, (rows, 1)) for _, b in weights]
    for k in (0, apps // 2, apps - 1):
        x = stream.normal(size=(rows, 3))
        g = stream.normal(size=(rows, 2))
        slabs = outputs + cosines + adjoints
        before = [slab.copy() for slab in slabs]
        y = nk.mlp_forward(x, weights, activation,
                           (outputs, cosines, bias_rows), k)
        slopes = cosines or [1.0 - h * h for h in outputs]
        gx = nk.mlp_vjp(g, [W.T for W, _ in weights], slopes, adjoints, k)

        tape = nk.Tape()
        leaf = tape.leaf(x)
        pairs = [(tape.constant(W), tape.constant(b)) for W, b in weights]
        out = oracles.mlp_apply_per_op(spec, pairs, leaf)
        acts = [node for node in tape.nodes if node.op == activation]
        pre = [node.parents[0] for node in acts]
        ref_gx, *ref_adjoints = nk.backward(
            nk.vsum(out * tape.constant(g)), [leaf, *pre])
        assert y.tobytes() == out.value.tobytes()
        assert gx.tobytes() == ref_gx.tobytes()
        for i, (node, a) in enumerate(zip(acts, pre)):
            assert outputs[i][k].tobytes() == node.value.tobytes()
            assert adjoints[i][k].tobytes() == ref_adjoints[i].tobytes()
            if cosines:
                assert (cosines[i][k].tobytes()
                        == np.cos(a.value).tobytes())
        for slab, old in zip(slabs, before):
            others = np.arange(apps) != k
            assert slab[others].tobytes() == old[others].tobytes()
