"""First-order reverse-mode automatic differentiation on an array tape.

Values are float64 numpy arrays. Every operation appends a node to the
tape of its operands, so construction order is a topological order by
design. Each node's backward rule (VJP) maps the output adjoint to one
adjoint per parent (None where no path leads) with plain numpy on the
parents' forward values, so a backward sweep accumulates arrays and
never grows the tape.

The primitive ops are elementwise with numpy broadcasting, plus a sum
and indexing. Two fused nodes record a whole network computation as one
node each. `mlp_tangent` records a network application together with the
derivative of its output with respect to its scalar input, a tangent
pass, whose VJP repeats the per-op tangent chain bit for bit and skips
the derivative path when nobody reads the derivative, so a data-only fit
reads its output half alone. The neural-ODE window loss (`rk4_windows`,
in `neural_ode`) runs its many applications through the layer loops
`mlp_forward` and `mlp_vjp`, which index stacked slabs by application
and add each bias from a row slab, and takes the weight adjoints of a
whole stack at once with `stacked_weight_adjoints`, one batched product
per layer, adding them in the order of the per-application chain so the
bits stay the same. A tape made with a `Workspace` hands such nodes
arrays that the previous tape of the same fit used, instead of fresh
ones: one workspace serves both node kinds.
"""

from __future__ import annotations

import weakref

import numpy as np


class TapeError(Exception):
    """Structural problem in the graph (cross-tape ops, broken order)."""


class Workspace:
    """Arrays that the tapes of one fit hand out again and again.

    A fit builds one tape per evaluation, and an evaluation's arrays of
    a few hundred kB each, once freed together, let the C heap give
    their pages back to the system, to be faulted in again by the next
    evaluation. A tape made with a workspace hands its k-th `empty`
    request the array the previous such tape handed its k-th, when the
    shape is the same; so the graph of a tape dies once a later tape
    takes the workspace over, and a sweep over it raises. It knows that
    tape by a weak reference, so no cycle keeps a finished fit's arrays.
    """

    def __init__(self):
        self.arrays = []
        self.tape = None  # weak reference to the tape it serves
        self.used = 0

    def empty(self, tape, shape):
        if tape is not self.tape():
            raise RuntimeError("the workspace went to a later tape; this "
                               "graph's arrays are overwritten")
        k = self.used
        self.used += 1
        if k == len(self.arrays):
            self.arrays.append(np.empty(shape))
        elif self.arrays[k].shape != shape:
            self.arrays[k] = np.empty(shape)
        return self.arrays[k]


class Tape:
    """Append-only record of one computation graph."""

    def __init__(self, workspace=None):
        self.nodes = []
        self.workspace = workspace
        if workspace is not None:
            workspace.tape, workspace.used = weakref.ref(self), 0

    def empty(self, shape):
        """An uninitialised float array for an op to fill: fresh, or
        from the tape's workspace."""
        if self.workspace is None:
            return np.empty(shape)
        return self.workspace.empty(self, shape)

    def leaf(self, value):
        """Register an independent variable."""
        return Node(self, np.asarray(value, dtype=float), (), None, "leaf")

    def constant(self, value):
        """Register a value gradients do not flow into."""
        return Node(self, np.asarray(value, dtype=float), (), None, "const")


class Node:
    """One tape entry: value, parents and the local backward rule."""

    __slots__ = ("tape", "idx", "value", "parents", "vjp", "op", "__weakref__")

    def __init__(self, tape, value, parents, vjp, op):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.idx = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, idx={self.idx}, shape={self.value.shape})"

    def _scalar(self, value, vjp, op):
        """A one-parent node: this node combined with a scalar constant."""
        return Node(self.tape, value, (self,), vjp, op)

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar(self.value + other, lambda g: (g,), "add")
        return add(self, _lift(other, self.tape))

    def __radd__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar(other + self.value, lambda g: (g,), "add")
        return add(_lift(other, self.tape), self)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar(self.value - other, lambda g: (g,), "sub")
        return sub(self, _lift(other, self.tape))

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar(other - self.value, lambda g: (-g,), "sub")
        return sub(_lift(other, self.tape), self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar(self.value * other, lambda g: (g * other,), "mul")
        return mul(self, _lift(other, self.tape))

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar(other * self.value, lambda g: (g * other,), "mul")
        return mul(_lift(other, self.tape), self)

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._scalar(self.value / other, lambda g: (g / other,), "div")
        return div(self, _lift(other, self.tape))

    def __rtruediv__(self, other):
        return div(_lift(other, self.tape), self)

    def __getitem__(self, index):
        return take(self, index)


# Python and numpy scalars combine with a node without becoming nodes
_SCALARS = (int, float, np.floating)


def _lift(x, tape):
    if isinstance(x, Node):
        if x.tape is not tape:
            raise TapeError("operands live on different tapes")
        return x
    return tape.constant(x)


def _shrink(g, shape):
    """Sum an adjoint over broadcast axes so it matches `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- primitive operations ---------------------------------------------------
# Each VJP maps the output adjoint g (an ndarray) to one ndarray per parent,
# computed from the parents' forward values.

def add(a, b):
    return Node(a.tape, a.value + b.value, (a, b),
                lambda g: (_shrink(g, a.value.shape), _shrink(g, b.value.shape)),
                "add")


def sub(a, b):
    return Node(a.tape, a.value - b.value, (a, b),
                lambda g: (_shrink(g, a.value.shape), _shrink(-g, b.value.shape)),
                "sub")


def mul(a, b):
    return Node(a.tape, a.value * b.value, (a, b),
                lambda g: (_shrink(g * b.value, a.value.shape),
                           _shrink(g * a.value, b.value.shape)),
                "mul")


def div(a, b):
    return Node(a.tape, a.value / b.value, (a, b),
                lambda g: (_shrink(g / b.value, a.value.shape),
                           _shrink(-((g * a.value) / (b.value * b.value)),
                                   b.value.shape)),
                "div")


def _sigmoid_stable(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    return Node(a.tape, np.logaddexp(0.0, a.value), (a,),
                lambda g: (g * _sigmoid_stable(a.value),), "softplus")


def vsum(a):
    return Node(a.tape, np.sum(a.value), (a,),
                lambda g: (g * np.ones_like(a.value),), "sum")


def mlp_forward(x, params, activation, slabs=None, k=None):
    """Plain-numpy MLP: act(h @ W + b) per hidden layer, affine output.

    `params` holds (W, b) arrays and `activation` is "tanh" or "sin".
    With `slabs` = (outputs, cosines, rows), x is application k of a
    stack: hidden layer l writes its output into outputs[l][k] and, for
    sin, cos of its pre-activation into cosines[l][k], what `mlp_vjp`
    reads, and layer l adds its bias from rows[l], (N, width) copies of
    b. `out=`, a contiguous add and np.dot for np.matmul keep the bits;
    on a few dozen rows each call costs less.
    """
    act = np.sin if activation == "sin" else np.tanh
    outputs, cosines, rows = slabs or (None, (), None)
    h = x
    for i, (W, b) in enumerate(params[:-1]):
        a = h @ W if slabs is None else np.dot(h, W, outputs[i][k])
        a += b if slabs is None else rows[i]
        if cosines:
            np.cos(a, out=cosines[i][k])
        h = act(a, out=a)
    W, b = params[-1]
    y = h @ W if slabs is None else np.dot(h, W)
    y += b if slabs is None else rows[-1]
    return y


def mlp_vjp(g, transposed, slopes, adjoints, k):
    """Input adjoint of application k of a stack from its output adjoint
    `g`.

    `transposed` holds each layer's Wᵀ, and `slopes[l][k]` hidden layer
    l's σ′ (cos of the pre-activation for sin, 1 − h² for tanh);
    `adjoints[l][k]` takes that layer's pre-activation adjoint. The
    layers are walked in reverse with the float operations and order of
    the per-op chain (matmul, add, activation), so the input adjoint
    equals that chain's bit for bit. The weight adjoints are left to
    the caller, which takes those of many applications at once
    (`stacked_weight_adjoints`) from the adjoint slabs.
    """
    for i in range(len(transposed) - 1, 0, -1):
        g = np.dot(g, transposed[i], adjoints[i - 1][k])
        np.multiply(g, slopes[i - 1][k], out=g)
    return np.dot(g, transposed[0])


def stacked_weight_adjoints(inputs, adjoints, products, grads):
    """Add the weight adjoints of a stack of MLP applications to `grads`.

    `inputs[l]` (m, n, d_in) and `adjoints[l]` (m, n, d_out) hold layer
    l's input and output adjoint for m applications in the order of the
    backward sweep, forward in memory; `products[l]` is a pair of
    (≥ m, d_in, d_out) and (≥ m, d_out) scratch arrays. `grads`
    [gW0, gb0, ...] holds the running totals, −0.0 at the start. Each
    layer takes one batched matmul and one row sum, and adds their m
    slices in order with the running total in slot 0: the order in
    which a backward sweep adds each application's own product, so the
    totals equal it bit for bit.
    """
    m = len(inputs[0])
    for i, (inp, g, (gW, gb)) in enumerate(zip(inputs, adjoints, products)):
        np.matmul(inp.transpose(0, 2, 1), g, out=gW[:m])
        np.add.reduce(g, axis=1, out=gb[:m])
        for total, stack in ((grads[2 * i], gW[:m]), (grads[2 * i + 1],
                                                      gb[:m])):
            stack[0] += total
            if total.size > 1:  # slices are added whole, in order
                np.add.reduce(stack, axis=0, out=total, initial=-0.0)
            else:  # a reduce would add single elements pairwise
                total[...] = np.add.accumulate(stack, axis=0)[-1]


def mlp_tangent_forward(x, params, activation, saved=None, empty=None):
    """Plain-numpy MLP and its derivative with respect to a scalar input.

    Returns the output y and d = dy/dx at the (N, 1) input x. The
    tangent starts at s = 1 and each hidden layer maps it to
    s = (s @ W) ⊙ σ'(a), where σ'(a) is cos(a) for sin and 1 − h² for
    tanh, with the float operations of the per-op chain on the tape.
    With a `saved` list, each layer appends its inputs (h, s) and each
    hidden layer also s @ W, its output and σ'(a): what
    `mlp_tangent_vjp` reads. With `empty`, each layer's arrays come
    from `empty(shape)`, and y and d are the halves of one
    (2, N, n_out) array.
    """
    # on a rollout's one-row input the call overheads are the cost: the
    # seed is filled (np.ones_like takes twice as long), out arrays go in
    # by position, and None lets numpy allocate
    sin = activation == "sin"
    h, s = x, np.empty_like(x)
    s.fill(1.0)
    for W, b in params[:-1]:
        a, sw, slope, s_out = ((None,) * 4 if empty is None else
                               [empty((len(x), W.shape[1])) for _ in range(4)])
        a = np.matmul(h, W, a)
        a += b
        sw = np.matmul(s, W, sw)
        if sin:
            slope = np.cos(a, slope)
            out = np.sin(a, a)
        else:
            out = np.tanh(a, a)
            slope = np.multiply(out, out, slope)
            np.subtract(1.0, slope, slope)
        if saved is not None:
            saved.append((h, s, sw, out, slope))
        h, s = out, np.multiply(sw, slope, s_out)
    W, b = params[-1]
    if saved is not None:
        saved.append((h, s))
    y, d = (None, None) if empty is None else empty((2, len(x), W.shape[1]))
    y = np.matmul(h, W, y)
    y += b
    return y, np.matmul(s, W, d)


def mlp_tangent_vjp(gy, gd, weights, activation, saved, empty):
    """Parameter adjoints [gW0, gb0, gW1, gb1, ...] of one tangent
    application from the adjoints of its output y and derivative d.

    Either adjoint may be None, for an output nobody reads; then its
    path is skipped and the last layer's bias gets None. The layers are
    walked in reverse with the float operations and the order of
    accumulation of the per-op chain (see `mlp_tangent`), so every
    adjoint equals that chain's bit for bit. The constant input and
    the all-ones seed get no adjoint. The (N, width) arrays of the
    sweep come from `empty(shape)`; the adjoints it returns are fresh.
    """
    sin = activation == "sin"
    grads = []
    gh, gs = gy, gd  # adjoints of the current layer's output and tangent
    for i in range(len(weights) - 1, -1, -1):
        W = weights[i][0]
        if i == len(weights) - 1:
            h, s = saved[i]
            ga, gsw = gy, gd
        else:
            # gh and gs, products of the layer above, are ours to overwrite
            h, s, sw, out, slope = saved[i]
            gsw = t = None
            if gs is not None:
                t = np.multiply(gs, sw, out=empty(gs.shape))
                gsw = np.multiply(gs, slope, out=gs)
            if sin:  # a's adjoint: −(g_s·sw)·sin a, then + gh·cos a
                if t is not None:
                    t *= out
                    np.negative(t, out=t)
                if gh is not None:
                    gh *= slope
                    t = gh if t is None else np.add(t, gh, out=t)
                ga = t
            else:  # h's adjoint: the next layer's, then twice h·(−gs·sw)
                if t is not None:
                    np.negative(t, out=t)
                    t *= out
                    if gh is None:
                        gh = np.add(t, t, out=t)
                    else:
                        gh += t
                        gh += t
                gh *= slope
                ga = gh
        gW = None if gsw is None else s.T @ gsw
        if ga is not None:
            gW = h.T @ ga if gW is None else gW + h.T @ ga
        grads[:0] = (gW, None if ga is None else ga.sum(axis=0))
        if i > 0:
            shape = (len(h), W.shape[0])
            gh = None if ga is None else np.matmul(ga, W.T, out=empty(shape))
            gs = None if gsw is None else np.matmul(gsw, W.T,
                                                     out=empty(shape))
    return grads


def mlp_tangent(x, params, activation):
    """One node for a network application and its input derivative.

    The constant (N, 1) array x goes through the network of parameter
    nodes `params` [(W0, b0), ...] by `mlp_tangent_forward`. Returns the
    output y and d = dy/dx as two views of the node, whose value stacks
    them. Its VJP takes both adjoints at once, because the per-op
    chain's y and d paths meet at every hidden layer: a tanh layer's
    output adjoint is (g_next + t) + t with t = −(g_s·(s @ W))·h, a
    sin layer's pre-activation adjoint −((g_s·(s @ W))·sin a) + g_h·cos a,
    and each W adjoint the tangent product plus the output product. The
    y path runs only when y is read. Its arrays come from the tape's
    `empty`, so a fit's workspace serves them again and again.
    """
    tape = params[0][0].tape
    weights = [(W.value, b.value) for W, b in params]
    saved = []
    y, _ = mlp_tangent_forward(x, weights, activation, saved, tape.empty)
    value = y.base
    read = [False, False]

    def backward(g):
        gy, gd = (g[i] if read[i] else None for i in (0, 1))
        read[:] = False, False  # a later sweep marks its own readers
        return mlp_tangent_vjp(gy, gd, weights, activation, saved,
                               tape.empty)

    parents = tuple(node for pair in params for node in pair)
    node = Node(tape, value, parents, backward, "mlp_tangent")

    def half(i):
        def vjp(g):
            read[i] = True
            # −0.0 is the exact identity of addition: the sum of both
            # halves' adjoints carries each one's bits, zeros' signs
            # too; and a sweep over a dead graph raises here, in `empty`
            full = tape.empty(value.shape)
            full.fill(-0.0)
            full[i] = g
            return (full,)
        return Node(tape, value[i], (node,), vjp, "take")

    return half(0), half(1)


def _is_fancy(index):
    if isinstance(index, (np.ndarray, list)):
        return True
    if isinstance(index, tuple):
        return any(isinstance(i, (np.ndarray, list)) for i in index)
    return False


def take(a, index):
    def backward(g):
        z = np.zeros_like(a.value)
        if _is_fancy(index):
            np.add.at(z, index, g)
        else:
            z[index] += g
        return (z,)

    return Node(a.tape, a.value[index], (a,), backward, "take")


# -- backward pass ----------------------------------------------------------

def backward(output, wrt):
    """Adjoints of `output` with respect to the nodes in `wrt`.

    Returns one ndarray per entry of `wrt`, in order; nodes that do not
    influence the output get an exactly-zero adjoint. The sweep runs on
    numpy arrays only and appends nothing to the tape.
    """
    tape = output.tape
    if output.value.size != 1:
        raise TapeError("backward expects a scalar output node")
    span = tape.nodes[: output.idx + 1]
    wrt_ids = {w.idx for w in wrt}
    # adjoints[i] is the adjoint of node i, None until a consumer adds to it
    adjoints = [None] * len(span)
    adjoints[-1] = np.ones_like(output.value, dtype=float)
    for node in reversed(span):
        i = node.idx
        g = adjoints[i]
        if g is None:
            continue
        if i not in wrt_ids:
            adjoints[i] = None
        if node.vjp is None:
            continue
        for parent, contrib in zip(node.parents, node.vjp(g)):
            if contrib is None or (parent.vjp is None
                                   and parent.idx not in wrt_ids):
                continue  # no path, a constant, or a leaf nobody asked for
            prev = adjoints[parent.idx]
            adjoints[parent.idx] = contrib if prev is None else prev + contrib
    results = []
    for w in wrt:
        g = adjoints[w.idx] if w.idx < len(span) else None
        results.append(np.zeros_like(w.value) if g is None else np.asarray(g))
    return results

