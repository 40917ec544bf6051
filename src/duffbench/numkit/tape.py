"""First-order reverse-mode automatic differentiation on an array tape.

Values are float64 numpy arrays. Every operation appends a node to the
tape of its operands, so construction order is a topological order by
design. Each node's backward rule (VJP) maps the output adjoint to one
adjoint per parent with plain numpy on the parents' forward values, so
a backward sweep accumulates arrays and never grows the tape.

Supported matmul shapes are (2D, 2D) and (2D, 1D); everything else is
elementwise with numpy broadcasting. `mlp` records a whole network
application as one node. Its layer loops, `mlp_forward` and `mlp_vjp`,
also serve ops that fuse many applications into one node: such an op
can hand them preallocated slots to write into, and take the weight
adjoints of a whole stack of applications at once with
`stacked_weight_adjoints`, one batched product per layer, adding them
in the order of the per-application chain so the bits stay the same.
"""

from __future__ import annotations

import numpy as np


class TapeError(Exception):
    """Structural problem in the graph (cross-tape ops, broken order)."""


class Tape:
    """Append-only record of one computation graph."""

    def __init__(self):
        self.nodes = []

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

    def __pow__(self, exponent):
        return powc(self, exponent)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other, self.tape))

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


def neg(a):
    return Node(a.tape, -a.value, (a,), lambda g: (-g,), "neg")


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


def powc(a, exponent):
    c = float(exponent)
    return Node(a.tape, a.value ** c, (a,),
                lambda g: (g * (c * a.value ** (c - 1.0)),), "pow")


def tanh(a):
    out = Node(a.tape, np.tanh(a.value), (a,), None, "tanh")
    out.vjp = lambda g: (g * (1.0 - out.value * out.value),)
    return out


def sin(a):
    return Node(a.tape, np.sin(a.value), (a,),
                lambda g: (g * np.cos(a.value),), "sin")


def sincos(a):
    """sin(a) and cos(a) as two nodes; each VJP reuses the other's value."""
    s = Node(a.tape, np.sin(a.value), (a,), None, "sin")
    c = Node(a.tape, np.cos(a.value), (a,), None, "cos")
    s.vjp = lambda g: (g * c.value,)
    c.vjp = lambda g: (-(g * s.value),)
    return s, c


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


def matmul(a, b):
    def backward(g):
        ga = g @ b.value.T if b.value.ndim == 2 else np.outer(g, b.value)
        return (ga, a.value.T @ g)

    return Node(a.tape, a.value @ b.value, (a, b), backward, "matmul")


def vsum(a, axis=None, keepdims=False):
    kshape = None
    if axis is not None:
        axis = tuple(ax % a.value.ndim for ax in
                     (axis if isinstance(axis, tuple) else (axis,)))
        if not keepdims:
            kshape = tuple(1 if i in axis else n
                           for i, n in enumerate(a.value.shape))

    def backward(g):
        if kshape is not None:
            g = g.reshape(kshape)
        return (g * np.ones_like(a.value),)

    return Node(a.tape, np.sum(a.value, axis=axis, keepdims=keepdims), (a,),
                backward, "sum")


def mlp_forward(x, params, activation, hidden=None, slots=None):
    """Plain-numpy MLP: act(h @ W + b) per hidden layer, affine output.

    `params` holds (W, b) arrays and `activation` is "tanh" or "sin".
    With a `hidden` list, each hidden layer appends (its output, cos of
    its pre-activation for sin or None for tanh): what `mlp_vjp` reads.
    `slots` holds one such (output, cos or None) pair of preallocated
    arrays per hidden layer for the layers to write into instead of
    fresh arrays; `out=` does not change the bits.
    """
    sin = activation == "sin"
    act = np.sin if sin else np.tanh
    h = x
    for i, (W, b) in enumerate(params[:-1]):
        out, cos_a = (None, None) if slots is None else slots[i]
        a = np.matmul(h, W, out=out)
        a += b
        if sin:
            cos_a = np.cos(a, out=cos_a)
        h = act(a, out=a)
        if hidden is not None:
            hidden.append((h, cos_a))
    W, b = params[-1]
    return h @ W + b


def mlp_vjp(g, weights, x, hidden, slots=None):
    """Adjoints of one MLP application from its output adjoint `g`.

    `weights` holds the (W, b) arrays, `x` and `hidden` what
    `mlp_forward` read and saved; a hidden layer's second entry may
    also hold tanh's 1 − h², taken ahead of time. Returns the input's
    adjoint and [gW0, gb0, gW1, gb1, ...]. The layers are walked in
    reverse with the float operations and order of the per-op chain
    (matmul, add, activation), so every adjoint equals that chain's bit
    for bit.

    `slots`, one array per hidden layer, takes that layer's
    pre-activation adjoint; the weight adjoints are then left to the
    caller, which can take those of many applications at once
    (`stacked_weight_adjoints`), and the list comes back empty.
    """
    grads = []
    for i in range(len(weights) - 1, 0, -1):
        h, slope = hidden[i - 1]
        if slots is None:
            grads[:0] = (h.T @ g, g.sum(axis=0))
        g = np.matmul(g, weights[i][0].T,
                      out=None if slots is None else slots[i - 1])
        np.multiply(g, 1.0 - h * h if slope is None else slope, out=g)
    if slots is None:
        grads[:0] = (x.T @ g, g.sum(axis=0))
    return g @ weights[0][0].T, grads


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


def mlp(x, params, activation):
    """One node for a whole MLP application; parents x, W0, b0, W1, b1, ..."""
    weights = [(W.value, b.value) for W, b in params]
    hidden = []
    value = mlp_forward(x.value, weights, activation, hidden)

    def backward(g):
        gx, grads = mlp_vjp(g, weights, x.value, hidden)
        return (gx, *grads)

    parents = (x,) + tuple(node for pair in params for node in pair)
    return Node(x.tape, value, parents, backward, "mlp")


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
            if parent.vjp is None and parent.idx not in wrt_ids:
                continue  # a constant, or a leaf nobody asked for
            prev = adjoints[parent.idx]
            adjoints[parent.idx] = contrib if prev is None else prev + contrib
    results = []
    for w in wrt:
        g = adjoints[w.idx] if w.idx < len(span) else None
        results.append(np.zeros_like(w.value) if g is None else np.asarray(g))
    return results

