"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Design constraints, in order of priority:

* correctness checkable by central finite differences (everything float64),
* low per-op Python overhead (the training loops here run hundreds of
  thousands of small steps on CPU), hence a handful of fused primitives
  (``relaxed_select``, ``neg_entropy_rows``, ``group_linear``,
  ``batchnorm``, ``cross_entropy_logits``, the pool ops) instead of deep
  compositions,
* few passes over the (k*m, d) routing logits: they are the largest array
  of a training step whatever the batch size, so ``relaxed_select`` and
  ``neg_entropy_rows`` compute in place in arrays of that size, their
  gradients included, instead of allocating one per elementwise step,
* few tape nodes per step: ``sum_squares`` takes any number of tensors, so
  the L2 penalty over a whole parameter list is one node,
* no views, no strides, no broadcasting beyond bias rows.

Grouped activations are (k, m, B) arrays: group, slot within the group, then
the batch, last. Every grouped primitive (``group_linear``, the pool ops,
``batchnorm`` on 3-D input) relies on it: a group's rows for the whole batch
are one contiguous block, so group maps are batched matrix products and
pooling and batch statistics are contiguous reductions. Ungrouped
activations (the network input and the dense tail) are (B, F).

Storage is always a C-contiguous float64 ``numpy`` array. Ops are free
functions taking the recording :class:`Tape` as first argument; passing
``tape=None`` runs the forward computation without recording (eval mode).
Finite-ness of externally supplied values is validated in the public
``Tensor`` constructor; interior ops raise :class:`DomainError` only where a
domain violation can actually occur (``softmax_rows``, ``relaxed_select``,
``batchnorm``, ``dropout``, ``cross_entropy_logits``).

A tape is single-use: build it, run forwards, call :meth:`Tape.backward`
once, throw it away. Gradients accumulate into ``Tensor.grad`` and are never
mutated in place, so aliasing between a node's output gradient and its
inputs' gradients is safe. A node's backward computes no gradient for an
operand that does not require one, such as the input rows of a batch: the
tape would discard it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GraphError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "transpose",
    "reshape",
    "add",
    "mul",
    "scale",
    "relu",
    "tsum",
    "sum_squares",
    "softmax_rows",
    "relaxed_select",
    "neg_entropy_rows",
    "gather_rows",
    "group_linear",
    "batchnorm",
    "dropout",
    "pool_max",
    "pool_mean",
    "pool_concat",
    "cross_entropy_logits",
]


class Tensor:
    """A dense n-dimensional float64 value with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _raw(data) -> Tensor:
    """Internal fast constructor: wraps an array the op just produced, skipping validation."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = False
    t.grad = None
    return t


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of primitive ops; execution order is topological order.

    One backward traversal visits each node exactly once, in reverse. A tape
    may be backpropagated only once.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._out_ids: set[int] = set()
        self._used = False

    def __len__(self) -> int:
        return len(self.nodes)

    def _record(self, out: Tensor, inputs: tuple, backward) -> None:
        out.requires_grad = True
        self.nodes.append(_Node(out, inputs, backward))
        self._out_ids.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` of every requires_grad tensor reachable from ``loss``."""
        if self._used:
            raise GraphError("tape already backpropagated; build a fresh tape")
        if loss.size != 1:
            raise GraphError(f"loss must be scalar, got shape {loss.shape}")
        if id(loss) not in self._out_ids:
            raise GraphError("loss was not recorded on this tape (detached graph)")
        self._used = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            out_grad = node.out.grad
            if out_grad is None:
                continue
            grads = node.backward(out_grad)
            for t, g in zip(node.inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                t.grad = g if t.grad is None else t.grad + g


def _result(tape, data, inputs, backward) -> Tensor:
    out = _raw(data)
    if tape is not None and any(t.requires_grad for t in inputs):
        tape._record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(tape, a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, (p,q) @ (q,r) -> (p,r)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        return (
            g @ bd.T if a.requires_grad else None,
            ad.T @ g if b.requires_grad else None,
        )

    return _result(tape, ad @ bd, (a, b), backward)


_TRANSPOSE_BLOCK = 64


def _transposed(a: np.ndarray) -> np.ndarray:
    """a.T as a new C-contiguous array.

    Large arrays are copied a block of source rows at a time, so that each
    destination row is written in runs of a cache line or more; numpy's own
    strided copy of a large a.T is several times slower.
    """
    if min(a.shape) < _TRANSPOSE_BLOCK:
        return np.ascontiguousarray(a.T)
    out = np.empty(a.shape[::-1])
    for i in range(0, a.shape[0], _TRANSPOSE_BLOCK):
        out[:, i : i + _TRANSPOSE_BLOCK] = a[i : i + _TRANSPOSE_BLOCK].T
    return out


def transpose(tape, a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects 2-D, got {a.shape}")

    def backward(g):
        return (_transposed(g),)

    return _result(tape, _transposed(a.data), (a,), backward)


def reshape(tape, a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g):
        return (g.reshape(old),)

    return _result(tape, a.data.reshape(shape), (a,), backward)


# ---------------------------------------------------------------------------
# elementwise ops (shapes equal, or b a bias row of a 2-D left operand)


def _bcast_backward(a_shape, b_shape, g):
    """Reduce gradient g to b's shape: g itself, or its column sums for a bias row."""
    return g if b_shape == a_shape else g.sum(axis=0)


def _check_bcast(a, b, opname):
    if b.shape != a.shape and (a.data.ndim != 2 or b.shape != (a.shape[1],)):
        raise ShapeError(f"{opname}: cannot broadcast {b.shape} to {a.shape}")


def add(tape, a: Tensor, b: Tensor) -> Tensor:
    _check_bcast(a, b, "add")
    ash, bsh = a.shape, b.shape

    def backward(g):
        return g, _bcast_backward(ash, bsh, g)

    return _result(tape, a.data + b.data, (a, b), backward)


def mul(tape, a: Tensor, b: Tensor) -> Tensor:
    _check_bcast(a, b, "mul")
    ash, bsh = a.shape, b.shape
    ad, bd = a.data, b.data

    def backward(g):
        return g * bd, _bcast_backward(ash, bsh, g * ad)

    return _result(tape, ad * bd, (a, b), backward)


def scale(tape, a: Tensor, c: float) -> Tensor:
    """Multiply by a non-differentiable python constant."""
    c = float(c)

    def backward(g):
        return (g * c,)

    return _result(tape, a.data * c, (a,), backward)


def relu(tape, a: Tensor) -> Tensor:
    """max(x, 0); subgradient at 0 is 0."""
    ad = a.data

    def backward(g):
        return (g * (ad > 0.0),)

    return _result(tape, np.maximum(ad, 0.0), (a,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(tape, a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    ash = a.shape

    def backward(g):
        return (np.broadcast_to(g, ash).copy(),)

    return _result(tape, np.asarray(a.data.sum()), (a,), backward)


def sum_squares(tape, *tensors: Tensor) -> Tensor:
    """The sum of every entry squared over all the tensors, as one scalar node.

    The L2 penalty over a whole parameter list. The value adds each tensor's
    ``np.dot`` of its flat view with itself, in argument order; the gradient
    of each tensor is 2*g*a.
    """
    datas = [a.data for a in tensors]

    def backward(g):
        return tuple(2.0 * g * ad for ad in datas)

    value = 0.0
    for ad in datas:
        flat = ad.reshape(-1)
        value += np.dot(flat, flat)
    return _result(tape, np.asarray(value, dtype=np.float64), tensors, backward)


# ---------------------------------------------------------------------------
# fused network primitives


def softmax_rows(tape, a: Tensor, temperature: float) -> Tensor:
    """Row-wise softmax of a 2-D tensor at the given temperature.

    Computed with max-subtraction so it stays finite down to very low
    temperatures. Each output row sums to 1. An entry whose logit gap to its
    row maximum, divided by the temperature, exceeds about 745 underflows
    to exactly 0.0, so rows are non-negative rather than strictly positive.
    The temperature itself is a constant of the op, not a differentiable
    input.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"softmax_rows expects 2-D, got {a.shape}")
    if not temperature > 0.0:
        raise DomainError(f"softmax temperature must be positive, got {temperature}")
    z = a.data / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot) / temperature,)

    return _result(tape, s, (a,), backward)


def routing_weights(psi: np.ndarray, temperature: float, out: np.ndarray | None = None) -> np.ndarray:
    """The row softmax of psi at the temperature, with subnormal weights set to 0.

    Computed in one array, ``out`` if given, in ``softmax_rows``' operation
    order. A weight below the smallest normal float64 moves a mixed value by
    less than 2.3e-308 times an input, and subnormal operands slow BLAS
    products many times over.
    """
    if not temperature > 0.0:
        raise DomainError(f"softmax temperature must be positive, got {temperature}")
    s = np.divide(psi, temperature, out=out)
    s -= np.maximum.reduce(s, axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=1, keepdims=True)
    s[s < np.finfo(np.float64).tiny] = 0.0
    return s


def relaxed_select(tape, psi: Tensor, x: Tensor, temperature: float) -> Tensor:
    """S @ x.T with S = ``routing_weights(psi, temperature)``: (r, d), (B, d) -> (r, B).

    One node for the tempered softmax and the product, differentiable in
    psi and in x; the temperature is a constant of the op. Backward forms
    gS = g @ x and overwrites it with S*(gS - rowdot)/temperature, where
    rowdot = sum_j S_ij gS_ij is read off the (r, B) output as
    sum_b g_ib out_ib. x's gradient is computed only if x requires one.
    """
    if psi.data.ndim != 2 or x.data.ndim != 2 or psi.shape[1] != x.shape[1]:
        raise ShapeError(f"relaxed_select: incompatible shapes {psi.shape} and {x.shape}")
    s = routing_weights(psi.data, temperature)
    xd = x.data
    out = s @ xd.T

    def backward(g):
        gs = g @ xd
        gs -= np.einsum("ij,ij->i", g, out)[:, None]
        gs *= s
        gs /= temperature
        return gs, (g.T @ s if x.requires_grad else None)

    return _result(tape, out, (psi, x), backward)


def gather_rows(tape, x: Tensor, idx) -> Tensor:
    """out[j] = x[idx[j]] for a 2-D x; duplicate indices accumulate gradient."""
    idx = np.asarray(idx, dtype=np.intp)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects 2-D, got {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError("gather_rows: index out of range")
    xsh = x.shape

    def backward(g):
        dx = np.zeros(xsh)
        np.add.at(dx, idx, g)
        return (dx,)

    return _result(tape, x.data[idx], (x,), backward)


def group_linear(tape, z: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Independent affine map per group: out[i] = w[i] @ z[i] + b[i][:, None].

    z is (k, p, B), batch last, w is (k, q, p), b is (k, q) or None; the
    output is (k, q, B). The forward pass is one batched matrix product over
    the k groups, and the backward pass one per operand. No weight is shared
    across groups and no output reads another group's slice.
    """
    if z.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError("group_linear expects z (k,p,B) and w (k,q,p)")
    if z.shape[0] != w.shape[0] or z.shape[1] != w.shape[2]:
        raise ShapeError(f"group_linear: z {z.shape} incompatible with w {w.shape}")
    if b is not None and b.shape != (w.shape[0], w.shape[1]):
        raise ShapeError(f"group_linear: bias {b.shape} != {(w.shape[0], w.shape[1])}")
    zd, wd = z.data, w.data
    out = np.matmul(wd, zd)

    def grads(g):
        return np.matmul(wd.transpose(0, 2, 1), g), np.matmul(g, zd.transpose(0, 2, 1))

    if b is None:
        return _result(tape, out, (z, w), grads)
    out += b.data[:, :, None]

    def backward(g):
        return (*grads(g), g.sum(axis=2))

    return _result(tape, out, (z, w, b), backward)


def batchnorm(
    tape,
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
) -> Tensor:
    """Per-feature batch normalization of (B, F) or grouped (k, m, B) input.

    A grouped input normalizes each of its k*m slots over the batch axis, and
    its gamma, beta and running moments are (k*m,) vectors in group-major
    order. Training mode normalizes by batch moments (biased variance) and
    folds them into the running moments in place; eval mode applies the
    running moments as one scale and shift, a*x + c with a = gamma/sqrt(var +
    eps) and c = beta - mean*a, so output is independent of batch composition.
    """
    xd = x.data
    if xd.ndim == 2:
        xf, axis, col = xd, 0, (-1,)
    elif xd.ndim == 3:
        # (k*m, B): every slot's batch is one contiguous row
        xf, axis, col = xd.reshape(-1, xd.shape[2]), 1, (-1, 1)
    else:
        raise ShapeError(f"batchnorm expects (B, F) or (k, m, B), got {x.shape}")
    if gamma.size != xf.shape[1 - axis]:
        raise ShapeError(f"batchnorm: {gamma.size} features for input {x.shape}")
    n = xf.shape[axis]
    if training and n < 2:
        raise DomainError("batchnorm in training mode needs a batch of at least 2")
    xsh = x.shape
    gd = gamma.data

    if not training:
        mean = running_mean.copy()
        invstd = 1.0 / np.sqrt(running_var + eps)
        a = gd * invstd
        out = xf * a.reshape(col)
        out += (beta.data - mean * a).reshape(col)

        def backward(g):
            gf = g.reshape(xf.shape)
            xhat = (xf - mean.reshape(col)) * invstd.reshape(col)
            dx = gf * a.reshape(col)
            return dx.reshape(xsh), (gf * xhat).sum(axis=axis), gf.sum(axis=axis)

        return _result(tape, out.reshape(xsh), (x, gamma, beta), backward)

    mean = xf.mean(axis=axis)
    xc = xf - mean.reshape(col)
    var = np.square(xc).mean(axis=axis)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = xc * invstd.reshape(col)
    out = xhat * gd.reshape(col)
    out += beta.data.reshape(col)

    def backward(g):
        gf = g.reshape(xf.shape)
        dbeta = gf.sum(axis=axis)
        dgamma = (gf * xhat).sum(axis=axis)
        dx = (gd * invstd).reshape(col) * (
            gf - (dbeta / n).reshape(col) - xhat * (dgamma / n).reshape(col)
        )
        return dx.reshape(xsh), dgamma, dbeta

    return _result(tape, out.reshape(xsh), (x, gamma, beta), backward)


def dropout(tape, x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        def backward(g):
            return (g,)

        return _result(tape, x.data.copy(), (x,), backward)
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)

    def backward(g):
        return (g * mask,)

    return _result(tape, x.data * mask, (x,), backward)


def _pool_view(z: Tensor, branching: int):
    """(k, m, B) as (b, k/b, m, B): stratum t of output group i is input group t*k/b + i.

    So for branching=2 group i merges with group i + k/2, and each stratum is
    one contiguous block of the input.
    """
    if z.data.ndim != 3:
        raise ShapeError(f"pool expects (k, m, B), got {z.shape}")
    k, m, n = z.shape
    if branching < 2:
        raise ShapeError(f"pool branching must be >= 2, got {branching}")
    if k % branching != 0:
        raise ShapeError(f"pool: group count {k} not divisible by branching {branching}")
    return z.data.reshape(branching, k // branching, m, n)


def pool_max(tape, z: Tensor, branching: int) -> Tensor:
    """Elementwise max over each set of b groups, (k, m, B) -> (k/b, m, B).

    Each output's gradient goes to the stratum that attained the max, the
    lowest one on ties. Those argmax strata are found only when the backward
    pass runs, by comparing each stratum with the output in turn.
    """
    zr = _pool_view(z, branching)
    zsh = z.shape
    out = zr.max(axis=0)

    def backward(g):
        dzr = np.empty(zr.shape)
        free = np.ones(out.shape, dtype=bool)
        for t in range(branching):
            hit = zr[t] == out
            hit &= free
            free &= ~hit
            np.multiply(g, hit, out=dzr[t])
        return (dzr.reshape(zsh),)

    return _result(tape, out, (z,), backward)


def pool_mean(tape, z: Tensor, branching: int) -> Tensor:
    """Elementwise mean over each set of b groups, (k, m, B) -> (k/b, m, B)."""
    zr = _pool_view(z, branching)
    zsh = z.shape

    def backward(g):
        dzr = np.broadcast_to(g / branching, zr.shape)
        return (np.ascontiguousarray(dzr).reshape(zsh),)

    return _result(tape, zr.mean(axis=0), (z,), backward)


def pool_concat(tape, z: Tensor, branching: int) -> Tensor:
    """Rearrange (k, m, B) into (k/b, b*m, B): output group i stacks its b source groups' slots."""
    zr = _pool_view(z, branching)
    b, kb, m, n = zr.shape
    out = np.ascontiguousarray(zr.transpose(1, 0, 2, 3)).reshape(kb, b * m, n)
    zsh = z.shape

    def backward(g):
        gr = g.reshape(kb, b, m, n).transpose(1, 0, 2, 3)
        return (np.ascontiguousarray(gr).reshape(zsh),)

    return _result(tape, out, (z,), backward)


def neg_entropy_rows(tape, a: Tensor) -> Tensor:
    """sum over all entries of p*log(p), with p the row softmax of a at temperature 1.

    With z = a - rowmax, e = exp(z) and S the row sum of e, a row's value
    is sum(e*z)/S - log(S) and its gradient (e/S)*(z - log(S) - value).
    Where exp underflows, e = 0, so both the term and its gradient are 0:
    the 0*log(0) = 0 convention, and fully saturated rows are exact zeros
    instead of NaNs. The gradient is written into z.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"neg_entropy_rows expects 2-D, got {a.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1)
    log_s = np.log(s)
    rows = np.einsum("ij,ij->i", e, z) / s - log_s

    def backward(g):
        dz = z
        dz -= (log_s + rows)[:, None]
        dz *= e
        dz *= (g / s)[:, None]
        return (dz,)

    return _result(tape, np.asarray(rows.sum()), (a,), backward)


def cross_entropy_logits(tape, logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy between row softmax of logits and integer class targets."""
    y = np.asarray(targets)
    if logits.data.ndim != 2 or y.ndim != 1 or y.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {y.shape}")
    n, c = logits.shape
    if y.size and (y.min() < 0 or y.max() >= c):
        raise DomainError(f"target label out of range [0, {c})")
    zd = logits.data
    zmax = zd.max(axis=1, keepdims=True)
    ez = np.exp(zd - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = zd - zmax - np.log(sez)
    rows = np.arange(n)
    loss = -logp[rows, y].mean()

    def backward(g):
        p = ez / sez
        p[rows, y] -= 1.0
        return (p * (g / n),)

    return _result(tape, np.asarray(loss), (logits,), backward)
