"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

A network block is one kernel, a ``(forward, backward)`` pair of plain numpy
functions: ``forward(x)`` returns the block's output and what its backward
reads, and ``backward(g, saved)`` returns the gradient of each of its
inputs, the block's input first (None where nothing reads it) and then its
parameters. :func:`node` runs a pair on ``Tensor`` values and records it as
one tape node; it is the tape's only op. A model's pairs are listed once,
by ``Model._train_pairs``: ``Model.forward`` records them in training mode,
and the compiled training step runs them without a tape. The block kernels
live in ``layers``, next to their layers. The training objective is one
kernel too, written once in ``training``: ``loss_terms`` records it as one
node, and the compiled step calls it directly. What it is built from lives
here: the row softmax of the routing logits (``routing_weights``), the
cross-entropy and the entropy values with their gradients, and the L2 sum
(``squares_sum``). ``fit`` builds no tape and prediction runs the eval
executor, so the tape serves the gradient checks.

Design constraints, in order of priority:

* correctness checkable by central finite differences (everything float64),
* low per-op Python overhead: one node per block, and one for the whole
  objective,
* few passes over the (k*m, d) routing logits, the largest array of a
  training step whatever the batch size: ``routing_weights`` and the
  entropy kernels compute in place in arrays of that size, their
  gradients included.

Grouped activations are (k, m, B) arrays: group, slot within the group, then
the batch, last, so a group's rows for the whole batch are one contiguous
block. Ungrouped activations (the network input and the dense tail) are
(B, F).

Storage is always a C-contiguous float64 ``numpy`` array. :func:`node` takes
the recording :class:`Tape` as first argument; passing ``tape=None`` runs
the forward computation without recording. Finite-ness of externally
supplied values is validated in the public ``Tensor`` constructor; kernels
raise :class:`DomainError` only where a domain violation can actually occur.

A tape is single-use: build it, run forwards, call :meth:`Tape.backward`
once, throw it away. Gradients accumulate into ``Tensor.grad`` and are never
mutated in place, so aliasing between a node's output gradient and its
inputs' gradients is safe. The tape discards the gradient of an operand
that does not require one, such as the input rows of a batch, and kernels
skip computing it where they can.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GraphError, ShapeError

__all__ = ["Tensor", "Tape"]


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
    """Ordered record of kernel nodes; execution order is topological order.

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


def node(tape, pair, x: Tensor, *params: Tensor) -> Tensor:
    """Run a kernel ``pair`` on x and record it as one node over x and ``params``.

    The node's inputs are x, then the parameters, the order in which the
    pair's backward returns their gradients. Nothing is recorded without a
    tape or when no input requires a gradient.
    """
    forward, backward = pair
    data, saved = forward(x.data)
    out = _raw(data)
    inputs = (x, *params)
    if tape is not None and any(t.requires_grad for t in inputs):
        tape._record(out, inputs, lambda g: backward(g, saved))
    return out


# ---------------------------------------------------------------------------
# routing and the objective's terms


def routing_weights(psi: np.ndarray, temperature: float, out: np.ndarray | None = None) -> np.ndarray:
    """The row softmax of psi at the temperature, with subnormal weights set to 0.

    Computed in one array, ``out`` if given, by max-subtraction, so it stays
    finite down to very low temperatures. A weight below the smallest normal
    float64 moves a mixed value by less than 2.3e-308 times an input, and
    subnormal operands slow BLAS products many times over.
    """
    if not temperature > 0.0:
        raise DomainError(f"softmax temperature must be positive, got {temperature}")
    s = np.divide(psi, temperature, out=out)
    s -= np.maximum.reduce(s, axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=1, keepdims=True)
    s[s < np.finfo(np.float64).tiny] = 0.0
    return s


def neg_entropy_value(a: np.ndarray, z=None, e=None):
    """sum over all entries of p*log(p), with p the row softmax of a at temperature 1.

    With z = a - rowmax, e = exp(z) and S the row sum of e, a row's value
    is sum(e*z)/S - log(S). Where exp underflows, e = 0, so the term is 0:
    the 0*log(0) = 0 convention, and fully saturated rows are exact zeros
    instead of NaNs. z and e are written into the arrays ``z`` and ``e`` of
    a's shape if given. Returns the value and what ``neg_entropy_grad``
    reads.
    """
    z = np.subtract(a, np.maximum.reduce(a, 1, keepdims=True), out=z)
    e = np.exp(z, out=e)
    s = np.add.reduce(e, 1)
    log_s = np.log(s)
    rows = np.einsum("ij,ij->i", e, z) / s - log_s
    return np.add.reduce(rows), (z, e, s, log_s, rows)


def neg_entropy_grad(g, saved) -> np.ndarray:
    """g times the gradient of ``neg_entropy_value``: (e/S)*(z - log(S) - row value), written into z."""
    z, e, s, log_s, rows = saved
    z -= (log_s + rows)[:, None]
    z *= e
    z *= (g / s)[:, None]
    return z


def cross_entropy_value(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy between the row softmax of (n, c) logits and n integer labels.

    Returns the value and what ``cross_entropy_grad`` reads.
    """
    if logits.ndim != 2 or y.ndim != 1 or y.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {y.shape}")
    n, c = logits.shape
    if y.size and (np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= c):
        raise DomainError(f"target label out of range [0, {c})")
    shifted = logits - np.maximum.reduce(logits, 1, keepdims=True)
    ez = np.exp(shifted)
    sez = np.add.reduce(ez, 1, keepdims=True)
    logp = shifted - np.log(sez)
    return -(np.add.reduce(logp[np.arange(n), y]) / n), (ez, sez, y)


def cross_entropy_grad(g, saved) -> np.ndarray:
    """g times the gradient of ``cross_entropy_value`` in the logits: (softmax - onehot) * g/n."""
    ez, sez, y = saved
    p = ez / sez
    p[np.arange(len(y)), y] -= 1.0
    p *= g / len(y)
    return p


def squares_sum(flats) -> float:
    """The sum of ``np.dot(a, a)`` over the flat arrays, in order."""
    value = 0.0
    for flat in flats:
        value += np.dot(flat, flat)
    return value
