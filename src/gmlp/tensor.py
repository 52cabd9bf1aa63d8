"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

A network block is one kernel, a ``(forward, backward)`` pair of plain numpy
functions: ``forward(x)`` returns the block's output and what its backward
reads, and ``backward(g, saved)`` returns the gradient of each of its
inputs, the block's input first (None where nothing reads it) and then its
parameters. :func:`node` runs a pair on ``Tensor`` values and records it as
one tape node; it is the tape's only op. ``Model.forward`` records the
pairs of ``Model._train_pairs`` (kernels of ``layers``) in training mode,
and ``training.loss_terms`` records the objective (a kernel of
``training``) as one more node. ``fit`` runs the same kernels through its
compiled step without a tape, and prediction runs the eval executor, so the
tape serves only the benchmark's gradient check (``gradient_fd``), its
tracer, and the tests' bit-for-bit reference for the compiled step. It goes
with ROADMAP item 1, once those move to the compiled step.

Everything here is float64, so gradients can be checked by central finite
differences, and a block or the objective is one node, so the per-op Python
overhead stays low. Storage is always a C-contiguous float64 ``numpy``
array, as in training. Float64 ends at prediction, whose executor casts the
rows and weights to float32 (``model.EVAL_DTYPE``) and returns float64
logits. :func:`node` takes the recording :class:`Tape` as first argument;
passing ``tape=None`` runs the forward computation without recording.
Finite-ness of externally supplied values is validated in the public
``Tensor`` constructor.

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

