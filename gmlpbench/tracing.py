"""Per-layer timing from outside the program, for the traced run.

:meth:`Tracer.install` replaces the gmlp functions listed in ``SPANS`` (and
every public function of ``gmlp.tensor``) with wrappers that open a span on
entry and close it on exit. A span's self time is its duration minus the
durations of the spans nested in it, so ``model.forward`` excludes its
blocks and ``tensor.backward`` excludes the node backward functions.

Tensor primitives are charged to the span that calls them: ``pool_max``
inside ``layers.group_pool_forward`` is pool time. A primitive that
``Model.forward`` or ``training.loss_terms`` calls directly opens a span of
its own only where ``DISPATCH`` names one (ReLU is a block with no layers
function, and the loss terms are single primitives); the reshapes around a
grouped batch-norm stay in ``model.forward``'s self time.

Each node that a span appends to a ``Tape`` gets its ``backward`` wrapped in
a ``bwd:<span>`` span, so backward time goes to the layer that recorded the
node. Spans are aggregated in memory per (label, phase); the phase is set
by the benchmark, and ``training.predictions`` called inside ``fit`` runs
as ``training.eval`` in phase ``eval``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from gmlp import data, layers, model, tensor, training

# (module, attribute) -> span label; methods are "Class.method"
SPANS = {
    (data, "synth_generate"): "data.generate",
    (data, "halfnoise_generate"): "data.generate",
    (data, "split"): "data.split",
    (data, "normalize"): "data.normalize",
    (model, "Model.__init__"): "model.build",
    (model, "Model.forward"): "model.forward",
    (layers, "group_select_forward"): "layers.gsel",
    (layers, "group_fc_forward"): "layers.gfc",
    (layers, "group_pool_forward"): "layers.pool",
    (layers, "batchnorm_forward"): "layers.batchnorm",
    (layers, "dense_forward"): "layers.dense",
    (layers, "concat_groups"): "layers.concat",
    (training, "fit"): "training.fit",
    (training, "loss_terms"): "training.loss_terms",
    (training, "entropy_term"): "training.loss_entropy",
    (training, "adam_step"): "training.adam",
    (training, "routing_sparsity"): "training.sparsity",
    (tensor, "Tape.backward"): "tensor.backward",
}
GENERATORS = {(data, "batches"): "data.batches"}

# (innermost open span, tensor primitive) -> span label. The L2 chain is
# sum_squares, add and scale; the one add and scale that weigh in the
# entropy term are counted with it.
DISPATCH = {
    ("model.forward", "relu"): "layers.relu",
    ("training.loss_terms", "cross_entropy_logits"): "training.loss_ce",
    ("training.loss_terms", "sum_squares"): "training.loss_l2",
    ("training.loss_terms", "add"): "training.loss_l2",
    ("training.loss_terms", "scale"): "training.loss_l2",
}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stack = []  # open frames: [label, phase, start, child time]
        # (label, phase) -> [self seconds, inclusive seconds, calls]
        self.totals = defaultdict(lambda: [0.0, 0.0, 0])
        self.tape_nodes = defaultdict(int)  # phase -> nodes backpropagated

    # -- spans ---------------------------------------------------------------

    def open(self, label: str):
        frame = [label, self.phase, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame) -> None:
        dur = time.perf_counter() - frame[2]
        self.stack.pop()
        if self.stack:
            self.stack[-1][3] += dur
        acc = self.totals[(frame[0], frame[1])]
        acc[0] += dur - frame[3]
        acc[1] += dur
        acc[2] += 1

    def self_s(self, label: str, phase: str) -> float:
        return self.totals[(label, phase)][0] if (label, phase) in self.totals else 0.0

    def inclusive_s(self, label: str, phase: str) -> float:
        return self.totals[(label, phase)][1] if (label, phase) in self.totals else 0.0

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def _generator(self, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self.open(label)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(frame)
                yield item

        return traced

    def _primitive(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = DISPATCH.get((self.stack[-1][0], name)) if self.stack else None
            if label is None:
                return fn(*args, **kwargs)
            frame = self.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def _predictions(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inside_fit = self.phase == "train"
            frame = self.open("training.eval" if inside_fit else "training.predictions")
            if inside_fit:
                self.phase = "eval"
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = frame[1]
                self.close(frame)

        return traced

    def _record(self, fn):
        @functools.wraps(fn)
        def traced(tape, out, inputs, backward):
            label = "bwd:" + (self.stack[-1][0] if self.stack else "untraced")
            fn(tape, out, inputs, self._span(backward, label))

        return traced

    def _backward(self, fn):
        traced_fn = self._span(fn, "tensor.backward")

        @functools.wraps(fn)
        def traced(tape, loss):
            self.tape_nodes[self.phase] += len(tape.nodes)
            return traced_fn(tape, loss)

        return traced

    def install(self) -> None:
        """Swap the wrappers in wherever gmlp and the benchmark hold the originals."""
        swap = {}
        for (mod, attr), label in SPANS.items():
            owner, name = _owner(mod, attr)
            fn = getattr(owner, name)
            wrapped = self._backward(fn) if label == "tensor.backward" else self._span(fn, label)
            setattr(owner, name, wrapped)
            swap[fn] = wrapped
        for (mod, attr), label in GENERATORS.items():
            swap[getattr(mod, attr)] = self._generator(getattr(mod, attr), label)
        fn = training.predictions
        swap[fn] = self._predictions(fn)
        for name in tensor.__all__:
            fn = getattr(tensor, name)
            if callable(fn) and not isinstance(fn, type):
                swap[fn] = self._primitive(fn, name)
        tensor.Tape._record = self._record(tensor.Tape._record)
        # `from x import f` leaves a binding in each importing module
        for modname, mod in list(sys.modules.items()):
            if not (modname == "gmlp" or modname.startswith("gmlp.")):
                continue
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in swap:
                    setattr(mod, attr, swap[val])


def _owner(mod, attr):
    if "." in attr:
        cls, name = attr.split(".")
        return getattr(mod, cls), name
    return mod, attr
