"""Network assembly: a compact string grammar for architectures, a seeded
builder, the forward pass, and closed-form complexity accounting.

Architecture strings use the block tokens ``GSel-k-m``, ``GFC``, ``ReLU``,
``BNorm``, ``GPool-kind`` (optionally ``GPool-kind-b`` for b-way merges),
``Dropout-rate``, ``Concat``, ``FC-width`` and an optional terminal
``Softmax``. Example::

    GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2, Softmax

A group-connected net must start with ``GSel`` and end with
``Concat, FC-C[, Softmax]``. A string without ``GSel`` describes the plain
dense baseline: it may start with any block but ``GFC``, ``GPool`` and
``Concat``, which it may not use at all, and ends at its last ``FC``.
``Softmax`` marks the probability boundary only: the forward pass always
returns logits and the softmax lives inside the cross-entropy loss.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import layers as L
from . import tensor as T
from .errors import ConfigError, ShapeError
from .layers import POOL_KINDS, BatchNormState, RoutingParams
from .tensor import Tensor


@dataclass
class ArchSpec:
    """Declarative description of one network."""

    kind: str  # "gmlp" | "mlp"
    d: int
    n_classes: int
    k: int
    m: int
    branching: int
    blocks: tuple
    seed: int = 0
    text: str = ""

    @property
    def n_weight_layers(self) -> int:
        """Total depth counted in weight layers: GFC blocks plus the output, or all FC blocks."""
        return sum(1 for b in self.blocks if b[0] in ("gfc", "dense"))


# the tokens that take no argument, and their block tags
_PLAIN_BLOCKS = {"gfc": "gfc", "relu": "relu", "bnorm": "batchnorm", "concat": "concat"}


def parse_arch(text: str, d: int, seed: int = 0, branching: int = 2) -> ArchSpec:
    """Parse an architecture string into an ArchSpec that ``plan`` accepts.

    ``branching`` is the default merge width for ``GPool-kind`` tokens
    without an explicit count.
    """
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("empty architecture string")
    blocks = []
    k = m = 0
    kind = "mlp"
    softmax_seen = False
    for pos, tok in enumerate(tokens):
        parts = tok.split("-")
        head = parts[0].lower()
        if softmax_seen:
            raise ConfigError(f"token {pos}: nothing may follow Softmax")
        try:
            if head == "gsel":
                if pos != 0:
                    raise ConfigError(f"token {pos}: GSel must come first")
                if len(parts) != 3:
                    raise ConfigError(f"token {pos}: expected GSel-k-m, got {tok!r}")
                kind = "gmlp"
                k, m = int(parts[1]), int(parts[2])
            elif head in _PLAIN_BLOCKS:
                blocks.append((_PLAIN_BLOCKS[head],))
            elif head == "gpool":
                pk = parts[1].lower() if len(parts) > 1 else "max"
                if pk not in POOL_KINDS:
                    raise ConfigError(f"token {pos}: unknown pool kind {pk!r}")
                b = int(parts[2]) if len(parts) > 2 else branching
                blocks.append(("pool", pk, b))
            elif head == "dropout":
                if len(parts) != 2:
                    raise ConfigError(f"token {pos}: expected Dropout-rate, got {tok!r}")
                rate = float(parts[1])
                if not 0.0 <= rate < 1.0:
                    raise ConfigError(f"token {pos}: dropout rate must be in [0, 1)")
                blocks.append(("dropout", rate))
            elif head == "fc":
                if len(parts) != 2:
                    raise ConfigError(f"token {pos}: expected FC-width, got {tok!r}")
                blocks.append(("dense", int(parts[1])))
            elif head == "softmax":
                softmax_seen = True
            else:
                raise ConfigError(f"token {pos}: unknown block {tok!r}")
        except ValueError as exc:
            raise ConfigError(f"token {pos}: cannot parse {tok!r}: {exc}") from exc
    dense_widths = [b[1] for b in blocks if b[0] == "dense"]
    if not dense_widths:
        raise ConfigError("architecture has no FC output block")
    n_classes = dense_widths[-1]
    if kind == "mlp":
        k, m = 1, dense_widths[0]
    branchings = [b[2] for b in blocks if b[0] == "pool"]
    spec = ArchSpec(
        kind=kind,
        d=d,
        n_classes=n_classes,
        k=k,
        m=m,
        branching=branchings[0] if branchings else branching,
        blocks=tuple(blocks),
        seed=seed,
        text=text,
    )
    plan(spec)
    return spec


@dataclass
class Block:
    """One block of a planned network.

    ``name`` is the block's checkpoint prefix ``block{i}``; ``tag`` and
    ``args`` are the parsed block (``args`` holds a pool's kind and
    branching, a dropout rate or a dense width). ``k`` is the number of
    groups the block reads, 0 in a dense net and after Concat, and ``width``
    the values per row it reads. ``params`` lists the block's tensors in draw
    order as ``(suffix, shape, init)``: ``init`` is the Xavier
    ``(fan_in, fan_out)`` the tensor is drawn with, or the constant it
    starts at.
    """

    name: str
    tag: str
    args: tuple
    k: int
    width: int
    params: list


def plan(spec: ArchSpec) -> list[Block]:
    """Walk the spec's blocks once: check the grammar, and give each block its input shape and tensors.

    Every grammar error raises ``ConfigError``. GFC, GPool and Concat need
    groups, which a dense net and the blocks after Concat do not have, a
    group-connected net needs a GFC, and every net ends at its output FC:
    the first FC of a group-connected net, the last FC of a dense one.
    """
    if spec.kind not in ("gmlp", "mlp"):
        raise ConfigError(f"unknown arch kind {spec.kind!r}")
    if spec.d < 1 or spec.n_classes < 1:
        raise ConfigError(f"need d >= 1 and classes >= 1, got d={spec.d}, C={spec.n_classes}")
    m = spec.m
    if spec.kind == "gmlp":
        if spec.k < 1 or m < 1:
            raise ConfigError(f"need k >= 1 and m >= 1, got k={spec.k}, m={m}")
        k, width = spec.k, spec.k * m
    else:
        k, width = 0, spec.d
    blocks, saw_output = [], False
    last_fc = max((i for i, (tag, *_) in enumerate(spec.blocks) if tag == "dense"), default=-1)
    for i, (tag, *args) in enumerate(spec.blocks):
        if saw_output:
            raise ConfigError(f"block {i}: nothing may follow the output FC")
        if tag in ("gfc", "pool", "concat") and k == 0:
            raise ConfigError(f"block {i}: {tag} needs groups (none in a dense net or after Concat)")
        block = Block(f"block{i}", tag, tuple(args), k, width, [])
        blocks.append(block)
        if tag == "gfc":
            block.params += [("gfc.weights", (k, m, m), (m, m)), ("gfc.biases", (k, m), 0.0)]
        elif tag == "pool":
            kind, b = args
            if b < 2 or k % b != 0:
                raise ConfigError(f"pool cannot merge {k} groups {b}-way: need b >= 2 dividing {k}")
            k //= b
            width = k * m
            if kind == "linear":
                block.params.append(("pool.weights", (k, m, b * m), (b * m, m)))
        elif tag == "concat":
            k = 0
        elif tag == "dense":
            if spec.kind == "gmlp" and k != 0:
                raise ConfigError("dense output before concat")
            saw_output = spec.kind == "gmlp" or i == last_fc
            (out,) = args
            block.params += [("dense.w", (width, out), (width, out)), ("dense.b", (out,), 0.0)]
            width = out
        elif tag == "batchnorm":
            block.params += [("bn.gamma", (width,), 1.0), ("bn.beta", (width,), 0.0)]
        elif tag not in ("relu", "dropout"):
            raise ConfigError(f"unknown block {tag!r}")
    if spec.kind == "gmlp":
        if not saw_output:
            raise ConfigError("architecture must end with Concat, FC-C")
        if not any(block.tag == "gfc" for block in blocks):
            raise ConfigError("architecture needs at least one GFC block")
    elif not any(block.tag == "dense" for block in blocks):
        raise ConfigError("dense baseline needs at least one FC block")
    return blocks


# values per Xavier draw: a tensor is drawn into its slot a slice at a time
DRAW_SLICE = 1 << 15


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, out: np.ndarray) -> None:
    """Fill ``out`` with uniform draws from +-sqrt(6 / (fan_in + fan_out)).

    Each draw takes one value of the generator's stream, so drawing the flat
    view ``DRAW_SLICE`` values at a time gives the values of one draw of
    ``out``'s shape, without a temporary of that size.
    """
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    flat = out.reshape(-1)
    for lo in range(0, flat.size, DRAW_SLICE):
        part = flat[lo : lo + DRAW_SLICE]
        part[...] = rng.uniform(-bound, bound, size=part.size)


class Model:
    """A built network: routing parameters, an executable block list, and a
    flat named-parameter view for the optimizer, the L2 penalty, and
    checkpointing.

    Every parameter lives in one flat float64 vector (``_flat``), back to
    back in draw order; each named ``Tensor`` is a view of its slot, so
    writing into a parameter writes into the vector and the other way round.
    ``_offsets[i]`` is where ``_params[i]`` starts. Initialization is seeded
    Xavier-uniform: the routing logits with (fan_in=d, fan_out=k*m), then
    each tensor of ``plan(spec)`` in order with the fans or the constant the
    plan gives it. Same seed, same bits.
    """

    def __init__(self, spec: ArchSpec):
        blocks = plan(spec)
        self.spec = spec
        self.routing: RoutingParams | None = None
        self._ops = []  # (tag, payload) executed in order by forward()
        self._params: list[tuple[str, Tensor]] = []
        self._bn_states: list[tuple[str, BatchNormState]] = []
        # values per row of the widest activation: the input, a block's input or the logits
        self._widest = max(spec.d, spec.n_classes, *(block.width for block in blocks))
        self._eval_buffers = None  # the eval executor's chunk buffer pair, made at first use
        rng = np.random.default_rng(spec.seed)

        named = [
            (f"{block.name}.{suffix}", shape, init)
            for block in blocks
            for suffix, shape, init in block.params
        ]
        if spec.kind == "gmlp":
            d, k, m = spec.d, spec.k, spec.m
            named.insert(0, ("gsel.psi", (k * m, d), (d, k * m)))
        sizes = [math.prod(shape) for _, shape, _ in named]
        self._offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        # A heap array, not a map of its own (_flat_buffer): it reuses heap
        # memory that earlier arrays freed, as separate tensors did; in a map
        # it raised the benchmark's peak RSS on mlp-784 by 10 MB.
        self._flat = np.zeros(sum(sizes))
        for (name, shape, init), offset in zip(named, self._offsets):
            slot = _view(self._flat[offset:], *shape)
            if isinstance(init, tuple):
                _xavier(rng, *init, slot)
            else:
                slot[...] = init
            tensor = T._raw(slot)
            tensor.requires_grad = True
            self._params.append((name, tensor))
        drawn = iter(t for _, t in self._params)

        if spec.kind == "gmlp":
            self.routing = RoutingParams(next(drawn), 1.0, k, m, d)

        for block in blocks:
            tensors = [next(drawn) for _ in block.params]
            if block.tag == "pool":
                payload = (*block.args, tensors[0] if tensors else None)
            elif block.tag == "batchnorm":
                payload = BatchNormState(*tensors, np.zeros(block.width), np.ones(block.width))
                self._bn_states.append((f"{block.name}.bn", payload))
            elif block.tag in ("gfc", "dense"):
                payload = tuple(tensors)
            else:
                payload = block.args[0] if block.args else None  # a dropout rate
            self._ops.append((block.tag, payload))

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)

    def param_count(self) -> int:
        return sum(t.size for _, t in self._params)

    def state_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Parameters plus batch-norm running moments: everything a reload needs."""
        out = [(name, t.data) for name, t in self._params]
        for name, st in self._bn_states:
            out.append((f"{name}.running_mean", st.running_mean))
            out.append((f"{name}.running_var", st.running_var))
        return out

    @property
    def temperature(self) -> float:
        return self.routing.temperature if self.routing else 1.0

    def set_temperature(self, tau: float) -> None:
        if self.routing is not None:
            if not 0.0 < tau < math.inf:
                raise ConfigError(f"temperature must be positive and finite, got {tau}")
            self.routing.temperature = tau

    # -- execution ----------------------------------------------------------

    def forward(
        self,
        x: Tensor,
        training: bool = False,
        tape=None,
        mode: str = "relaxed",
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Run the block list on a (B, d) batch and return (B, C) logits.

        Training mode runs the blocks' training kernels (``_train_pairs``:
        relaxed routing, batch moments, dropout masks drawn from ``rng``)
        and records each as one node on ``tape`` if one is given; ``fit``
        compiles the same list without a tape. Eval mode (prediction) takes
        no tape and runs only the eval executor: the blocks become plain
        numpy steps (``_eval_steps``), built at each call from the current
        parameters, running moments, routing logits and temperature, and run
        on cache-sized row chunks in one pair of buffers that the model keeps
        across calls, so one model's eval path must not run in two threads
        at once. Hard routing gathers the argmax features of each chunk,
        relaxed routing multiplies each chunk by the tempered softmax of psi,
        dropout is the identity, and each ``GFC|FC, ReLU, BNorm`` run with no
        negative batch-norm scale is folded into one affine step and
        ``max(h, c)`` (see the comment block below the class). A tape in
        eval mode, and a ``mode`` other than ``"relaxed"`` in training mode,
        raise ``ConfigError``.
        """
        if x.data.ndim != 2 or x.shape[1] != self.spec.d:
            raise ShapeError(f"input {x.shape} does not match d={self.spec.d}")
        if not training:
            if tape is not None:
                raise ConfigError("eval mode takes no tape: prediction runs the eval executor")
            return T._raw(self._eval_forward(x.data, mode))
        if mode != "relaxed":
            raise ConfigError(f"training mode routes relaxed only, got mode {mode!r}")
        size = self.routing.psi.size if self.routing is not None else 0
        pairs = self._train_pairs((np.empty(size), np.empty(size)), rng, x.requires_grad)
        h = x
        for forward, backward, params in pairs:
            h = T.node(tape, (forward, backward), h, *params)
        return h

    def _eval_steps(self, mode: str) -> list:
        """The blocks as numpy steps ``(step, moves)``, each mapping one chunk's activation to the next.

        ``step(h, spare)`` gets the activation and the flat buffer that does
        not hold it. A step that ``moves`` writes its result into ``spare``;
        any other step works in place, in the buffer of ``h``, or returns a
        view of it. Grouped activations keep the (k, m, rows) layout of the
        training kernels. Dropout is the identity in eval mode and is
        dropped, and each ``GFC, ReLU, BNorm`` or ``FC, ReLU, BNorm`` run
        whose batch-norm scale is nowhere negative is folded into two steps
        (see the comment block below the class).
        """
        steps = []
        r = self.routing
        if r is not None:
            k, m = r.k, r.m
            if mode == "hard":
                steps.append((_gather_step(L.hard_assignment(r), k, m), True))
            elif mode == "relaxed":
                steps.append((_mix_step(T.routing_weights(r.psi.data, r.temperature), k, m), True))
            else:
                raise ConfigError(f"unknown group-select mode {mode!r}")
        elif self._ops[0][0] != "dense":
            steps.append((_copy_step, True))  # the in-place steps below must not write into x
        ops = [op for op in self._ops if op[0] != "dropout"]
        grouped = r is not None
        i = 0
        while i < len(ops):
            tag, payload = ops[i]
            fold = None
            if tag in ("gfc", "dense") and [t for t, _ in ops[i + 1 : i + 3]] == ["relu", "batchnorm"]:
                a, c = ops[i + 2][1].scale_shift()
                if (a >= 0.0).all():
                    fold = a, c
            if tag == "gfc":
                w, b = (t.data for t in payload)
                if fold is not None:
                    a, c = (v.reshape(-1, m) for v in fold)
                    w, b, floor = a[:, :, None] * w, a * b + c, c[:, :, None]
                steps.append((_group_affine_step(w, b[:, :, None]), True))
            elif tag == "dense":
                w, b = (t.data for t in payload)
                if fold is not None:
                    a, c = fold
                    w, b, floor = w * a, a * b + c, c
                steps.append((_dense_step(w, b), True))
            elif tag == "relu":
                steps.append((_relu_step, False))
            elif tag == "batchnorm":
                a, c = payload.scale_shift()
                if grouped:
                    a, c = a.reshape(-1, m, 1), c.reshape(-1, m, 1)
                steps.append((_scale_shift_step(a, c), False))
            elif tag == "pool":
                kind, branching, w = payload
                if kind == "linear":
                    steps.append((_linear_pool_step(branching, w.data), False))
                else:
                    steps.append((_reduce_pool_step(kind, branching), True))
            elif tag == "concat":
                grouped = False
                steps.append((_concat_step, False))
            if fold is None:
                i += 1
            else:
                steps.append((_floor_step(floor), False))
                i += 3
        return steps

    def _eval_forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        """Eval-mode logits of (B, d) rows, computed chunk by chunk without a tape."""
        steps = self._eval_steps(mode)
        widest = self._widest
        rows = _chunk_rows(widest)
        out = np.empty((x.shape[0], self.spec.n_classes))
        if self._eval_buffers is None:
            self._eval_buffers = (_flat_buffer(rows * widest), _flat_buffer(rows * widest))
        for start in range(0, x.shape[0], rows):
            h = x[start : start + rows]
            spare, other = self._eval_buffers
            for step, moves in steps:
                h = step(h, spare)
                if moves:
                    spare, other = other, spare
            out[start : start + rows] = h
        return out

    def _train_pairs(self, scratch, rng, input_grad: bool) -> list:
        """The blocks' training kernels as ``(forward, backward, params)``, in block order.

        ``forward`` and ``backward`` are the block's ``layers`` pair, and
        ``params`` the tensors whose gradients ``backward`` returns after the
        input's. Group-Select is relaxed and keeps its routing weights and
        psi's gradient term in ``scratch``, two flat buffers of psi's size;
        batch-norm folds the batch moments into the running moments in its
        forward; dropout draws its masks from ``rng``, in block order. A
        first Group-Select or FC computes its input's gradient only if
        ``input_grad``.
        """
        pairs = []
        r = self.routing
        if r is not None:
            pairs.append((*L.select_pair(r, scratch, input_grad), [r.psi]))
        grouped = r is not None
        for tag, payload in self._ops:
            if tag == "gfc":
                w, b = payload
                pairs.append((*L.group_fc_pair(w.data, b.data), [w, b]))
            elif tag == "dense":
                w, b = payload
                pairs.append((*L.dense_pair(w.data, b.data, input_grad or bool(pairs)), [w, b]))
            elif tag == "relu":
                pairs.append((*L.RELU_PAIR, []))
            elif tag == "batchnorm":
                pairs.append((*L.batchnorm_pair(payload, grouped), [payload.gamma, payload.beta]))
            elif tag == "pool":
                kind, branching, w = payload
                if kind == "linear":
                    pairs.append((*L.linear_pool_pair(branching, w.data), [w]))
                else:
                    pairs.append((*L.reduce_pool_pair(kind, branching), []))
            elif tag == "dropout":
                if rng is None:
                    raise ConfigError("dropout in training mode needs an rng")
                if payload > 0.0:
                    pairs.append((*L.dropout_pair(payload, rng), []))
            elif tag == "concat":
                grouped = False
                pairs.append((*L.CONCAT_PAIR, []))
        return pairs


# ---------------------------------------------------------------------------
# eval-mode steps
#
# A chunk's widest activation holds about CHUNK_FLOATS float64 values (1 MiB),
# so the chunk's working set stays in the core's caches from one step to the
# next. The row count is held within [MIN_CHUNK_ROWS, MAX_CHUNK_ROWS]: below
# about 128 rows the matrix products of 1,024-wide layers lose efficiency,
# and above a few thousand rows even narrow nets spill out of cache.
#
# Every chunk's activations live in one pair of flat buffers that the model
# keeps from call to call (``Model._eval_buffers``, made by ``_flat_buffer``),
# each one full chunk of the widest activation. A step that needs a new
# array writes into the buffer that does not hold its input, as a view of
# its contiguous prefix (a tail chunk uses a shorter prefix), and the two
# swap roles. A fresh array per step and chunk would cost page faults
# whenever the allocator has handed the last one back to the system, and
# its speed would depend on the allocator's history. Because the buffers
# belong to the model, one model's eval path is not re-entrant: two threads
# must not predict with the same model at once.
#
# Batch-norm fold: eval batch-norm is a*h + c, with (a, c) from
# ``BatchNormState.scale_shift``, and for a >= 0, a*relu(y) + c equals
# max(a*y + c, c). So an affine step y = W h + b followed by ReLU and
# batch-norm becomes one affine step with weights a*W (row-scaled) and bias
# a*b + c, and one in-place ``np.maximum(h, c)``: the ReLU pass and both
# batch-norm passes collapse into one. The fold is computed at each call
# from the current parameters. A block with any negative scale, and any
# batch-norm that does not follow an affine step and ReLU, keeps the plain
# steps: the affine step, ReLU, and a*h + c in place.

CHUNK_FLOATS = 2**17
MIN_CHUNK_ROWS = 128
MAX_CHUNK_ROWS = 2048


def _chunk_rows(widest: int) -> int:
    """Rows per chunk for a net whose widest activation has ``widest`` values per row."""
    return min(MAX_CHUNK_ROWS, max(MIN_CHUNK_ROWS, CHUNK_FLOATS // widest))


def _flat_buffer(size: int) -> np.ndarray:
    """``size`` float64 values in an anonymous memory map of their own.

    A long-lived array from the malloc heap keeps the heap from shrinking
    back past it, so the memory of arrays freed below it stays resident: two
    1 MiB ``np.empty`` buffers per model raised the benchmark's peak RSS on
    ``wide-784`` by about 23 MB; in maps of their own they left it unchanged.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The contiguous prefix of a flat buffer, shaped."""
    return buf[: math.prod(shape)].reshape(shape)


def _copy_step(x, spare):
    out = _view(spare, *x.shape)
    out[...] = x
    return out


def _gather_step(idx: np.ndarray, k: int, m: int):
    """Hard Group-Select: slot i reads feature idx[i] of every row."""

    def step(x, spare):
        out = _view(spare, idx.size, x.shape[0])
        # idx comes from an argmax, so in range; "clip" spares numpy's buffered copy
        return np.take(x.T, idx, axis=0, out=out, mode="clip").reshape(k, m, -1)

    return step


def _mix_step(s: np.ndarray, k: int, m: int):
    """Relaxed Group-Select: S @ x.T for the routing softmax S."""

    def step(x, spare):
        return np.matmul(s, x.T, out=_view(spare, s.shape[0], x.shape[0])).reshape(k, m, -1)

    return step


def _group_affine_step(w: np.ndarray, b: np.ndarray):
    """Group-FC: one batched matmul over the groups, then the bias in place."""

    def step(h, spare):
        out = np.matmul(w, h, out=_view(spare, w.shape[0], w.shape[1], h.shape[2]))
        out += b
        return out

    return step


def _dense_step(w: np.ndarray, b: np.ndarray):
    def step(h, spare):
        out = np.matmul(h, w, out=_view(spare, h.shape[0], w.shape[1]))
        out += b
        return out

    return step


def _relu_step(h, spare):
    return np.maximum(h, 0.0, out=h)


def _floor_step(c: np.ndarray):
    """The ReLU and batch-norm of a folded block: max(h, c) in place."""

    def step(h, spare):
        return np.maximum(h, c, out=h)

    return step


def _scale_shift_step(a: np.ndarray, c: np.ndarray):
    """Eval batch-norm as a*h + c, written into h."""

    def step(h, spare):
        h *= a
        h += c
        return h

    return step


def _concat_step(h, spare):
    """(k, m, rows) -> (rows, k*m), as a transposed view."""
    return h.reshape(-1, h.shape[2]).T


def _reduce_pool_step(kind: str, branching: int):
    """Max or mean Group-Pool on a (k, m, rows) chunk."""
    reduce = np.max if kind == "max" else np.mean

    def step(h, spare):
        strata = L.strata(h, branching)
        return reduce(strata, axis=0, out=_view(spare, *strata.shape[1:]))

    return step


def _linear_pool_step(branching: int, w: np.ndarray):
    """Linear Group-Pool: the strata side by side per output group, then one batched matmul.

    The side-by-side copy goes into ``spare``; the product then goes back
    into the buffer of ``h``, whose values the copy has already read.
    """

    def step(h, spare):
        strata = L.strata(h, branching)
        kb, m, n = strata.shape[1:]
        cat = _view(spare, kb, branching * m, n)
        np.copyto(cat.reshape(kb, branching, m, n), strata.transpose(1, 0, 2, 3))
        return np.matmul(w, cat, out=_view(h.reshape(-1), *w.shape[:2], n))

    return step


# ---------------------------------------------------------------------------
# complexity accounting


@dataclass
class ComplexityReport:
    predict_ops: int
    train_ops: int
    mlp_predict_ops: int
    param_count_formula: int
    param_count_actual: int
    density: Fraction
    receptive_field_by_layer: list[int]

    def to_dict(self) -> dict:
        density = self.density
        text = f"1/{density.denominator}" if density.numerator == 1 else str(density)
        return {**asdict(self), "density": text}


def _series_value(first_term: Fraction, k: int, m: int, n_layers: int, c: int, quad: bool) -> Fraction:
    """first_term + sum_{j=0}^{L-2} layer_cost/2^j + C*k*m/2^(L-1).

    The idealized halving series: consecutive weight layers are assumed to be
    separated by a binary merge, including before the output layer.
    ``quad=True`` uses the dense layer cost (k*m)^2, else the group-local k*m^2.
    """
    total = first_term
    layer_cost = Fraction(k * m * k * m if quad else k * m * m)
    for j in range(n_layers - 1):
        total += layer_cost / 2**j
    total += Fraction(c * k * m) / 2 ** (n_layers - 1)
    return total


def predict_ops_gmlp(k: int, m: int, n_layers: int, c: int) -> Fraction:
    """Prediction-time op count: sparse routing costs k*m, then the group layers."""
    return _series_value(Fraction(k * m), k, m, n_layers, c, quad=False)


def train_ops_gmlp(k: int, m: int, n_layers: int, c: int, d: int) -> Fraction:
    """Training-time count: the routing matrix is still dense, k*m*d."""
    return _series_value(Fraction(k * m * d), k, m, n_layers, c, quad=False)


def predict_ops_mlp(k: int, m: int, n_layers: int, c: int, d: int) -> Fraction:
    """Op count of a dense baseline of matching width k*m."""
    return _series_value(Fraction(k * m * d), k, m, n_layers, c, quad=True)


def _as_int(x: Fraction):
    return int(x) if x.denominator == 1 else float(x)


def count_complexity(spec: ArchSpec) -> ComplexityReport:
    """Closed-form cost figures for a spec, next to exact parameter counts.

    The series values are idealized (width halves between consecutive weight
    layers); ``param_count_actual`` counts the routing logits and every
    tensor of ``plan(spec)``, biases and batch-norm included.
    """
    blocks = plan(spec)
    k, m, c, d = spec.k, spec.m, spec.n_classes, spec.d
    n_layers = spec.n_weight_layers
    mlp_equiv = predict_ops_mlp(k, m, n_layers, c, d)
    if spec.kind == "gmlp":
        predict = predict_ops_gmlp(k, m, n_layers, c)
        train = train_ops_gmlp(k, m, n_layers, c, d)
        routing = k * m * d
        rfield = [min(d, spec.branching ** (l - 1) * m) for l in range(1, n_layers + 1)]
    else:
        predict = train = mlp_equiv
        routing = 0
        rfield = [d] * n_layers
    actual = routing + sum(math.prod(shape) for block in blocks for _, shape, _ in block.params)
    return ComplexityReport(
        predict_ops=_as_int(predict),
        train_ops=_as_int(train),
        mlp_predict_ops=_as_int(mlp_equiv),
        param_count_formula=_as_int(train),
        param_count_actual=actual,
        density=Fraction(1, k) if spec.kind == "gmlp" else Fraction(1, 1),
        receptive_field_by_layer=rfield,
    )
