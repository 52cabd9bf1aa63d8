"""Network assembly: a compact string grammar for architectures, a seeded
builder, the forward pass, and closed-form complexity accounting.

Architecture strings use the block tokens ``GSel-k-m``, ``GFC``, ``ReLU``,
``BNorm``, ``GPool-kind`` (merging groups in pairs; ``GPool-kind-b`` merges
b), ``Concat``, ``FC-width`` and an optional terminal ``Softmax``. Example::

    GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2, Softmax

A group-connected net must start with ``GSel`` and end with
``Concat, FC-C[, Softmax]``. A string without ``GSel`` describes the plain
dense baseline: it may start with any block but ``GFC``, ``GPool`` and
``Concat``, which it may not use at all, and ends at its last ``FC``.
``Softmax`` marks the probability boundary only: the forward pass always
returns logits and the softmax lives inside the cross-entropy loss.

``parse_arch`` reads a string in one pass: each token takes exactly its
fields, and the pass checks every grammar rule and plans each block as it
reads its token. ``Model`` and ``count_complexity`` read the planned blocks.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import os
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import layers as L
from . import tensor as T
from .errors import ConfigError, DomainError, ShapeError
from .layers import POOL_KINDS, BatchNormState, RoutingParams
from .tensor import Tensor


@dataclass(frozen=True)
class Block:
    """One block of a planned network.

    ``name`` is the block's checkpoint prefix ``block{i}``; ``tag`` and
    ``args`` are the parsed block (``args`` holds a pool's kind and
    branching, or a dense width). ``k`` is the number of groups the block
    reads, 0 in a dense net and after Concat, and ``width`` the values per
    row it reads. ``params`` lists the block's tensors in draw
    order as ``(suffix, shape, init)``: ``init`` is the Xavier
    ``(fan_in, fan_out)`` the tensor is drawn with, or the constant it
    starts at.
    """

    name: str
    tag: str
    args: tuple
    k: int
    width: int
    params: tuple


@dataclass
class ArchSpec:
    """Declarative description of one network: ``blocks`` are the ``Block``s
    after GSel that ``parse_arch`` planned in its one pass, which every model
    built from the spec reads and none changes.
    """

    kind: str  # "gmlp" | "mlp"
    d: int
    n_classes: int
    k: int
    m: int
    branching: int
    blocks: tuple[Block, ...]
    seed: int = 0
    text: str = ""

    @property
    def n_weight_layers(self) -> int:
        """Total depth counted in weight layers: GFC blocks plus the output, or all FC blocks."""
        return sum(1 for b in self.blocks if b.tag in ("gfc", "dense"))


# the tokens that take no argument, and their block tags (Softmax plans none)
_PLAIN_BLOCKS = {"gfc": "gfc", "relu": "relu", "bnorm": "batchnorm", "concat": "concat", "softmax": None}


def parse_arch(text: str, d: int, seed: int = 0) -> ArchSpec:
    """Parse an architecture string in one pass over its tokens: check the grammar and plan each block.

    Every grammar error raises ``ConfigError``. Each token takes exactly its
    fields. GFC, GPool and Concat need groups, which a dense net and the
    blocks after Concat do not have, a group-connected net needs a GFC, and
    every net ends at its output FC: the first FC of a group-connected net,
    the last FC of a dense one. Each block gets its input groups and width
    and its tensors (``Block``) as its token is read.
    ``ArchSpec.branching`` is the merge width of the first pool, 2 without one.
    """
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("empty architecture string")
    if d < 1:
        raise ConfigError(f"need d >= 1, got d={d}")
    kind, k, m = "mlp", 1, 0
    groups, width = 0, d  # of the next block's input
    blocks, output, softmax_seen = [], None, False
    for pos, tok in enumerate(tokens):
        name, *fields = tok.split("-")
        head, i = name.lower(), len(blocks)
        if softmax_seen:
            raise ConfigError(f"token {pos}: nothing may follow Softmax")
        try:
            if head == "gsel":
                if pos != 0:
                    raise ConfigError(f"token {pos}: GSel must come first")
                if len(fields) != 2:
                    raise ConfigError(f"token {pos}: expected GSel-k-m, got {tok!r}")
                kind, k, m = "gmlp", int(fields[0]), int(fields[1])
                if k < 1 or m < 1:
                    raise ConfigError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
                groups, width = k, k * m
                continue
            if head in _PLAIN_BLOCKS:
                if fields:
                    raise ConfigError(f"token {pos}: {name} takes no argument, got {tok!r}")
                tag, args = _PLAIN_BLOCKS[head], ()
            elif head == "gpool":
                if len(fields) > 2:
                    raise ConfigError(f"token {pos}: expected GPool-kind or GPool-kind-b, got {tok!r}")
                pk = fields[0].lower() if fields else "max"
                if pk not in POOL_KINDS:
                    raise ConfigError(f"token {pos}: unknown pool kind {pk!r}")
                tag, args = "pool", (pk, int(fields[1]) if len(fields) > 1 else 2)
            elif head == "fc":
                if len(fields) != 1:
                    raise ConfigError(f"token {pos}: expected FC-width, got {tok!r}")
                tag, args = "dense", (int(fields[0]),)
            else:
                raise ConfigError(f"token {pos}: unknown block {tok!r}")
        except ValueError as exc:
            raise ConfigError(f"token {pos}: cannot parse {tok!r}: {exc}") from exc
        if tag is None:
            softmax_seen = True
            continue
        if kind == "gmlp" and output is not None:
            raise ConfigError(f"block {i}: nothing may follow the output FC")
        if tag in ("gfc", "pool", "concat") and groups == 0:
            raise ConfigError(f"block {i}: {tag} needs groups (none in a dense net or after Concat)")
        block_groups, block_width, params = groups, width, ()
        if tag == "gfc":
            params = (("gfc.weights", (groups, m, m), (m, m)), ("gfc.biases", (groups, m), 0.0))
        elif tag == "pool":
            pk, b = args
            if b < 2 or groups % b != 0:
                raise ConfigError(f"pool cannot merge {groups} groups {b}-way: need b >= 2 dividing {groups}")
            groups //= b
            width = groups * m
            if pk == "linear":
                params = (("pool.weights", (groups, m, b * m), (b * m, m)),)
        elif tag == "concat":
            groups = 0
        elif tag == "dense":
            if kind == "gmlp" and groups != 0:
                raise ConfigError("dense output before concat")
            (out,) = args
            if out < 1:
                raise ConfigError(f"block {i}: FC width must be >= 1, got {out}")
            params = (("dense.w", (width, out), (width, out)), ("dense.b", (out,), 0.0))
            m = m or out  # a dense net's m is its first FC's width
            output, width = i, out
        elif tag == "batchnorm":
            params = (("bn.gamma", (width,), 1.0), ("bn.beta", (width,), 0.0))
        blocks.append(Block(f"block{i}", tag, args, block_groups, block_width, params))
    if output is None:
        raise ConfigError("architecture has no FC output block")
    if output != len(blocks) - 1:
        raise ConfigError(f"block {output + 1}: nothing may follow the output FC")
    if kind == "gmlp" and not any(block.tag == "gfc" for block in blocks):
        raise ConfigError("architecture needs at least one GFC block")
    branching = next((block.args[1] for block in blocks if block.tag == "pool"), 2)
    return ArchSpec(kind, d, width, k, m, branching, tuple(blocks), seed, text)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, out: np.ndarray) -> None:
    """Fill ``out`` with uniform draws from +-sqrt(6 / (fan_in + fan_out)), in place.

    ``rng.uniform(low, high)`` computes ``low + (high - low) * u`` from the
    stream's doubles ``u`` in [0, 1), so writing ``u`` into ``out`` and then
    scaling and shifting it gives the bits of ``rng.uniform(-bound, bound,
    out.shape)`` without a temporary of ``out``'s size.
    """
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng.random(out=out.reshape(-1))
    out *= bound - -bound
    out += -bound


class Model:
    """A built network: routing parameters, an executable block list, and a
    flat named-parameter view for the optimizer, the L2 penalty, and
    checkpointing.

    Every parameter lives in one flat float64 vector (``_flat``), back to
    back in draw order; each named ``Tensor`` is a view of its slot, so
    writing into a parameter writes into the vector and the other way round.
    ``_offsets[i]`` is where ``_params[i]`` starts. Initialization is seeded
    Xavier-uniform: the routing logits with (fan_in=d, fan_out=k*m), then
    each tensor of ``spec.blocks`` in order with the fans or the constant
    that ``parse_arch``'s one pass gave it. Same seed, same bits.
    """

    def __init__(self, spec: ArchSpec):
        self.spec = spec
        self.routing: RoutingParams | None = None
        self._ops = []  # (tag, payload) executed in order by forward()
        self._params: list[tuple[str, Tensor]] = []
        self._bn_states: list[tuple[str, BatchNormState]] = []
        # values per row of the widest activation: the input, a block's input or the logits
        self._widest = max(spec.d, spec.n_classes, *(block.width for block in spec.blocks))
        self._eval_buffers = ()  # the eval executor's chunk buffer pairs, one per worker, made at first use
        rng = np.random.default_rng(spec.seed)

        named = [(f"{b.name}.{suffix}", shape, init) for b in spec.blocks for suffix, shape, init in b.params]
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
            slot = L.prefix(self._flat[offset:], *shape)
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

        for block in spec.blocks:
            tensors = [next(drawn) for _ in block.params]
            if block.tag == "pool":
                payload = (*block.args, tensors[0] if tensors else None)
            elif block.tag == "batchnorm":
                payload = BatchNormState(*tensors, np.zeros(block.width), np.ones(block.width))
                self._bn_states.append((f"{block.name}.bn", payload))
            else:
                payload = tuple(tensors)  # a GFC's or an FC's (weights, biases); () for ReLU and Concat
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

    def forward(self, x: Tensor, training: bool = False, tape=None, mode: str = "relaxed") -> Tensor:
        """Run the block list on a (B, d) batch and return (B, C) logits.

        Training mode runs the blocks' training kernels (``_train_pairs``:
        relaxed routing through psi, or in ``"hard"`` mode the gather of the
        committed routing, and batch moments) and records each as one node on
        ``tape`` if one is given; ``fit`` compiles the same list without a
        tape, in ``training.TRAIN_DTYPE``. Eval mode (prediction) takes no tape and runs only
        the eval executor (``_eval_forward``, which checks the width of
        ``x`` and, chunk by chunk, that its rows are finite in float32), in
        float32 (``EVAL_DTYPE``) into float64 logits: the blocks become
        plain numpy steps (``_eval_steps``), built at each call from the
        current parameters, running moments, routing logits and temperature,
        and run on cache-sized row chunks in flat buffer pairs that the model
        keeps across calls, one pair per worker. The chunks of a
        group-connected net whose routing gathers are shared out among up to
        two of the cores the process may use when each gets at least two
        (``_eval_forward``); the worker threads live for the call. Because the
        buffers belong to the model, one model must not predict from two
        caller threads at once. The hard gather, Group-FC, FC and Group-Pool
        run the forwards of their training kernels, writing into those
        buffers. Hard routing gathers the argmax features of each chunk, as
        does relaxed routing once committed (``RoutingParams.idx``); else it
        multiplies each chunk by the tempered softmax of psi. Each ``GFC|FC,
        ReLU, BNorm`` run with no negative batch-norm scale is folded into one
        affine step and ``max(h, c)`` (see the comment block below the class).
        A batch that is not d wide raises ``ShapeError`` in either mode; a
        tape in eval mode, and a ``mode`` other than ``"relaxed"`` or
        ``"hard"``, raise ``ConfigError``.
        """
        if mode not in ("relaxed", "hard"):
            raise ConfigError(f"unknown group-select mode {mode!r}")
        if not training:
            if tape is not None:
                raise ConfigError("eval mode takes no tape: prediction runs the eval executor")
            return T._raw(self._eval_forward(x.data, mode))
        if x.data.ndim != 2 or x.shape[1] != self.spec.d:
            raise ShapeError(f"input {x.shape} does not match d={self.spec.d}")
        size = self.routing.psi.size if self.routing is not None and mode == "relaxed" else 0
        arrays = [t.data for _, t in self._params]
        pairs = self._train_pairs(arrays, (np.empty(size), np.empty(size)), x.requires_grad, mode == "hard")
        h = x
        for forward, backward, params in pairs:
            h = T.node(tape, (forward, backward), h, *params)
        return h

    def _eval_steps(self, mode: str) -> list:
        """The blocks as numpy steps ``(step, moves)``, each mapping one chunk's activation to the next.

        The first step (``_cast_step``) checks the chunk's rows finite in
        ``EVAL_DTYPE``, copied into a buffer if of another dtype or if the
        next step works in place, and every later step computes in that dtype, on casts of the weights, folds, floors,
        batch-norm ``a, c`` and routing softmax S, computed in float64 at
        each call (S's weights below the dtype's smallest normal set to 0). ``step(h, spare)`` gets
        the activation and the flat buffer that does not hold it. A step that ``moves`` writes its result into ``spare``;
        any other step works in place, in the buffer of ``h``, or returns a
        view of it. Hard Group-Select, Group-FC, FC and Group-Pool steps are
        the forwards of the ``layers`` kernels that training runs
        (``_forward_step``), so grouped activations keep the (k, m, rows)
        layout of training. A committed routing (``RoutingParams.idx``)
        gathers ``idx`` in both modes and computes no softmax: the bits of
        the one-hot product up to the sign of zero (a chosen -0.0 stays
        -0.0, where the product sums it to +0.0). The other steps are
        eval-only: the first step, the relaxed mix of an uncommitted routing, ReLU,
        batch-norm and the folds' floors in place, and Concat as a view. Each
        ``GFC, ReLU, BNorm`` or ``FC, ReLU, BNorm`` run whose batch-norm scale
        is nowhere negative is folded into two steps, and a max Group-Pool
        that follows a folded run runs between them (see the comment block
        below the class).
        """
        dtype = EVAL_DTYPE
        steps = []
        r = self.routing
        if r is not None:
            k, m = r.k, r.m
            if mode == "relaxed" and r.idx is None:
                s = L.routing_weights(r.psi.data, r.temperature, floor=np.finfo(dtype).tiny).astype(dtype, copy=False)
                steps.append((_mix_step(s, k, m), True))
            else:
                steps.append((_forward_step(L.gather_pair(L.hard_assignment(r), k, m)), True))
        ops = self._ops
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
                steps.append((_forward_step(L.group_fc_pair(w.astype(dtype), b.astype(dtype))), True))
            elif tag == "dense":
                w, b = (t.data for t in payload)
                if fold is not None:
                    a, c = fold
                    w, b, floor = w * a, a * b + c, c
                steps.append((_forward_step(L.dense_pair(w.astype(dtype), b.astype(dtype), False)), True))
            elif tag == "relu":
                steps.append((_relu_step, False))
            elif tag == "batchnorm":
                a, c = payload.scale_shift()
                if grouped:
                    a, c = a.reshape(-1, m, 1), c.reshape(-1, m, 1)
                steps.append((_scale_shift_step(a.astype(dtype), c.astype(dtype)), False))
            elif tag == "pool":
                kind, branching, w = payload
                w = None if w is None else w.data.astype(dtype)
                pair = L.linear_pool_pair(branching, w) if kind == "linear" else L.reduce_pool_pair(kind, branching)
                steps.append((_forward_step(pair), True))
            elif tag == "concat":
                grouped = False
                steps.append((_concat_step, False))
            if fold is None:
                i += 1
                continue
            i += 3
            if i < len(ops) and ops[i][0] == "pool" and ops[i][1][0] == "max":
                branching = ops[i][1][1]
                steps.append((_forward_step(L.reduce_pool_pair("max", branching)), True))
                floor = np.maximum.reduce(L.strata(floor, branching), axis=0)
                i += 1
            steps.append((_floor_step(floor.astype(dtype)), False))
        return [(_cast_step(not steps[0][1]), True)] + steps

    def _eval_forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        """Eval-mode logits of (B, d) rows, computed chunk by chunk without a tape.

        Rows of another width raise ``ShapeError``; each chunk's first step
        (``_cast_step``) reads its rows, float32 ones in place and others
        through a cast, and raises ``DomainError`` unless they are finite in
        ``EVAL_DTYPE``. No step writes the caller's rows. The chunks run in
        buffers of ``EVAL_DTYPE`` (made in the dtype of their first call)
        and write their logits into a float64 (B, C) array. A
        group-connected net whose routing gathers (``RoutingParams.idx``, or
        hard mode) splits the chunks of one call into contiguous runs, one
        per core the process may use (``_usable_cores``) up to
        ``MAX_EVAL_WORKERS``, when each run gets at least two chunks;
        otherwise one loop runs them all. Each run steps
        through its chunks in its own buffer pair and writes its own rows of
        the logits, so the logits are the loop's bits at any worker count.
        The caller runs the first run and a thread pool that lives for this
        call runs the others, each thread in a copy of the caller's
        ``contextvars`` context, so a caller's ``np.errstate`` holds in every
        chunk; an exception raised in any run reaches the caller. Why dense
        nets, routing that mixes and short inputs keep the loop, and why two
        workers at most: see the comment block below the class.
        """
        if x.ndim != 2 or x.shape[1] != self.spec.d:
            raise ShapeError(f"input {x.shape} does not match d={self.spec.d}")
        steps = self._eval_steps(mode)
        rows = _chunk_rows(self._widest)
        out = np.empty((x.shape[0], self.spec.n_classes))
        starts = range(0, x.shape[0], rows)
        one_loop = self.routing is None or (mode == "relaxed" and self.routing.idx is None)
        workers = 1 if one_loop else max(1, min(_usable_cores(), MAX_EVAL_WORKERS, len(starts) // 2))
        size = rows * self._widest
        for _ in range(len(self._eval_buffers), workers):
            self._eval_buffers += ((_flat_buffer(size, EVAL_DTYPE), _flat_buffer(size, EVAL_DTYPE)),)
        if workers == 1:
            _run_chunks(steps, x, out, rows, starts, self._eval_buffers[0])
            return out
        from concurrent.futures import ThreadPoolExecutor  # imported here: most processes never split

        runs = [starts[len(starts) * i // workers : len(starts) * (i + 1) // workers] for i in range(workers)]
        args = [(steps, x, out, rows, run, buffers) for run, buffers in zip(runs, self._eval_buffers)]
        with ThreadPoolExecutor(workers - 1) as pool:
            # each thread runs in a copy of the caller's context, so np.errstate holds there too
            futures = [pool.submit(contextvars.copy_context().run, _run_chunks, *a) for a in args[1:]]
            _run_chunks(*args[0])
            for future in futures:
                future.result()
        return out

    def _train_pairs(self, arrays, scratch, input_grad: bool, hard: bool = False, candidates=None) -> list:
        """The blocks' training kernels as ``(forward, backward, params)``, in block order.

        ``forward`` and ``backward`` are the block's ``layers`` pair, and
        ``params`` the tensors whose gradients ``backward`` returns after the
        input's, and ``arrays`` what they capture, one per parameter in order.
        Group-Select keeps its routing weights and psi's gradient term in
        ``scratch``, flat buffers of psi's size;
        with ``candidates`` = (cols, psi_c) it trains the array psi_c
        (``layers.select_pair``); if ``hard``, it is the gather of
        ``layers.hard_assignment``, which trains nothing and reads no
        ``scratch``. Batch-norm folds the batch
        moments into the running moments in its forward. A first
        Group-Select or FC computes its input's gradient only if ``input_grad``.
        """
        pairs = []
        r = self.routing
        if r is not None and hard:
            pairs.append((*L.gather_pair(L.hard_assignment(r), r.k, r.m), []))
        elif r is not None:
            trained = r.psi if candidates is None else candidates[1]
            pairs.append((*L.select_pair(r, scratch, input_grad, candidates), [trained]))
        grouped = r is not None
        drawn = iter(arrays[1:] if r is not None else arrays)  # psi is the first parameter
        for (tag, payload), block in zip(self._ops, self.spec.blocks):
            a = [next(drawn) for _ in block.params]
            if tag == "gfc":
                pairs.append((*L.group_fc_pair(*a), list(payload)))
            elif tag == "dense":
                pairs.append((*L.dense_pair(*a, input_grad or bool(pairs)), list(payload)))
            elif tag == "relu":
                pairs.append((*L.RELU_PAIR, []))
            elif tag == "batchnorm":
                pairs.append((*L.batchnorm_pair(payload, *a, grouped), [payload.gamma, payload.beta]))
            elif tag == "pool":
                kind, branching, w = payload
                if kind == "linear":
                    pairs.append((*L.linear_pool_pair(branching, *a), [w]))
                else:
                    pairs.append((*L.reduce_pool_pair(kind, branching), []))
            elif tag == "concat":
                grouped = False
                pairs.append((*L.CONCAT_PAIR, []))
        return pairs


# ---------------------------------------------------------------------------
# eval-mode steps
#
# A chunk's widest activation holds about CHUNK_BYTES (1 MiB) of EVAL_DTYPE,
# so the chunk's buffer pair, 2 MiB, stays in a core's L2 cache (2 MiB on the
# 2-core Xeon the figures here come from) from one step to the next: 256 rows
# of a 1,024-wide net in float32, 128 in float64. The budget is in bytes, not
# values, so float32 chunks are twice as long as float64 ones. Each chunk pays
# a fixed cost for its steps' numpy calls, 45-70 us for a trained W2 (1-row
# chunks, one core), and the two workers' calls take turns at the GIL between
# kernels. On one worker, 4,096-row W2 calls took as long with 128-row
# (512 KiB) chunks as with 256-row ones (median 20.5 against 20.4 ms); on two,
# 256-row chunks were faster in 46 of 60 alternating calls (13.4 against
# 14.9 ms), and with the two-operand pool (``layers.reduce_pool_pair``) they
# took the benchmark's W2 hard prediction from 280k to 339k rows/s (medians of
# 10 pairs). 512-row chunks, a 4 MiB pair that spills out of L2, were slower
# in 53 of 60 alternating calls on one worker and on two (median 22.6 against
# 21.2 and 26.5 against 21.4 ms). The row count is held within
# [MIN_CHUNK_ROWS, MAX_CHUNK_ROWS]: below about 128 rows the matrix products
# of 1,024-wide layers lose efficiency, and above a few thousand rows even
# narrow nets spill out of cache.
#
# Every chunk's activations live in a pair of flat buffers that the model
# keeps from call to call (``Model._eval_buffers``, one pair per worker, made
# by ``_flat_buffer``), each one full chunk of the widest activation. A step
# that needs a new array writes into the buffer that does not hold its input,
# as a view of its contiguous prefix (``layers.prefix``; a tail chunk uses a
# shorter prefix), and the two swap roles. A fresh array per step and chunk would
# cost page faults whenever the allocator has handed the last one back to
# the system, and its speed would depend on the allocator's history. The
# hard gather, Group-FC, FC and Group-Pool steps are the training kernels'
# forwards, given that buffer; only a linear Group-Pool still allocates, for
# the side-by-side strata of each chunk. Because the buffers belong to the
# model, one model's eval path is not re-entrant: two caller threads must not
# predict with the same model at once.
#
# Workers: a group-connected net whose routing gathers (hard routing, or
# relaxed routing once committed) runs per chunk a gather, many
# small per-group products and elementwise passes, none of which BLAS
# threads, so one loop keeps one core busy. ``_eval_forward`` shares such a
# call's chunks out among up to MAX_EVAL_WORKERS of the cores the process may
# use, one buffer pair per worker; on a 2-core machine W2's hard prediction
# of 4,096 rows went from 116k to 157k rows/s in float64, and from 271k to
# 342k in float32 (benchmark medians, 4 alternating pairs). Three
# conditions keep the one loop. A dense net's products are large, and BLAS
# already runs them on its own threads: splitting the chunks of W2's dense
# twin made its median call slower (142-153 against 146-174 ms). The same
# holds for relaxed routing that is not committed, as before ``fit``'s hard phase:
# its product with psi's softmax (1,024 x 784 by 784 x 256 per float32 W2 chunk) is
# most of the chunk's work, and splitting a 4,096-row W2 call at tau 0.1 and
# at tau 1 made it slower (median 131 and 130 against 119 and 121 ms). And
# each worker must get at least two chunks, since a thread pool costs about
# 0.2 ms a call: splitting the two 2,048-row chunks of a 4,096-row
# synth-small call took it from 0.37-0.54 to 0.57-0.74 ms. So ``fit``'s scoring of a small validation set, and a process pinned
# to one core, run the loop. Only two workers were measured, on a 2-core
# machine; the chunks' many small numpy calls hold the GIL between their
# kernels, so more threads would contend for it, and each would keep a
# 2 MiB buffer pair on the model. Hence the cap of two.
#
# Batch-norm fold: eval batch-norm is a*h + c, with (a, c) from
# ``BatchNormState.scale_shift``, and for a >= 0, a*relu(y) + c equals
# max(a*y + c, c). So an affine step y = W h + b followed by ReLU and
# batch-norm becomes one affine step with weights a*W (row-scaled) and bias
# a*b + c, and one in-place ``np.maximum(h, c)``: the ReLU pass and both
# batch-norm passes collapse into one. The fold is computed at each call
# from the current parameters. A block with any negative scale, and any
# batch-norm that does not follow an affine step and ReLU, keeps the plain
# steps: the affine step, ReLU, and a*h + c in place. A max Group-Pool after a
# folded Group-FC runs before the floor, which becomes the strata's max of c
# and runs on the pooled width: max_t max(y_t, c_t) = max(max_t y_t, max_t c_t),
# up to the sign of zero.
#
# Precision: the executor computes in EVAL_DTYPE, float32, on casts of the
# float64 parameters and folds; training reads none of them (it keeps its own
# float32 mirror, training.TRAIN_DTYPE). A Dataset's
# rows are float32, so the first step only tests a chunk of them finite and
# hands the gather or first FC a view of them: the cast of float64 rows had
# been W2's costliest step, about 30% of a 4,096-row call. Other rows, and rows
# whose next step works in place, are cast into a buffer in one pass (cheaper
# than a float64 -> float32 np.take in the gather, 3.5-3.9 against 9.2-9.8 ms).

CHUNK_BYTES = 2**20
EVAL_DTYPE = np.float32
MIN_CHUNK_ROWS = 128
MAX_CHUNK_ROWS = 2048
MAX_EVAL_WORKERS = 2


def _chunk_rows(widest: int) -> int:
    """Rows per chunk for a net whose widest activation has ``widest`` values per row.

    As many rows as fit ``CHUNK_BYTES`` of ``EVAL_DTYPE`` at that width, held
    within [MIN_CHUNK_ROWS, MAX_CHUNK_ROWS]: 256 rows for a 1,024-wide net in
    float32 and 128 in float64.
    """
    per_row = np.dtype(EVAL_DTYPE).itemsize * widest
    return min(MAX_CHUNK_ROWS, max(MIN_CHUNK_ROWS, CHUNK_BYTES // per_row))


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(steps: list, x: np.ndarray, out: np.ndarray, rows: int, starts, buffers) -> None:
    """Run ``steps`` on the chunks of ``x`` that begin at ``starts``, in one buffer pair, into ``out``."""
    for start in starts:
        h = x[start : start + rows]
        spare, other = buffers
        for step, moves in steps:
            h = step(h, spare)
            if moves:
                spare, other = other, spare
        out[start : start + rows] = h


def _flat_buffer(size: int, dtype=np.float64) -> np.ndarray:
    """``size`` values of ``dtype`` in an anonymous memory map of their own.

    The eval executor's chunk buffers are ``EVAL_DTYPE``, training's float64 or ``TRAIN_DTYPE``.
    A long-lived array from the malloc heap keeps the heap from shrinking
    back past it, so the memory of arrays freed below it stays resident: two
    1 MiB ``np.empty`` buffers per model raised the benchmark's peak RSS on
    ``wide-784`` by about 23 MB; in maps of their own they left it unchanged.
    """
    return np.frombuffer(mmap.mmap(-1, np.dtype(dtype).itemsize * size), dtype=dtype)


def _cast_step(copy: bool):
    """The rows, cast into ``spare`` if ``copy`` or of another dtype; non-finite ones raise ``DomainError``."""

    def step(x, spare):
        out = x
        if copy or x.dtype != spare.dtype:
            out = L.prefix(spare, *x.shape)
            with np.errstate(over="ignore"):  # reported below, whatever the caller's error state
                out[...] = x
        if not np.isfinite(out).all():
            raise DomainError(f"input holds NaN, an infinity or a value beyond the {spare.dtype} range")
        return out

    return step


def _mix_step(s: np.ndarray, k: int, m: int):
    """Relaxed Group-Select: S @ x.T for the routing softmax S."""

    def step(x, spare):
        return np.matmul(s, x.T, out=L.prefix(spare, s.shape[0], x.shape[0])).reshape(k, m, -1)

    return step


def _forward_step(pair):
    """A ``layers`` kernel's forward as an eval step: its output, written into ``spare``."""
    forward = pair[0]

    def step(h, spare):
        return forward(h, spare)[0]

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


# ---------------------------------------------------------------------------
# complexity accounting


@dataclass
class ComplexityReport:
    predict_ops: int
    train_ops: int
    mlp_predict_ops: int
    predict_macs_actual: int
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


# the tensors a prediction multiplies each row by, once per weight
_WEIGHT_MATRICES = ("gfc.weights", "dense.w", "pool.weights")


def count_complexity(spec: ArchSpec) -> ComplexityReport:
    """Closed-form cost figures for a spec, next to exact counts.

    The series values are idealized (width halves between consecutive weight
    layers); ``param_count_actual`` counts the routing logits and every
    tensor of ``spec.blocks`` (planned in ``parse_arch``'s one pass), biases
    and batch-norm included. ``predict_macs_actual`` is the multiply-adds per
    row of hard-routed prediction: one per weight of each Group-FC, FC and
    linear Group-Pool in ``spec.blocks``. The hard gather, max and mean
    pooling, biases, ReLU and batch-norm (which the eval executor folds into
    the affine step before it, where it can) add none.
    """
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
    shapes = [(suffix, shape) for block in spec.blocks for suffix, shape, _ in block.params]
    actual = routing + sum(math.prod(shape) for _, shape in shapes)
    macs = sum(math.prod(shape) for suffix, shape in shapes if suffix in _WEIGHT_MATRICES)
    return ComplexityReport(
        predict_ops=_as_int(predict),
        train_ops=_as_int(train),
        mlp_predict_ops=_as_int(mlp_equiv),
        predict_macs_actual=macs,
        param_count_actual=actual,
        density=Fraction(1, k) if spec.kind == "gmlp" else Fraction(1, 1),
        receptive_field_by_layer=rfield,
    )
