"""The network's layer vocabulary: Group-Select, Group-FC, Group-Pool, plus
the supporting Dense / BatchNorm / ReLU / Concat blocks.

Shapes follow one convention throughout: a batch of inputs is (B, d), grouped
activations are (k, m, B) with k the current group count, m the group size
and the batch last, and the routing logits are (k*m, d) — row i*m+j holds the
logits of slot j of group i over the d input features. Batch-last storage
makes a group's slots for the whole batch one contiguous block, so Group-FC
is a batched matrix product and pooling and batch-norm reduce contiguous
memory. Group-Select turns (B, d) into (k, m, B); Concat turns (k, m, B)
back into (B, k*m) for the dense tail.

The routing lives here too: ``routing_weights``, the row softmax of psi
at a temperature that every relaxed path computes (the training step, the
eval executor and ``analysis``), with its flush of subnormal weights;
``hard_assignment``, the slots' features; ``pin_routing``, which commits them;
and ``write_candidates``, which writes a trained candidate block back into psi.

Each block's training forward and backward is written once, as a kernel:
a ``*_pair`` factory, or the constant ``RELU_PAIR`` and ``CONCAT_PAIR``,
gives ``(forward, backward)``: ``forward(x)`` returns the output and what
the backward reads, and ``backward(g, saved)`` the gradient of the input
(None where nothing reads it), then of each parameter. ``Model._train_pairs``
lists the pairs of a model's blocks, which ``Model.forward`` records on a
tape and the compiled training step runs without one; the training
objective that follows them is one kernel of ``training``. Group-Select
has two kernels: the relaxed ``select_pair``, differentiable in the routing
logits, and the hard ``gather_pair``, which training runs once the routing
is committed (its hard phase). The forwards of the hard gather, Group-FC,
FC and Group-Pool take an optional flat buffer and write their output into
its contiguous prefix (``prefix``); without one, numpy allocates. Training
passes none, and the eval executor in ``model`` runs these forwards on its
chunk buffers, next to eval-only steps of its own: the relaxed mix and the
in-place ReLU and batch-norm.
The layer functions (``*_forward(tape, ...)``, ``concat_groups``) check
their operands and record one pair as one tape node; no code of the
package calls them, and they are kept for the tests and for the
benchmark's tracer, which times layers by these names.
Parameters are captured as arrays, views of the model's flat vector that
the optimizer updates in place. Sums call ``np.add.reduce``, the reduction
behind ``ndarray.sum``, without its Python wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, ShapeError
from .tensor import Tensor

POOL_KINDS = ("max", "mean", "linear")


@dataclass
class RoutingParams:
    """Real-valued routing logits plus the current softmax temperature.

    The binary slot-to-feature assignment is reparameterized by ``psi``: the
    relaxed routing matrix is the row-wise softmax of psi at ``temperature``,
    and the hard assignment is the per-row argmax, held in ``idx`` once
    committed (by ``pin_routing`` or a load whose softmax is one-hot; else
    None). A committed routing predicts by gathering ``idx`` in both modes at
    every temperature; nothing may write psi until ``fit`` un-commits it.
    """

    psi: Tensor
    temperature: float
    k: int
    m: int
    d: int
    idx: np.ndarray | None = None

    def __post_init__(self):
        if self.psi.shape != (self.k * self.m, self.d):
            raise ShapeError(
                f"psi shape {self.psi.shape} != (k*m, d) = {(self.k * self.m, self.d)}"
            )
        if not self.temperature > 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


TINY = np.finfo(np.float64).tiny
# exp(z) < TINY for every float64 z below this bound: log(TINY) rounds to a
# float64 2.7e-14 above the exact logarithm, so exp of the next float64 below
# it lies 388 ulps under TINY, and exp of the bound itself 124 ulps over
EXP_NORMAL_MIN = float(np.log(TINY))


def routing_weights(psi: np.ndarray, temperature: float, out: np.ndarray | None = None) -> np.ndarray:
    """The row softmax of psi at the temperature, with subnormal weights set to 0.

    Computed in one array, ``out`` if given, by max-subtraction, so it stays
    finite down to very low temperatures. A weight below the smallest normal
    float64 moves a mixed value by less than 2.3e-308 times an input, and
    subnormal operands slow BLAS products many times over.

    With z = psi/tau - rowmax and tiny the smallest normal float64, an
    entry with z below ``EXP_NORMAL_MIN`` = log(tiny) has exp(z) < tiny,
    so its weight exp(z)/S, the row sum S being at least 1, is flushed to
    0. Such entries skip ``exp`` and are set to 0, since numpy's exp runs
    10 to 100 times slower where its results are subnormal or underflow,
    as for every entry but the argmax of a row ``pin_routing`` committed.
    The subnormal terms this leaves out of S sum to less than d*tiny, far
    below half an ulp of S; the tests compare the weights bit for bit with
    the plain softmax. One reduction, the minimum of z, keeps the common
    case, where no entry is that low, on one unmasked ``exp``.
    """
    if not temperature > 0.0:
        raise DomainError(f"softmax temperature must be positive, got {temperature}")
    s = np.divide(psi, temperature, out=out)
    s -= np.maximum.reduce(s, axis=1, keepdims=True)
    if np.minimum.reduce(s, axis=None) < EXP_NORMAL_MIN:
        keep = s >= EXP_NORMAL_MIN
        np.exp(s, out=s, where=keep)
        np.copyto(s, 0.0, where=~keep)
    else:
        np.exp(s, out=s)
    s /= np.add.reduce(s, axis=1, keepdims=True)
    s[s < TINY] = 0.0
    return s


# the weight of a batch's moments in the running moments, and the term added to the variance
BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5


@dataclass
class BatchNormState:
    """Trainable scale/shift plus running moments for one normalized width."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode batch-norm as a*x + c: a = gamma/sqrt(var + eps), c = beta - mean*a.

        Computed from the current parameters and running moments, for the
        eval executor of ``Model.forward``.
        """
        a = self.gamma.data * (1.0 / np.sqrt(self.running_var + BN_EPSILON))
        return a, self.beta.data - self.running_mean * a


def hard_assignment(routing: RoutingParams) -> np.ndarray:
    """The committed ``idx``, else each row's argmax of psi; ties break toward the lowest feature index."""
    return routing.psi.data.argmax(axis=1) if routing.idx is None else routing.idx


# a pinned routing row's chosen logit leads every other by this many
# temperatures, so exp underflows to 0 for every other column and the row's
# softmax at that temperature is exactly one-hot
PIN_TEMPERATURES = 1000.0


def pin_routing(routing: RoutingParams, tau: float) -> None:
    """Commit the routing to its argmax (``idx``); raise each row's argmax logit by ``PIN_TEMPERATURES * tau``.

    The row's argmax does not change, and the softmax at temperature tau
    (or below) is then exactly one-hot: every other weight underflows to
    0, so a checkpoint of psi at tau loads committed to the same ``idx``.
    """
    psi = routing.psi.data
    routing.idx = psi.argmax(axis=1)
    psi[np.arange(psi.shape[0]), routing.idx] += PIN_TEMPERATURES * tau


def select_pair(routing: RoutingParams, scratch, input_grad: bool, candidates=None):
    """Relaxed Group-Select, (B, d) -> (k, m, B): S @ x.T with S = ``routing_weights(psi, tau)``.

    The temperature tau is read at each forward call. S lives in ``scratch[0]``
    from forward to backward, and psi's gradient, S*(g @ x - rowdot)/tau
    with rowdot = sum_b g_ib out_ib read off the output, is formed in
    ``scratch[1]``: two arrays of psi's size. x's gradient, g.T @ S, is
    computed only if ``input_grad``. With ``candidates`` = (cols, psi_c),
    the pair trains psi_c instead, the (k*m, K) logits of columns cols of
    psi: its softmax is put at cols into S, whose other entries must be 0,
    and its gradient is the same expression gathered at cols.
    """
    psi = routing.psi.data
    s, gs = (buf.reshape(psi.shape) for buf in scratch)
    k, m = routing.k, routing.m
    if candidates is not None:
        cols, psi_c = candidates
        at = (cols + np.arange(0, psi.size, psi.shape[1])[:, None]).reshape(-1)  # flat indices in S
        s_c = np.empty(psi_c.shape)

    def forward(x):
        tau = routing.temperature
        if candidates is None:
            routing_weights(psi, tau, out=s)
        else:
            s.put(at, routing_weights(psi_c, tau, out=s_c))
        out = s @ x.T
        return out.reshape(k, m, -1), (x, out, tau)

    def backward(g, saved):
        x, out, tau = saved
        g = g.reshape(out.shape)
        term = np.matmul(g, x, out=gs)
        if candidates is not None:
            term = gs.take(at).reshape(s_c.shape)
        term -= np.einsum("ij,ij->i", g, out)[:, None]
        term *= s if candidates is None else s_c
        term /= tau
        return (g.T @ s if input_grad else None), term

    return forward, backward


def write_candidates(routing: RoutingParams, cols: np.ndarray, psi_c: np.ndarray, tau=None) -> None:
    """Write psi_c, the logits of psi's columns cols, back into psi, and fill each row's other logits.

    With tau, the fill is the row's max minus ``PIN_TEMPERATURES * tau``:
    psi's softmax at tau (or below) is then exactly 0 outside cols and
    psi_c's softmax at cols, and psi's argmax is a candidate. Without tau,
    for ``pin_routing`` to commit next, it is the row's least candidate
    logit, so psi's L2 stays of the candidates' scale, and the argmax is a
    candidate unless all of the row's candidates tie.
    """
    psi = routing.psi.data
    if tau is None:
        psi[...] = np.minimum.reduce(psi_c, 1, keepdims=True)
    else:
        psi[...] = np.maximum.reduce(psi_c, 1, keepdims=True) - PIN_TEMPERATURES * tau
    np.put_along_axis(psi, cols, psi_c, 1)


def gather_pair(idx: np.ndarray, k: int, m: int):
    """Hard Group-Select, (B, d) -> (k, m, B): x.T[idx], slot i reading feature idx[i] of every row.

    The routing is committed, so the backward computes no gradient, to psi
    or to x. The training step of the hard phase and the eval executor run
    this forward; with a flat buffer it writes into the buffer's prefix.
    """

    def forward(x, buf=None):
        # idx comes from an argmax, so in range; "clip" spares numpy's buffered copy
        out = np.take(x.T, idx, axis=0, out=prefix(buf, idx.size, x.shape[0]), mode="clip")
        return out.reshape(k, m, -1), None

    def backward(g, saved):
        return (None,)

    return forward, backward


def group_select_forward(tape, x: Tensor, routing: RoutingParams) -> Tensor:
    """Relaxed Group-Select of (B, d) inputs into (k, m, B) feature groups, as one node.

    Mixes features through the tempered row softmax of psi; differentiable
    in psi. ``Model.forward`` runs hard routing through ``gather_pair``.
    """
    if x.data.ndim != 2 or x.shape[1] != routing.d:
        raise ShapeError(f"input {x.shape} does not match d={routing.d}")
    scratch = (np.empty(routing.psi.shape), np.empty(routing.psi.shape))
    return T.node(tape, select_pair(routing, scratch, x.requires_grad), x, routing.psi)


def prefix(buf: np.ndarray | None, *shape: int) -> np.ndarray | None:
    """The contiguous prefix of flat buffer ``buf``, shaped; None without a buffer, so numpy allocates."""
    return None if buf is None else buf[: math.prod(shape)].reshape(shape)


def group_fc_pair(w: np.ndarray, b: np.ndarray):
    """Group-FC: out[i] = w[i] @ z[i] + b[i][:, None], one batched matmul over the groups."""

    def forward(z, buf=None):
        out = np.matmul(w, z, out=prefix(buf, *w.shape[:2], z.shape[2]))
        out += b[:, :, None]
        return out, z

    def backward(g, z):
        dz = np.matmul(w.transpose(0, 2, 1), g)
        return dz, np.matmul(g, z.transpose(0, 2, 1)), np.add.reduce(g, 2)

    return forward, backward


def group_fc_forward(tape, z: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Apply each group's private affine map; there are no cross-group weights.

    z is (k, m, B), w the (k, q, m) stack of per-group weights and b the
    (k, q) stack of biases.
    """
    fits = z.data.ndim == 3 and w.data.ndim == 3 and (w.shape[0], w.shape[2]) == z.shape[:2]
    if not fits or b.shape != w.shape[:2]:
        raise ShapeError(f"group FC: z {z.shape}, w {w.shape} and b {b.shape} do not fit")
    return T.node(tape, group_fc_pair(w.data, b.data), z, w, b)


def strata(h: np.ndarray, branching: int) -> np.ndarray:
    """(k, m, B) as (b, k/b, m, B): stratum t of output group i is input group t*k/b + i.

    So for branching=2 group i merges with group i + k/2, and each stratum is
    one contiguous block of the input.
    """
    k, m, n = h.shape
    return h.reshape(branching, k // branching, m, n)


def reduce_pool_pair(kind: str, branching: int):
    """Max or mean Group-Pool, elementwise over each set of b groups.

    The forward folds the strata in order with one two-operand ufunc,
    ``np.maximum`` or ``np.add`` (then divides by b for mean), into the
    output: the bits of ``np.max`` or ``np.mean`` over the stacked axis, which
    fold in the same order, signed zeros and NaN included, in less of their
    time (a 2-way pool of a 256-row float32 W2 chunk on one core: max 23-26
    against 36-40 us, mean 93-97 against 259-285 us). Max sends each output's
    gradient to the lowest stratum that attains it, found only when the
    backward pass runs.
    """
    fold = np.maximum if kind == "max" else np.add

    def forward(z, buf=None):
        zs = strata(z, branching)
        out = fold(zs[0], zs[1], out=prefix(buf, *zs.shape[1:]))
        for t in range(2, branching):
            fold(out, zs[t], out=out)
        if kind == "mean":
            out /= branching
            out += 0.0  # np.add.reduce starts from +0.0, so strata all -0.0 give +0.0
        return out, (zs, out)

    def backward(g, saved):
        zs, out = saved
        if kind == "mean":
            dz = np.ascontiguousarray(np.broadcast_to(g / branching, zs.shape))
        else:
            dz = np.empty(zs.shape)
            free = np.ones(out.shape, dtype=bool)
            for t in range(branching):
                hit = zs[t] == out
                hit &= free
                free &= ~hit
                np.multiply(g, hit, out=dz[t])
        return (dz.reshape(-1, *dz.shape[2:]),)

    return forward, backward


def linear_pool_pair(branching: int, w: np.ndarray):
    """Linear Group-Pool: each set's b*m stacked slots times its private (q x b*m) map, no bias."""

    def forward(z, buf=None):
        zs = strata(z, branching)
        b, kb, m, n = zs.shape
        cat = np.ascontiguousarray(zs.transpose(1, 0, 2, 3)).reshape(kb, b * m, n)
        return np.matmul(w, cat, out=prefix(buf, kb, w.shape[1], n)), cat

    def backward(g, cat):
        gw = np.matmul(g, cat.transpose(0, 2, 1))
        dcat = np.matmul(w.transpose(0, 2, 1), g)
        kb, bm, n = cat.shape
        m = bm // branching
        dz = dcat.reshape(kb, branching, m, n).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(dz).reshape(-1, m, n), gw

    return forward, backward


def group_pool_forward(
    tape,
    z: Tensor,
    kind: str,
    branching: int = 2,
    params: Tensor | None = None,
) -> Tensor:
    """Merge each set of ``branching`` groups into one, (k', m, B) -> (k'/b, m, B).

    Output group i aggregates input groups {i + t*k'/b : t = 0..b-1}; for the
    binary case that is the pairing of group i with group i + k'/2. ``max``
    and ``mean`` aggregate elementwise; ``linear`` applies a learned
    (m x b*m) map private to each merged set (``params``, shape
    (k'/b, m, b*m), no bias) to the set's b*m stacked slots.
    """
    if kind not in POOL_KINDS:
        raise ConfigError(f"unknown pool kind {kind!r}; expected one of {POOL_KINDS}")
    if z.data.ndim != 3 or branching < 2 or z.shape[0] % branching:
        raise ShapeError(f"pool cannot merge {z.shape} groups {branching}-way")
    if kind != "linear":
        return T.node(tape, reduce_pool_pair(kind, branching), z)
    if params is None:
        raise ConfigError("linear pooling requires its weight tensor")
    k, m = z.shape[0] // branching, z.shape[1]
    if params.data.ndim != 3 or (params.shape[0], params.shape[2]) != (k, branching * m):
        raise ShapeError(f"linear pool: weights {params.shape} do not fit {z.shape}, {branching}-way")
    return T.node(tape, linear_pool_pair(branching, params.data), z, params)


def _layout(grouped: bool):
    """(batch axis, shape of a per-feature column) of a (B, F) or a flattened (k*m, B) activation."""
    return (1, (-1, 1)) if grouped else (0, (-1,))


def batchnorm_pair(state: BatchNormState, grouped: bool):
    """Training-mode batch-norm of (B, F) rows, or of (k, m, B) groups per slot.

    Normalizes by the batch moments (biased variance) and folds them into
    the running moments in place, at weight ``BN_MOMENTUM``; a batch of one
    row raises ``DomainError``.
    """
    momentum, eps = BN_MOMENTUM, BN_EPSILON
    axis, col = _layout(grouped)
    gamma, beta = state.gamma.data, state.beta.data.reshape(col)

    def forward(h):
        xf = h.reshape(-1, h.shape[2]) if grouped else h
        n = xf.shape[axis]
        if n < 2:
            raise DomainError("batchnorm in training mode needs a batch of at least 2")
        mean = np.add.reduce(xf, axis)
        mean /= n
        xc = xf - mean.reshape(col)
        var = np.add.reduce(np.square(xc), axis)
        var /= n
        state.running_mean *= 1.0 - momentum
        state.running_mean += momentum * mean
        state.running_var *= 1.0 - momentum
        state.running_var += momentum * var
        invstd = 1.0 / np.sqrt(var + eps)
        xhat = xc * invstd.reshape(col)
        out = xhat * gamma.reshape(col)
        out += beta
        return out.reshape(h.shape), (xhat, invstd)

    def backward(g, saved):
        xhat, invstd = saved
        n = xhat.shape[axis]
        gf = g.reshape(xhat.shape)
        dbeta = np.add.reduce(gf, axis)
        dgamma = np.add.reduce(gf * xhat, axis)
        dx = (gamma * invstd).reshape(col) * (
            gf - (dbeta / n).reshape(col) - xhat * (dgamma / n).reshape(col)
        )
        return dx.reshape(g.shape), dgamma, dbeta

    return forward, backward


def batchnorm_forward(tape, x: Tensor, state: BatchNormState) -> Tensor:
    """Training-mode batch-norm of dense (B, F) or grouped (k, m, B) activations, per feature or slot.

    A grouped input's gamma, beta and running moments are (k*m,) vectors in
    group-major order.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"batchnorm expects (B, F) or (k, m, B), got {x.shape}")
    features = x.shape[1] if x.data.ndim == 2 else x.shape[0] * x.shape[1]
    if state.gamma.size != features:
        raise ShapeError(f"batchnorm: {state.gamma.size} features for input {x.shape}")
    return T.node(tape, batchnorm_pair(state, x.data.ndim == 3), x, state.gamma, state.beta)


def _relu_forward(h):
    return np.maximum(h, 0.0), h


def _relu_backward(g, h):
    return (g * (h > 0.0),)


# ReLU, max(h, 0); its subgradient at 0 is 0
RELU_PAIR = (_relu_forward, _relu_backward)


# source rows per block when transposing a large array
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


def _concat_forward(h):
    """(k, m, B) -> (B, k*m) as a new C-contiguous array."""
    return _transposed(h.reshape(-1, h.shape[2])), h.shape


def _concat_backward(g, shape):
    return (_transposed(g).reshape(shape),)


CONCAT_PAIR = (_concat_forward, _concat_backward)


def concat_groups(tape, z: Tensor) -> Tensor:
    """Flatten (k', m, B) to (B, k'*m), group-major: column i*m+j is slot j of group i."""
    if z.data.ndim != 3:
        raise ShapeError(f"concat_groups expects (k, m, B), got {z.shape}")
    return T.node(tape, CONCAT_PAIR, z)


def dense_pair(w: np.ndarray, b: np.ndarray, input_grad: bool):
    """FC: h (B, p) @ w (p, q) + b (q,); h's gradient is computed only if ``input_grad``."""

    def forward(h, buf=None):
        out = np.matmul(h, w, out=prefix(buf, h.shape[0], w.shape[1]))
        out += b
        return out, h

    def backward(g, h):
        return (g @ w.T if input_grad else None), h.T @ g, np.add.reduce(g, 0)

    return forward, backward


def dense_forward(tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully-connected layer: x (B, p) @ w (p, q) + b (q,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"dense: x {x.shape}, w {w.shape} and b {b.shape} do not fit")
    return T.node(tape, dense_pair(w.data, b.data, x.requires_grad), x, w, b)
