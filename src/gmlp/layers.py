"""The network's layer vocabulary: Group-Select, Group-FC, Group-Pool, plus
the supporting Dense / BatchNorm / Dropout / ReLU / Concat blocks.

Shapes follow one convention throughout: a batch of inputs is (B, d), grouped
activations are (k, m, B) with k the current group count, m the group size
and the batch last, and the routing logits are (k*m, d) — row i*m+j holds the
logits of slot j of group i over the d input features. Batch-last storage
makes a group's slots for the whole batch one contiguous block, so Group-FC
is a batched matrix product and pooling and batch-norm reduce contiguous
memory. Group-Select turns (B, d) into (k, m, B); Concat turns (k, m, B)
back into (B, k*m) for the dense tail.

Each block's training forward and backward is written once, as a kernel:
a ``*_pair`` factory, or the constant ``RELU_PAIR`` and ``CONCAT_PAIR``,
gives ``(forward, backward)`` as ``tensor`` describes. ``Model._train_pairs``
lists the pairs of a model's blocks, which ``Model.forward`` records on a
tape and the compiled training step runs without one; the training
objective that follows them is one kernel of ``training``. Prediction does
not use these kernels: the eval executor in ``model`` runs its own chunked
steps. The layer functions (``*_forward(tape, ...)``, ``concat_groups``)
check their operands and record one pair as one tape node; no code of the
package calls them, and they are kept for the tests and for the
benchmark's tracer, which times layers by these names.
Parameters are captured as arrays, views of the model's flat vector that
the optimizer updates in place. Sums call ``np.add.reduce``, the reduction
behind ``ndarray.sum``, without its Python wrapper.
"""

from __future__ import annotations

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
    and the hard assignment is the per-row argmax.
    """

    psi: Tensor
    temperature: float
    k: int
    m: int
    d: int

    def __post_init__(self):
        if self.psi.shape != (self.k * self.m, self.d):
            raise ShapeError(
                f"psi shape {self.psi.shape} != (k*m, d) = {(self.k * self.m, self.d)}"
            )
        if not self.temperature > 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


@dataclass
class BatchNormState:
    """Trainable scale/shift plus running moments for one normalized width."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5

    @classmethod
    def create(cls, num_features: int) -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(num_features), requires_grad=True),
            beta=Tensor(np.zeros(num_features), requires_grad=True),
            running_mean=np.zeros(num_features),
            running_var=np.ones(num_features),
        )

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode batch-norm as a*x + c: a = gamma/sqrt(var + eps), c = beta - mean*a.

        Computed from the current parameters and running moments, for the
        eval executor of ``Model.forward``.
        """
        a = self.gamma.data * (1.0 / np.sqrt(self.running_var + self.epsilon))
        return a, self.beta.data - self.running_mean * a


def hard_assignment(routing: RoutingParams) -> np.ndarray:
    """Per-row argmax of psi; ties break toward the lowest feature index."""
    return routing.psi.data.argmax(axis=1)


def select_pair(routing: RoutingParams, scratch, input_grad: bool):
    """Relaxed Group-Select, (B, d) -> (k, m, B): S @ x.T with S = ``routing_weights(psi, tau)``.

    The temperature tau is read at each forward call. S lives in ``scratch[0]``
    from forward to backward, and psi's gradient, S*(g @ x - rowdot)/tau
    with rowdot = sum_b g_ib out_ib read off the output, is formed in
    ``scratch[1]``: two arrays of psi's size. x's gradient, g.T @ S, is
    computed only if ``input_grad``.
    """
    psi = routing.psi.data
    s, gs = (buf.reshape(psi.shape) for buf in scratch)
    k, m = routing.k, routing.m

    def forward(x):
        tau = routing.temperature
        T.routing_weights(psi, tau, out=s)
        out = s @ x.T
        return out.reshape(k, m, -1), (x, out, tau)

    def backward(g, saved):
        x, out, tau = saved
        g = g.reshape(out.shape)
        term = np.matmul(g, x, out=gs)
        term -= np.einsum("ij,ij->i", g, out)[:, None]
        term *= s
        term /= tau
        return (g.T @ s if input_grad else None), term

    return forward, backward


def group_select_forward(tape, x: Tensor, routing: RoutingParams) -> Tensor:
    """Relaxed Group-Select of (B, d) inputs into (k, m, B) feature groups, as one node.

    Mixes features through the tempered row softmax of psi; differentiable
    in psi. Hard routing runs only in the eval executor.
    """
    if x.data.ndim != 2 or x.shape[1] != routing.d:
        raise ShapeError(f"input {x.shape} does not match d={routing.d}")
    scratch = (np.empty(routing.psi.shape), np.empty(routing.psi.shape))
    return T.node(tape, select_pair(routing, scratch, x.requires_grad), x, routing.psi)


def group_fc_pair(w: np.ndarray, b: np.ndarray):
    """Group-FC: out[i] = w[i] @ z[i] + b[i][:, None], one batched matmul over the groups."""

    def forward(z):
        out = np.matmul(w, z)
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

    Max sends each output's gradient to the lowest stratum that attains it,
    found only when the backward pass runs.
    """

    def forward(z):
        zs = strata(z, branching)
        out = zs.max(axis=0) if kind == "max" else zs.mean(axis=0)
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

    def forward(z):
        zs = strata(z, branching)
        b, kb, m, n = zs.shape
        cat = np.ascontiguousarray(zs.transpose(1, 0, 2, 3)).reshape(kb, b * m, n)
        return np.matmul(w, cat), cat

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
    the running moments in place; a batch of one row raises ``DomainError``.
    """
    momentum, eps = state.momentum, state.epsilon
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


def dropout_pair(rate: float, rng: np.random.Generator):
    """Inverted dropout at a positive rate: zero with probability ``rate``, survivors times 1/(1-rate)."""

    def forward(h):
        mask = (rng.random(h.shape) >= rate) / (1.0 - rate)
        return h * mask, mask

    def backward(g, mask):
        return (g * mask,)

    return forward, backward


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

    def forward(h):
        out = h @ w
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
