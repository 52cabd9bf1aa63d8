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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
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

        Computed from the current parameters and running moments, in the same
        operation order as ``tensor.batchnorm``'s eval branch.
        """
        a = self.gamma.data * (1.0 / np.sqrt(self.running_var + self.epsilon))
        return a, self.beta.data - self.running_mean * a


def hard_assignment(routing: RoutingParams) -> np.ndarray:
    """Per-row argmax of psi; ties break toward the lowest feature index."""
    return routing.psi.data.argmax(axis=1)


def group_select_forward(tape, x: Tensor, routing: RoutingParams, mode: str = "relaxed") -> Tensor:
    """Organize (B, d) inputs into (k, m, B) feature groups.

    Relaxed mode mixes features through the tempered row softmax S of psi,
    as S @ x.T in one ``relaxed_select`` node, and is differentiable in psi;
    hard mode gathers exactly one row of x.T per slot (the argmax) and is
    used for sparse inference.
    """
    if x.data.ndim != 2 or x.shape[1] != routing.d:
        raise ShapeError(f"input {x.shape} does not match d={routing.d}")
    n = x.shape[0]
    if mode == "relaxed":
        flat = T.relaxed_select(tape, routing.psi, x, routing.temperature)
    elif mode == "hard":
        flat = T.gather_rows(tape, T.transpose(tape, x), hard_assignment(routing))
    else:
        raise ConfigError(f"unknown group-select mode {mode!r}")
    return T.reshape(tape, flat, (routing.k, routing.m, n))


def group_fc_forward(tape, z: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Apply each group's private affine map; there are no cross-group weights.

    z is (k, m, B), w the (k, m, m) stack of per-group weights and b the
    (k, m) stack of biases; ``group_linear`` checks the shapes.
    """
    return T.group_linear(tape, z, w, b)


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
    if kind == "max":
        return T.pool_max(tape, z, branching)
    if kind == "mean":
        return T.pool_mean(tape, z, branching)
    if kind == "linear":
        if params is None:
            raise ConfigError("linear pooling requires its weight tensor")
        cat = T.pool_concat(tape, z, branching)
        return T.group_linear(tape, cat, params)
    raise ConfigError(f"unknown pool kind {kind!r}; expected one of {POOL_KINDS}")


def batchnorm_forward(tape, x: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Batch-norm of dense (B, F) or grouped (k, m, B) activations, per feature or slot."""
    return T.batchnorm(
        tape,
        x,
        state.gamma,
        state.beta,
        state.running_mean,
        state.running_var,
        state.momentum,
        state.epsilon,
        training,
    )


def dropout_forward(tape, x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; eval mode and rate 0 are exact identities."""
    if not training or rate == 0.0:
        return x
    return T.dropout(tape, x, rate, rng)


def concat_groups(tape, z: Tensor) -> Tensor:
    """Flatten (k', m, B) to (B, k'*m), group-major: column i*m+j is slot j of group i."""
    if z.data.ndim != 3:
        raise ShapeError(f"concat_groups expects (k, m, B), got {z.shape}")
    k, m, n = z.shape
    return T.transpose(tape, T.reshape(tape, z, (k * m, n)))


def dense_forward(tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully-connected layer: x (B, p) @ w (p, q) + b (q,)."""
    return T.add(tape, T.matmul(tape, x, w), b)
