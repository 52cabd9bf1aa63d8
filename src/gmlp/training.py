"""Objective, optimizer, schedules, and the training loop.

The objective is mean cross-entropy plus two regularizers: an entropy
penalty on the routing distribution (weighted by ``lambda_``) that pushes
each routing row toward one-hot, and a plain L2 penalty over every trainable
tensor including the routing logits (weighted by ``alpha``). The entropy is
always evaluated at temperature 1, independent of the annealed temperature
used in the forward pass, and carries a 1/d outer factor. It computes
p*log(p) as p*(z - log S) from the max-shifted logits z and their
exponential row sums S, without a mask; its value, and its gradient, are 0
where p underflows to 0.

``fit`` trains through a compiled step, :class:`TrainStep`: the model's plan
turned once into the blocks' kernels (``Model._train_steps``), then the
loss terms' kernels, with every gradient written into one flat vector that
mirrors the model's flat parameter vector, and one Adam pass over that
vector. No tape is built. The tape path (``Model.forward`` with a tape,
``loss_terms`` and ``Tape.backward``) records the same kernels as one node
each, the entropy as one ``neg_entropy_rows`` node and the L2 penalty as
one ``sum_squares`` node over the whole parameter list, so both paths give
the same bits and the gradient checks of the tape path check the
arithmetic that ``fit`` runs.

Two schedules run per epoch: the softmax temperature decays geometrically
from ``tau_start`` to ``tau_end`` across the configured epoch budget, and the
learning rate divides by ``plateau_factor`` whenever the best validation
accuracy has not improved for ``plateau_patience`` epochs. The ablations of
the paper's regularizers need no switch of their own: ``lambda_ = 0`` drops
the entropy term and ``tau_end = tau_start`` holds the temperature.

Runaway training stops with :class:`TrainingDiverged` under one blow-up
rule: a batch loss that is non-finite, or that exceeds ``DIVERGENCE_FACTOR``
(1e6) times the first batch's loss, the loss of the untrained model. Healthy
runs stay within a few times their first loss, while a step size that throws
the parameters out of range lifts the loss by many orders of magnitude
within a step or two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .analysis import sparsity_report
from .data import Dataset, batches
from .errors import ConfigError, ShapeError, TrainingDiverged
from .model import Model, _flat_buffer
from .tensor import Tensor

# a batch loss above this multiple of the first batch's loss counts as divergence
DIVERGENCE_FACTOR = 1e6
# entries per Adam slice: 2^15 float64 is 256 KiB per array, so a slice's
# gradient, moments, parameter and two scratch arrays fit in a 2 MiB L2 cache
ADAM_TILE = 1 << 15


@dataclass
class TrainConfig:
    epochs: int = 300
    batch_size: int = 64
    lambda_: float = 1.0  # entropy weight
    alpha: float = 1e-4  # L2 weight
    lr0: float = 0.001
    plateau_patience: int = 10
    plateau_factor: float = 5.0
    tau_start: float = 1.0
    tau_end: float = 0.01
    seed: int = 0
    val_fraction: float = 0.1

    def validate(self) -> None:
        for name in ("lambda_", "alpha", "lr0", "plateau_factor", "tau_start", "tau_end"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.lambda_ < 0 or self.alpha < 0:
            raise ConfigError("lambda and alpha must be non-negative")
        if not self.lr0 > 0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if not self.plateau_factor > 1:
            raise ConfigError(f"plateau_factor must exceed 1, got {self.plateau_factor}")
        if not 0 < self.tau_end <= self.tau_start:
            raise ConfigError(
                f"need 0 < tau_end <= tau_start, got {self.tau_end}, {self.tau_start}"
            )
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


def entropy_term(tape, psi: Tensor) -> Tensor:
    """Routing entropy: -(1/d) * sum over rows and columns of p*log(p).

    p is the row softmax of psi at temperature 1, whatever temperature the
    forward pass is using. The outer factor averages over the d feature
    columns, not over the k*m rows, so the value ranges in
    [0, (km/d)*log d].
    """
    d = psi.shape[1]
    return T.scale(tape, T.neg_entropy_rows(tape, psi), -1.0 / d)


def loss_terms(
    tape,
    logits: Tensor,
    targets: np.ndarray,
    psi: Tensor | None,
    params: list[tuple[str, Tensor]],
    cfg: TrainConfig,
):
    """Total objective plus its cross-entropy and entropy components.

    With lambda and alpha both zero the total is exactly the cross-entropy.
    The L2 sum is one ``sum_squares`` node over every tensor in ``params``
    (the routing logits included: they only ever appear through a softmax,
    so nothing else bounds their magnitude).
    """
    ce = T.cross_entropy_logits(tape, logits, targets)
    total = ce
    ent = None
    if psi is not None and cfg.lambda_ > 0.0:
        ent = entropy_term(tape, psi)
        total = T.add(tape, total, T.scale(tape, ent, cfg.lambda_))
    if cfg.alpha > 0.0 and params:
        l2 = T.sum_squares(tape, *(p for _, p in params))
        total = T.add(tape, total, T.scale(tape, l2, cfg.alpha))
    return total, ce, ent


@dataclass
class AdamState:
    """First/second moment estimates per named parameter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(cls, params: list[tuple[str, Tensor]]) -> "AdamState":
        state = cls()
        for name, p in params:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: list[tuple[str, Tensor]], state: AdamState, lr: float) -> None:
    """One bias-corrected update, in place; parameters without grads are left alone.

    p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), evaluated in that operation
    order. A parameter of more than ``ADAM_TILE`` entries is updated in
    consecutive contiguous slices of ``ADAM_TILE`` entries of its flat view,
    each slice running the whole update before the next starts, so that the
    slice's gradient, moments, parameter and the two scratch arrays stay in
    cache; the two scratch arrays hold one slice and are made per call, not
    kept between steps. A parameter of at most one slice is updated as whole
    arrays, with temporaries of its own size: a slicing loop costs more than
    it saves on small arrays. The slices change no value: every operation
    is elementwise.
    """
    state.step += 1
    beta1, beta2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step

    def update(g, m, v, w, a, b):
        # a and b are scratch of g's shape, or None to have numpy make them
        a = np.multiply(g, 1.0 - beta1, out=a)
        m *= beta1
        m += a
        np.square(g, out=a)
        a *= 1.0 - beta2
        v *= beta2
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += eps
        b = np.divide(m, bc1, out=b)
        b *= lr
        b /= a
        w -= b

    scratch = None
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        w = p.data
        if g.shape != w.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {w.shape} ({name})")
        m = state.m[name]
        v = state.v[name]
        if w.size <= ADAM_TILE:
            update(g, m, v, w, None, None)
            continue
        if scratch is None:
            scratch = np.empty(ADAM_TILE), np.empty(ADAM_TILE)
        g, m, v, w = g.reshape(-1), m.reshape(-1), v.reshape(-1), w.reshape(-1)
        for lo in range(0, w.size, ADAM_TILE):
            hi = min(lo + ADAM_TILE, w.size)
            a, b = scratch[0][: hi - lo], scratch[1][: hi - lo]
            update(g[lo:hi], m[lo:hi], v[lo:hi], w[lo:hi], a, b)


def temperature_at(epoch: int, cfg: TrainConfig) -> float:
    """Geometric interpolation from tau_start (epoch 0) to tau_end (last epoch)."""
    if cfg.epochs <= 1:
        return cfg.tau_start
    frac = epoch / (cfg.epochs - 1)
    return cfg.tau_start * (cfg.tau_end / cfg.tau_start) ** frac


def learning_rate_at(val_accuracy_history, cfg: TrainConfig) -> float:
    """Replay the plateau rule over completed epochs' validation accuracies."""
    lr = cfg.lr0
    best = -math.inf
    since = 0
    for acc in val_accuracy_history:
        if acc > best:
            best = acc
            since = 0
        else:
            since += 1
            if since >= cfg.plateau_patience:
                lr /= cfg.plateau_factor
                since = 0
    return lr


def schedule_step(epoch: int, val_accuracy_history, cfg: TrainConfig):
    """(learning rate, temperature) to use for this epoch."""
    if epoch >= cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside the configured budget {cfg.epochs}")
    return learning_rate_at(val_accuracy_history, cfg), temperature_at(epoch, cfg)


# ---------------------------------------------------------------------------
# evaluation and the loop


def predictions(model: Model, X: np.ndarray, hard: bool = False) -> np.ndarray:
    """Eval-mode class labels of the rows of X, under hard or relaxed routing.

    ``Tensor(X)`` checks the input once (float64, finite) and
    ``Model.forward`` its width; the forward pass then runs the tape-free
    eval path, which works through the rows in cache-sized chunks.
    """
    mode = "hard" if hard else "relaxed"
    return model.forward(Tensor(X), training=False, mode=mode).data.argmax(axis=1)


def accuracy(model: Model, ds: Dataset, hard: bool = False) -> float:
    return float((predictions(model, ds.X, hard=hard) == ds.y).mean())


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    ce_loss: float
    entropy_term: float
    val_accuracy: float
    test_accuracy: float
    lr: float
    tau: float
    sparsity_fraction: float
    wall_time: float


@dataclass
class FitResult:
    records: list[EpochRecord]
    best_val_accuracy: float
    best_epoch: int
    best_state: list[tuple[str, np.ndarray]] | None
    final_tau: float


def routing_sparsity(model: Model, threshold: float = 0.99) -> float:
    """``analysis.sparsity_report`` of the model's routing; 1.0 for a dense net."""
    if model.routing is None:
        return 1.0
    return sparsity_report(model.routing, threshold)


class TrainStep:
    """One training step of a model under a config, compiled once from its plan.

    ``loss(x, y)`` runs the blocks' kernels forward (``Model._train_steps``)
    and the loss terms' kernels (``tensor.cross_entropy_value``,
    ``neg_entropy_value`` and ``squares_sum``), and returns the objective
    and its cross-entropy and entropy terms as floats; ``backward()`` then
    writes the objective's gradient into ``parameters.grad``, one flat
    vector laid out like the model's flat parameter vector
    ``parameters.data``; ``rng`` draws the dropout masks, in block order.
    The tape path records the same kernels, and sums each parameter's
    gradient in the same order, so both give the same bits: its L2 term,
    then its entropy term (psi only), then its block's term, summed in
    place here. The entropy and the routing weights use psi-sized buffers
    that live as long as the step, in maps of their own
    (``gmlp.model._flat_buffer``); the entropy's exponent shares its buffer
    with Group-Select's gradient term, which is formed only after the
    entropy's gradient has been added.

    The model holds no reference to the step, so once the step is dropped
    its buffers are unmapped. Like the eval path, a step is not re-entrant.
    """

    def __init__(self, model: Model, cfg: TrainConfig, rng: np.random.Generator):
        self.d = model.spec.d
        self.alpha = cfg.alpha
        self.parameters = T._raw(model._flat)
        self.parameters.grad = grad = _flat_buffer(model._flat.size)
        self._flats = [t.data.reshape(-1) for _, t in model.parameters()]
        psi = model.routing.psi.data if model.routing is not None else None
        self.lambda_ = cfg.lambda_ if psi is not None else 0.0
        scratch = (None, None)
        if psi is not None:
            scratch = (_flat_buffer(psi.size), _flat_buffer(psi.size))
        if self.lambda_ > 0.0:
            self._psi = psi
            self._gpsi = grad[: psi.size].reshape(psi.shape)  # psi is the first parameter
            self._z = scratch[1].reshape(psi.shape)
            self._e = _flat_buffer(psi.size).reshape(psi.shape)
        add = self.alpha > 0.0
        self._steps = model._train_steps(grad, add, add or self.lambda_ > 0.0, scratch, rng)
        self._saved = self._ce = self._ent = None

    def loss(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
        """(objective, cross-entropy, entropy term) of one batch; the entropy term is 0.0 at lambda 0.

        Checks what the tape path checks: the rows are finite and ``d``
        wide, and every label names a class.
        """
        h = Tensor(x).data
        if h.ndim != 2 or h.shape[1] != self.d:
            raise ShapeError(f"input {h.shape} does not match d={self.d}")
        saved = []
        for forward, _, _ in self._steps:
            h, s = forward(h)
            saved.append(s)
        ce, self._ce = T.cross_entropy_value(h, np.asarray(y))
        total = ce
        ent = 0.0
        if self.lambda_ > 0.0:
            value, self._ent = T.neg_entropy_value(self._psi, self._z, self._e)
            ent = value * (-1.0 / self.d)
            total = total + ent * self.lambda_
        if self.alpha > 0.0:
            total = total + T.squares_sum(self._flats) * self.alpha
        self._saved = saved
        return float(total), float(ce), float(ent)

    def backward(self) -> None:
        """The gradient of the last ``loss`` into ``parameters.grad``."""
        grad = self.parameters.grad
        if self.alpha > 0.0:
            np.multiply(self.parameters.data, 2.0 * self.alpha, out=grad)
        if self.lambda_ > 0.0:
            dz = T.neg_entropy_grad(self.lambda_ * (-1.0 / self.d), self._ent)
            if self.alpha > 0.0:
                self._gpsi += dz
            else:
                np.copyto(self._gpsi, dz)
        g = T.cross_entropy_grad(1.0, self._ce)
        for (_, backward, puts), saved in zip(reversed(self._steps), reversed(self._saved)):
            g, *param_grads = backward(g, saved)
            for put, param_grad in zip(puts, param_grads):
                put(param_grad)
        self._saved = self._ce = self._ent = None


def fit(
    model: Model,
    train: Dataset,
    val: Dataset,
    cfg: TrainConfig,
    test: Dataset | None = None,
    on_epoch=None,
) -> FitResult:
    """Full training loop: per-epoch schedules, Adam steps, metric records.

    Each batch runs one compiled step (:class:`TrainStep`, built once per
    call from the model's plan) and builds no tape: the blocks' kernels run
    as plain numpy steps, the loss terms and their gradients follow, and the
    gradient lands in one flat vector laid out like the model's flat
    parameter vector. Adam then runs once per step over that whole vector,
    as one parameter, in ``adam_step``'s tiles. The fitted bits are those
    of a loop over the tape path (``Model.forward`` with a tape,
    ``loss_terms``, ``Tape.backward`` and a per-tensor ``adam_step``),
    which records the same kernels.

    ``val`` drives the plateau schedule and best-checkpoint tracking; ``test``
    is only ever measured for the learning curve. The step and its gradient
    vector are dropped on return, so a trained model holds no gradient and
    no step buffer, and no parameter's ``grad`` is set. The same
    inputs fit the same bits at one BLAS thread count; at another, BLAS may
    sum a product in another order and a wide net ends bits apart. Raises
    :class:`TrainingDiverged` the moment a batch loss is non-finite or
    exceeds ``DIVERGENCE_FACTOR`` times the first batch's loss.
    """
    cfg.validate()
    step = TrainStep(model, cfg, np.random.default_rng((cfg.seed, 7919)))
    params = [("parameters", step.parameters)]
    adam = AdamState.create(params)
    val_history: list[float] = []
    records: list[EpochRecord] = []
    best_val = -math.inf
    best_epoch = -1
    best_state = None
    first_loss = None
    t0 = time.monotonic()

    for epoch in range(cfg.epochs):
        lr, tau = schedule_step(epoch, val_history, cfg)
        model.set_temperature(tau)
        loss_sum = ce_sum = ent_sum = 0.0
        n_batches = 0
        for xb, yb in batches(train, cfg.batch_size, cfg.seed, epoch, drop_last=True):
            value, ce, ent = step.loss(xb, yb)
            if not math.isfinite(value):
                raise TrainingDiverged(epoch, value)
            if first_loss is None:
                first_loss = value
            elif value > DIVERGENCE_FACTOR * first_loss:
                raise TrainingDiverged(
                    epoch,
                    value,
                    f"exceeds {DIVERGENCE_FACTOR:g} x the first batch loss ({first_loss:.4g})",
                )
            step.backward()
            adam_step(params, adam, lr)
            loss_sum += value
            ce_sum += ce
            ent_sum += ent
            n_batches += 1
        if n_batches == 0:
            raise ConfigError(
                f"batch_size {cfg.batch_size} leaves no full training batch (n={train.n})"
            )

        val_acc = accuracy(model, val)
        test_acc = accuracy(model, test) if test is not None else math.nan
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n_batches,
            ce_loss=ce_sum / n_batches,
            entropy_term=ent_sum / n_batches,
            val_accuracy=val_acc,
            test_accuracy=test_acc,
            lr=lr,
            tau=tau,
            sparsity_fraction=routing_sparsity(model),
            wall_time=time.monotonic() - t0,
        )
        records.append(record)
        val_history.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_state = [(name, arr.copy()) for name, arr in model.state_arrays()]
        if on_epoch is not None:
            on_epoch(record)

    for _, p in model.parameters():
        p.grad = None
    return FitResult(
        records=records,
        best_val_accuracy=best_val if records else math.nan,
        best_epoch=best_epoch,
        best_state=best_state,
        final_tau=model.temperature,
    )

