"""Objective, optimizer, schedules, and the training loop.

The objective is mean cross-entropy plus two regularizers: an entropy
penalty on the routing distribution (weighted by ``lambda_``) that pushes
each routing row toward one-hot, and a plain L2 penalty over every trainable
tensor including the routing logits (weighted by ``alpha``). The entropy is
always evaluated at temperature 1, independent of the annealed temperature
used in the forward pass, and carries a 1/d outer factor. It computes
p*log(p) as p*(z - log S) from the max-shifted logits z and their
exponential row sums S, without a mask; its value, and its gradient, are 0
where p underflows to 0. Its arrays are of psi's size, the largest of a
training step, so its value and gradient are computed in place.

The objective is written once, as a kernel, and all its arithmetic is
here: ``entropy_term`` gives the entropy term's value and what its gradient
reads, ``objective`` the cross-entropy, the entropy and the L2 sum and
their weighted total, and ``objective_grad`` the gradient's pieces (the
logits', psi's entropy term's, and the factor that turns each parameter
into its L2 gradient). ``fit`` trains through a compiled step,
:class:`TrainStep`: the model's training kernels (``Model._train_pairs``,
the list ``Model.forward`` records on a tape in training mode), then the
objective, with every gradient written into one flat vector that mirrors
the model's flat parameter vector, and one Adam pass over that vector. No
tape is built. The tape path (``Model.forward`` with a tape,
``loss_terms`` and ``Tape.backward``) records the same kernels, one node
each, so both paths give the same bits.

A group-connected net trains in two phases. The relaxed phase routes
through the tempered softmax of psi. If d exceeds ``ROUTING_CANDIDATES``
(64), its epochs after the first are narrowed: each routing row trains
only its top 64 columns as of epoch 0's end, the (k*m, 64) block psi_c,
and the routing softmax, the entropy term (still over 1/d), psi's L2 term
and Adam run on psi_c, so ``metrics.csv``'s ``entropy_term`` is the
candidates' after epoch 0. The model keeps a dense psi, into which each
narrowed epoch's end writes psi_c, every other entry of a row at its max
minus ``PIN_TEMPERATURES`` times tau: psi's softmax at tau is psi_c's at the
candidates and exactly 0 elsewhere (``layers.write_candidates``). Before
the pin they take the row's least candidate logit instead, so psi's L2
stays of the candidates' scale, and the pin commits a candidate. For the last
``int(HARDEN_FRACTION * epochs)`` epochs (a quarter) the routing is
committed: ``layers.pin_routing`` stores each row's argmax as the routing's
``idx``, which relaxed and hard prediction both gather, and raises it by
``PIN_TEMPERATURES`` (1000) times ``tau_end``, so the softmax at ``tau_end``
is exactly one-hot and a checkpoint of psi loads committed. ``fit``
un-commits a committed model before training psi. The
hard phase trains the rest of the net on the gather of the committed
features (``layers.gather_pair``). It trains no psi, so it computes no
routing weights, no entropy term and no psi gradient, and Adam skips
psi's entries; its records hold an entropy term of 0 and a sparsity of 1,
and its validation accuracy is the hard one, which the relaxed one
equals. A dense net has no routing and trains every epoch alike.

Two schedules run per epoch: the softmax temperature decays geometrically
from ``tau_start`` to ``tau_end`` across the relaxed epochs and holds at
``tau_end`` after them, and the learning rate divides by
``plateau_factor`` whenever the best relaxed validation accuracy has not
improved for ``plateau_patience`` epochs. The best epoch, whose state
``fit`` returns, is chosen by hard-routed validation accuracy, the mode a
group-connected net is deployed in. The ablations of the paper's
regularizers need no switch of their own: ``lambda_ = 0`` drops the
entropy term and ``tau_end = tau_start`` holds the temperature.

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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import tensor as T
from .analysis import sparsity_report
from .data import Dataset, batches
from .errors import ConfigError, DomainError, ShapeError, TrainingDiverged
from .layers import pin_routing, write_candidates
from .model import Model, _flat_buffer
from .tensor import Tensor

# a batch loss above this multiple of the first batch's loss counts as divergence
DIVERGENCE_FACTOR = 1e6
# entries per Adam slice: 2^15 float64 is 256 KiB per array, so a slice's
# gradient, moments, parameter and two scratch arrays fit in a 2 MiB L2 cache;
# the routing candidates are picked in row slices of about as many entries
ADAM_TILE = 1 << 15
# share of a group-connected net's epochs, the last, trained on the committed routing
HARDEN_FRACTION = 0.25
# psi columns each routing row trains after the first relaxed epoch, if d is wider
ROUTING_CANDIDATES = 64
# Adam's moment decay rates and the term added to its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        if self.plateau_patience < 1:
            raise ConfigError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def entropy_term(psi: np.ndarray, z=None, e=None, d=None):
    """Routing entropy -(1/d) * sum over rows and columns of p*log(p), and what its gradient reads.

    p is the row softmax of psi at temperature 1, whatever temperature the
    forward pass is using. The outer factor averages over the d feature
    columns, not over the k*m rows, so the value ranges in
    [0, (km/d)*log d]. With z = psi - rowmax, e = exp(z) and S the row sum
    of e, a row's sum of p*log(p) is sum(e*z)/S - log(S); where exp
    underflows, e = 0 and so is the term (0*log(0) = 0), and a saturated
    row is an exact 0, not NaN. z and e are written into ``z`` and ``e``,
    arrays of psi's shape, if given. ``d`` replaces psi's width in the outer
    factor, for psi's candidate block.
    """
    z = np.subtract(psi, np.maximum.reduce(psi, 1, keepdims=True), out=z)
    e = np.exp(z, out=e)
    s = np.add.reduce(e, 1)
    log_s = np.log(s)
    rows = np.einsum("ij,ij->i", e, z) / s - log_s
    weight = -1.0 / (d or psi.shape[1])
    return np.add.reduce(rows) * weight, (z, e, s, log_s, rows, weight)


def objective(logits, y, psi, flats, lambda_: float, alpha: float, z=None, e=None, d=None):
    """The training objective of one batch: CE + lambda_ * entropy + alpha * L2.

    CE is the mean cross-entropy of the row softmax of the (B, C) logits
    against the integer labels y, the entropy is ``entropy_term(psi, z, e, d)``
    and L2 is the sum of ``np.dot(a, a)`` over the flat parameter arrays
    ``flats``, in order; a term whose weight is 0 is not evaluated, and its
    operand may be None. Returns the objective, the CE, the entropy term
    (0.0 at ``lambda_`` 0) and what ``objective_grad`` reads.
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
    ce = -(np.add.reduce(logp[np.arange(n), y]) / n)
    total, ent, ent_saved = ce, 0.0, None
    if lambda_ > 0.0:
        ent, ent_saved = entropy_term(psi, z, e, d)
        total = total + ent * lambda_
    if alpha > 0.0:
        l2 = 0.0
        for flat in flats:
            l2 += np.dot(flat, flat)
        total = total + l2 * alpha
    return total, ce, ent, (ez, sez, y, ent_saved, lambda_, alpha)


def objective_grad(g, saved):
    """g times the gradient of ``objective``, in its pieces.

    Returns the logits' gradient, (softmax - onehot) * g/B; psi's gradient
    from the entropy term, (e/S)*(z - log(S) - row value) times g, lambda_
    and -1/d, written into the entropy's z buffer (None at lambda 0); and
    the factor 2*g*alpha that turns each parameter into the gradient of its
    L2 term.
    """
    ez, sez, y, ent_saved, lambda_, alpha = saved
    dpsi = None
    if ent_saved is not None:
        dpsi, e, s, log_s, rows, weight = ent_saved
        dpsi -= (log_s + rows)[:, None]
        dpsi *= e
        dpsi *= (g * (lambda_ * weight) / s)[:, None]
    p = ez / sez
    p[np.arange(len(y)), y] -= 1.0
    p *= g / len(y)
    return p, dpsi, 2.0 * g * alpha


def loss_terms(
    tape,
    logits: Tensor,
    targets: np.ndarray,
    psi: Tensor | None,
    params: list[tuple[str, Tensor]],
    cfg: TrainConfig,
):
    """The objective as one tape node, plus its cross-entropy and entropy terms.

    Returns (total, ce, ent) as tensors, ent None when the entropy term is
    off (lambda 0, or no psi). Only total is recorded: one ``objective``
    node over the logits, then psi (entropy on) and every tensor in
    ``params`` (alpha > 0; the routing logits included: they only ever
    appear through a softmax, so nothing else bounds their magnitude). With
    lambda and alpha both zero the total is exactly the cross-entropy.
    """
    lambda_ = cfg.lambda_ if psi is not None else 0.0
    alpha = cfg.alpha if params else 0.0
    l2_params = [p for _, p in params] if alpha > 0.0 else []
    total, ce, ent, saved = objective(
        logits.data, np.asarray(targets), psi.data if lambda_ > 0.0 else None,
        [p.data.reshape(-1) for p in l2_params], lambda_, alpha,
    )

    def backward(g, saved):
        dlogits, dpsi, l2 = objective_grad(g, saved)
        return dlogits, *([] if dpsi is None else [dpsi]), *(l2 * p.data for p in l2_params)

    # the pair's forward hands over the value computed above
    inputs = ([psi] if lambda_ > 0.0 else []) + l2_params
    out = T.node(tape, (lambda _: (np.asarray(total), saved), backward), logits, *inputs)
    return out, T._raw(np.asarray(ce)), T._raw(np.asarray(ent)) if lambda_ > 0.0 else None


@dataclass
class AdamState:
    """First and second moment estimates of one flat parameter vector, and the steps taken."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def create(cls, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size))


def adam_step(w: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected update of the flat vector w by its gradient g, in place.

    w -= lr * (m/bc1) / (sqrt(v/bc2) + eps), with the betas and eps the
    ``ADAM_*`` constants, evaluated in that operation order, in consecutive
    contiguous slices of ``ADAM_TILE`` entries, each slice running the whole
    update before the next starts, so that the slice's gradient, moments,
    parameters and the two scratch arrays stay in cache. The scratch arrays
    hold one slice and are made per call, not kept between steps. The slices
    change no value: every operation is elementwise.
    """
    if g.shape != w.shape or state.m.shape != w.shape or w.ndim != 1:
        raise ConfigError(f"gradient {g.shape}, moments {state.m.shape} and parameters "
                          f"{w.shape} must be one flat vector")
    state.step += 1
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    n = w.size
    scratch_a, scratch_b = np.empty(min(ADAM_TILE, n)), np.empty(min(ADAM_TILE, n))
    for lo in range(0, n, ADAM_TILE):
        hi = min(lo + ADAM_TILE, n)
        gs, m, v, ws = g[lo:hi], state.m[lo:hi], state.v[lo:hi], w[lo:hi]
        a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
        np.multiply(gs, 1.0 - beta1, out=a)
        m *= beta1
        m += a
        np.square(gs, out=a)
        a *= 1.0 - beta2
        v *= beta2
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(m, bc1, out=b)
        b *= lr
        b /= a
        ws -= b


def relaxed_epochs(epochs: int) -> int:
    """The epochs before the hard phase: all but the last ``int(HARDEN_FRACTION * epochs)``."""
    return epochs - int(HARDEN_FRACTION * epochs)


def temperature_at(epoch: int, cfg: TrainConfig) -> float:
    """Geometric interpolation from tau_start (epoch 0) to tau_end (last relaxed epoch), then tau_end.

    The relaxed epochs are the first ``relaxed_epochs(epochs)``; a single
    one runs at tau_start.
    """
    relaxed = relaxed_epochs(cfg.epochs)
    if epoch >= relaxed:
        return cfg.tau_end
    if relaxed <= 1:
        return cfg.tau_start
    frac = epoch / (relaxed - 1)
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

    X, as an array, goes straight to the model's tape-free eval executor
    (``Model._eval_forward``), which raises ``ShapeError`` unless X is
    ``d`` wide and reads the rows once, in cache-sized chunks, each cast to
    float32 (``model.EVAL_DTYPE``) and checked there: NaN, an infinity or a
    value beyond float32's range raises ``DomainError``. The executor
    computes in float32, so a row whose top two logits lie within about
    1e-5 of the logit scale may get another label than in float64. A
    group-connected net whose routing gathers (hard, or relaxed once the
    routing is committed) shares the chunks out among up to two of the cores
    the process may use, at least two chunks per core, in threads that end
    before this returns; the labels are the same at any core count. One
    model must not predict from two threads of the caller at once.
    """
    return model._eval_forward(np.asarray(X), "hard" if hard else "relaxed").argmax(axis=1)


def accuracy(model: Model, ds: Dataset, hard: bool = False) -> float:
    return float((predictions(model, ds.X, hard=hard) == ds.y).mean())


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    ce_loss: float
    entropy_term: float
    val_accuracy: float
    val_accuracy_hard: float
    test_accuracy: float
    lr: float
    tau: float
    sparsity_fraction: float
    wall_time: float


@dataclass
class FitResult:
    """What ``fit`` returns: the epoch records and the best epoch's state.

    The best epoch is the first with the highest hard-routed validation
    accuracy, the mode a group-connected net is deployed in (for a dense
    net, hard and relaxed are the same); ``best_val_accuracy`` is that
    accuracy and ``best_state`` a copy of ``state_arrays()`` after it.
    """

    records: list[EpochRecord]
    best_val_accuracy: float
    best_epoch: int
    best_state: list[tuple[str, np.ndarray]] | None
    final_tau: float


def routing_sparsity(model: Model) -> float:
    """``analysis.sparsity_report`` of the model's routing; 1.0 for a dense net."""
    if model.routing is None:
        return 1.0
    return sparsity_report(model.routing)


class TrainStep:
    """One training step of a model under a config, compiled once from its blocks.

    The blocks are the ``ArchSpec.blocks`` of ``parse_arch``'s one pass.
    ``loss(x, y)`` runs the blocks' kernels forward (``Model._train_pairs``)
    and then ``objective``, and returns the objective and its cross-entropy
    and entropy terms as floats; ``backward()`` then writes the objective's
    gradient into ``grad``, one flat vector laid out like ``flat``, the part
    of the model's flat parameter vector that the step trains.
    ``Model.forward`` and ``loss_terms`` record the same kernels on a tape,
    one node per block and one for the objective, and the tape sums each
    parameter's gradient terms in an order that gives the same bits: its L2
    and entropy terms (psi only), a sum of two that does not depend on the
    order, then its block's term. So a block adds its gradient into the
    parameter's slot when an L2 term (for psi, an L2 or entropy term) was
    written there first, and writes over the slot otherwise. The entropy
    and the routing weights use psi-sized buffers that live as long as the
    step, in maps of their own (``gmlp.model._flat_buffer``); the entropy's
    exponent shares its buffer with Group-Select's gradient term, which is
    formed only after the entropy's gradient has been added.

    A ``hard`` step trains on the committed routing (``fit``'s hard phase):
    Group-Select is the gather of psi's argmax (``layers.gather_pair``),
    psi is not trained, and the objective drops the entropy term and psi's
    L2 term. Its ``flat`` and ``grad`` leave out psi, the first parameter,
    so the step holds no psi-sized array. A step of a dense net is the same
    in both modes. A step with ``cols``, each routing row's (k*m, K)
    candidate columns (``fit``'s narrowed epochs), trains ``psi_c``, a copy
    of psi at cols, with its gradient in ``grad_c``, and ``flat`` and
    ``grad`` leave out psi. Group-Select keeps its dense product each way;
    its S, a fresh map, is 0 outside the candidates.

    The model holds no reference to the step, so once the step is dropped
    its buffers are unmapped. Like the eval path, a step is not re-entrant.
    """

    def __init__(self, model: Model, cfg: TrainConfig, hard: bool = False, cols=None):
        self.d = model.spec.d
        self.alpha = cfg.alpha
        routing = model.routing
        relaxed = routing is not None and not hard
        params, offsets, lo = model.parameters(), model._offsets, 0
        if routing is not None and (hard or cols is not None):
            params, offsets, lo = params[1:], offsets[1:], routing.psi.size  # psi is the first parameter
        self.flat = model._flat[lo:]
        self.grad = grad = _flat_buffer(self.flat.size)
        self._flats = [t.data.reshape(-1) for _, t in params]
        slots = {
            id(t): grad[o - lo : o - lo + t.size].reshape(t.shape) for (_, t), o in zip(params, offsets)
        }
        self.psi_c = self.grad_c = candidates = trained = None
        if cols is not None:
            self.psi_c = trained = np.take_along_axis(routing.psi.data, cols, 1)
            self.grad_c = np.empty(trained.size)
            slots[id(trained)] = self.grad_c.reshape(trained.shape)
            self._flats.insert(0, trained.reshape(-1))
            candidates = (cols, trained)
        elif relaxed:
            trained = routing.psi
        self.lambda_ = cfg.lambda_ if relaxed else 0.0
        scratch = (None, None)
        self._psi = self._z = self._e = None
        if relaxed:
            scratch = (_flat_buffer(routing.psi.size), _flat_buffer(routing.psi.size))
        if self.lambda_ > 0.0:
            psi = self._psi = routing.psi.data if cols is None else self.psi_c
            self._gpsi = slots[id(trained)]
            self._z = scratch[1][: psi.size].reshape(psi.shape)
            self._e = _flat_buffer(psi.size).reshape(psi.shape)

        def put(t):
            slot = slots[id(t)]
            if self.alpha > 0.0 or (self.lambda_ > 0.0 and t is trained):
                return slot.__iadd__
            return partial(np.copyto, slot)

        self._steps = [
            (forward, backward, [put(t) for t in params])
            for forward, backward, params in model._train_pairs(scratch, False, hard, candidates)
        ]
        self._saved = self._objective = None

    def loss(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
        """(objective, cross-entropy, entropy term) of one batch; the entropy term is 0.0 at lambda 0.

        Checks that the rows are ``d`` wide and that every label names a
        class. It does not check the rows finite: ``fit``'s batches are rows
        of a ``Dataset``, whose constructor has.
        """
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeError(f"input {x.shape} does not match d={self.d}")
        h = x
        saved = []
        for forward, _, _ in self._steps:
            h, s = forward(h)
            saved.append(s)
        total, ce, ent, self._objective = objective(
            h, np.asarray(y), self._psi, self._flats, self.lambda_, self.alpha, self._z, self._e, self.d
        )
        self._saved = saved
        return float(total), float(ce), float(ent)

    def backward(self) -> None:
        """The gradient of the last ``loss`` into ``grad``."""
        g, dpsi, l2 = objective_grad(1.0, self._objective)
        if self.alpha > 0.0:
            np.multiply(self.flat, l2, out=self.grad)
            if self.psi_c is not None:
                np.multiply(self._flats[0], l2, out=self.grad_c)
        if dpsi is not None:
            if self.alpha > 0.0:
                self._gpsi += dpsi
            else:
                np.copyto(self._gpsi, dpsi)
        for (_, backward, puts), saved in zip(reversed(self._steps), reversed(self._saved)):
            g, *param_grads = backward(g, saved)
            for put, param_grad in zip(puts, param_grads):
                put(param_grad)
        self._saved = self._objective = None


def fit(
    model: Model,
    train: Dataset,
    val: Dataset,
    cfg: TrainConfig,
    test: Dataset | None = None,
    on_epoch=None,
) -> FitResult:
    """Full training loop: per-epoch schedules, Adam steps, metric records.

    A group-connected net trains in two phases. The relaxed phase, the
    first ``relaxed_epochs(cfg.epochs)`` epochs, routes through the
    tempered softmax of psi, annealed to ``tau_end`` at its last epoch, with
    the entropy term (a committed routing is un-committed first). If d
    exceeds ``ROUTING_CANDIDATES``, its epochs after the first train each
    row's top candidates, psi_c, and write them back into psi (module
    docstring): psi's dense Adam moments are gathered into psi_c's and the
    others' copied, so no psi-sized Adam array outlives epoch 0. Then
    ``pin_routing`` commits each routing row to its argmax at ``tau_end``,
    so relaxed and hard prediction gather the same features from there on,
    and the hard phase trains the rest of the net on the gather of the
    committed routing: psi and its Adam moments stay as they are (psi_c and
    its moments go), the
    objective has no entropy term and no L2 term for psi, and its records
    hold an entropy term of 0, tau at ``tau_end`` and a sparsity of 1. Its
    per-epoch evaluation runs only the hard gather: the relaxed accuracies
    it records are the hard ones, which give the same labels. A dense net
    has no routing to commit and runs every epoch as the relaxed phase
    does.

    Each batch runs one compiled step (:class:`TrainStep`, built once per
    phase from the model's blocks; the relaxed step is dropped before the
    hard one is built) and builds no tape: the blocks' kernels run as plain
    numpy steps, ``objective`` and its gradient follow, and the gradient
    lands in one flat vector laid out like the part of the model's flat
    parameter vector that the phase trains. Adam then runs once per step
    over that vector (and once over psi_c), in ``adam_step``'s tiles,
    continuing the same moments and step count. Unless narrowed, the fitted
    bits are those of a loop over the tape path (``Model.forward`` with a
    tape, in the phase's mode, ``loss_terms`` and ``Tape.backward``, the
    tensors' gradients gathered into one flat vector for ``adam_step``),
    which records the same kernels.

    ``val`` drives the plateau schedule (by relaxed accuracy) and
    best-checkpoint tracking (by hard accuracy, see :class:`FitResult`);
    ``test`` is only ever measured for the learning curve. The step and its gradient
    vector are dropped on return, so a trained model holds no gradient and
    no step buffer; ``fit`` sets no parameter's ``grad``, since the step
    writes every gradient into its own flat vector. No step draws
    random numbers: the batch order, seeded by ``cfg.seed`` and the epoch,
    is the only random stream. So the same inputs fit the same bits at one
    BLAS thread count; at another, BLAS may sum a product in another order
    and a wide net ends bits apart. Raises
    :class:`TrainingDiverged` the moment a batch loss is non-finite or
    exceeds ``DIVERGENCE_FACTOR`` times the first batch's loss.
    """
    cfg.validate()
    routing = model.routing
    relaxed = relaxed_epochs(cfg.epochs) if routing is not None else cfg.epochs
    narrow = 1 if routing is not None and routing.d > ROUTING_CANDIDATES else -1
    if routing is not None:
        routing.idx = None  # psi trains again: the routing is uncommitted until the pin
    step = TrainStep(model, cfg)
    adam = AdamState.create(model._flat.size)
    adam_c = None  # psi_c's moments, in the narrowed epochs
    val_history: list[float] = []
    records: list[EpochRecord] = []
    best_val = -math.inf
    best_epoch = -1
    best_state = None
    first_loss = None
    t0 = time.monotonic()

    for epoch in range(cfg.epochs):
        if epoch == relaxed:
            if adam_c is not None:
                write_candidates(routing, cols, step.psi_c)
            step = adam_c = cols = None  # unmaps the relaxed step's psi-sized buffers, drops psi_c
            pin_routing(routing, cfg.tau_end)
            step = TrainStep(model, cfg, hard=True)
            # the moments of the parameters after psi, as views, and the same step count
            n = adam.m.size - step.flat.size  # 0 once narrowed
            adam = replace(adam, m=adam.m[n:], v=adam.v[n:])
        elif epoch == narrow:
            step = None  # unmaps the dense step's psi-sized buffers
            psi, n, top = routing.psi.data, routing.psi.size, ROUTING_CANDIDATES
            rows = max(1, ADAM_TILE // psi.shape[1])  # row slices: no (k*m, d) index array
            cols = np.concatenate([np.sort(np.argpartition(psi[r : r + rows], -top, axis=1)[:, -top:], axis=1)
                                   for r in range(0, psi.shape[0], rows)])
            adam_c = AdamState(*(np.take_along_axis(a[:n].reshape(psi.shape), cols, 1).reshape(-1)
                                 for a in (adam.m, adam.v)), adam.step)
            adam = AdamState(adam.m[n:].copy(), adam.v[n:].copy(), adam.step)  # frees psi's moments
            step = TrainStep(model, cfg, cols=cols)
        lr, tau = schedule_step(epoch, val_history, cfg)
        model.set_temperature(tau)
        loss_sum = ce_sum = ent_sum = 0.0
        n_batches = 0
        for xb, yb in batches(train, cfg.batch_size, cfg.seed, epoch):
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
            adam_step(step.flat, step.grad, adam, lr)
            if adam_c is not None:
                adam_step(step.psi_c.reshape(-1), step.grad_c, adam_c, lr)
            loss_sum += value
            ce_sum += ce
            ent_sum += ent
            n_batches += 1
        if n_batches == 0:
            raise ConfigError(
                f"batch_size {cfg.batch_size} leaves no full training batch (n={train.n})"
            )
        if adam_c is not None:
            write_candidates(routing, cols, step.psi_c, tau)

        # once pinned, relaxed prediction gathers idx: relaxed and hard give the same labels
        committed = epoch >= relaxed
        val_acc = accuracy(model, val, hard=committed)
        val_hard = val_acc
        if routing is not None and not committed:
            val_hard = accuracy(model, val, hard=True)
        test_acc = accuracy(model, test, hard=committed) if test is not None else math.nan
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n_batches,
            ce_loss=ce_sum / n_batches,
            entropy_term=ent_sum / n_batches,
            val_accuracy=val_acc,
            val_accuracy_hard=val_hard,
            test_accuracy=test_acc,
            lr=lr,
            tau=tau,
            sparsity_fraction=1.0 if committed else routing_sparsity(model),
            wall_time=time.monotonic() - t0,
        )
        records.append(record)
        val_history.append(val_acc)
        if val_hard > best_val:
            best_val = val_hard
            best_epoch = epoch
            best_state = [(name, arr.copy()) for name, arr in model.state_arrays()]
        if on_epoch is not None:
            on_epoch(record)

    return FitResult(
        records=records,
        best_val_accuracy=best_val if records else math.nan,
        best_epoch=best_epoch,
        best_state=best_state,
        final_tau=model.temperature,
    )

