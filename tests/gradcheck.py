"""Central finite-difference oracle used across the test suite.

The oracle re-evaluates a scalar-valued closure under elementwise
perturbations of the raw parameter arrays; it never touches the autodiff
path it is checking. ``check_tape_gradients`` compares a tape's gradients
with it, and ``projected`` turns any output into a scalar loss for it.
"""

import numpy as np

from gmlp import tensor as T


def projected(tape, out, w):
    """sum(out * w) for a fixed array w of out's shape, as one tape node: a scalar loss whose gradient in out is w."""

    def forward(h):
        return np.asarray((h * w).sum()), None

    def backward(g, _):
        return (g * w,)

    return T.node(tape, (forward, backward), out)


def finite_difference(f, arrays, eps=1e-5):
    """Central finite differences of scalar f() w.r.t. each array in ``arrays``.

    Perturbs the arrays in place and restores them. Returns one gradient array
    per input array.
    """
    return [finite_difference_at(f, arr, range(arr.size), eps).reshape(arr.shape) for arr in arrays]


def finite_difference_at(f, arr, indices, eps=1e-5):
    """Central finite differences of scalar f() w.r.t. the entries ``indices`` of ``arr``'s flat view.

    ``arr`` must be contiguous, so that its flat view writes into it.
    """
    flat = arr.reshape(-1)
    grads = np.zeros(len(indices))
    for j, i in enumerate(indices):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        grads[j] = (fp - fm) / (2.0 * eps)
    return grads


def max_rel_err(analytic, numeric, floor=1e-5):
    """Max elementwise relative error with an absolute-scale floor.

    Entries whose magnitude on both sides stays below ``floor`` are compared
    on the ``floor`` scale, so genuine zeros do not produce spurious blowups
    while still bounding the absolute disagreement.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    err = np.abs(a - n) / denom
    return float(err.max()) if err.size else 0.0


def check_tape_gradients(build, tensors, tol=1e-5, eps=1e-5):
    """Assert that the tape gradients of build(tape), a scalar Tensor, match the oracle's.

    ``tensors`` are the leaves to perturb; each must receive a gradient.
    """
    tape = T.Tape()
    tape.backward(build(tape))
    numeric = finite_difference(lambda: build(None).item(), [t.data for t in tensors], eps=eps)
    for t, n in zip(tensors, numeric):
        assert t.grad is not None
        assert max_rel_err(t.grad, n) < tol
