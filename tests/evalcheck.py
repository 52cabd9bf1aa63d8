"""The eval executor's numeric contract, for tests that compare its logits with a float64 reference.

The executor computes in ``gmlp.model.EVAL_DTYPE``. The ``eval_dtype``
fixture (``conftest.py``) runs a test at float64, where the logits must
match the reference to the test's own float64 tolerance, so that run pins
the executor's folds, gathers, pools and chunking, and at the default
float32, where they must stay within ``FLOAT32_BOUND``.
"""

import numpy as np
import numpy.testing as npt

from gmlp import model as M

# |got - want| <= FLOAT32_BOUND * (1 + max|want|), the form of the benchmark's
# RELOAD_RTOL. Each float32 operation rounds its result by at most
# u = 2**-24 (6e-8) of its size. A layer's sum of n <= 1,024 rounded terms
# carries about sqrt(n) * u <= 2e-6 of the terms' scale (independent
# roundings add like a random walk), and a logit of these nets passes through
# at most five such layers: the input cast, three weight layers with their
# folds, floors and pools, and the output FC. So about 5 * 2e-6 = 1e-5 of the
# logit scale, which 1 + max|want| stands for, also where logits cancel to 0.
FLOAT32_BOUND = 1e-5


def float32_limit(want: np.ndarray) -> float:
    """The largest |got - want| that float32 logits may show against the reference ``want``."""
    return FLOAT32_BOUND * (1.0 + float(np.abs(want).max(initial=0.0)))


def assert_eval_logits(got: np.ndarray, want: np.ndarray, **float64_tolerance) -> None:
    """Eval logits against the reference: ``assert_allclose`` at float64, ``FLOAT32_BOUND`` at float32."""
    assert got.dtype == np.float64 and got.shape == want.shape
    if M.EVAL_DTYPE == np.float64:
        npt.assert_allclose(got, want, **float64_tolerance)
    else:
        assert float(np.abs(got - want).max(initial=0.0)) <= float32_limit(want)
