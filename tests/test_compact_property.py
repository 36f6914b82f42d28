"""Property test: every compact rule equals its generic extrapolation
combination (the identity of criterion 06, over drawn inputs).

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfpquad.integrands import random_trig_polynomial, singular_periodic_integrand  # noqa: E402
from hfpquad.quadrature import (  # noqa: E402
    COMPACT_PAIRS,
    RuleSpec,
    extrapolation_weights,
    t_hat,
)


# The polynomial comes from a drawn seed, with criterion 06's coefficient
# distribution, rather than from drawn coefficients: hypothesis then finds
# parity zeros such as u = sin 5x at t = 0 for m = 2, where every part is
# roundoff (~5e-15) and a tolerance relative to the values is meaningless.
@settings(max_examples=60, deadline=None, database=None)
@given(
    pair=st.sampled_from(sorted(COMPACT_PAIRS)),
    t=st.floats(-math.pi, math.pi),
    n=st.sampled_from([6, 8, 10, 12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compact_equals_generic_combination(pair, t, n, seed):
    m, s = pair
    u = random_trig_polynomial(np.random.default_rng(seed), degree=6)
    integ = singular_periodic_integrand(u, m=m, t=t, n_derivs=m)
    compact = t_hat(RuleSpec(m, s, n, path="compact"), integ)
    parts = [
        float(w) * t_hat(RuleSpec(m, 0, (2**k) * n), integ)
        for k, w in enumerate(extrapolation_weights(s).alpha)
    ]
    combo = math.fsum(parts)
    # criterion 06's tolerance
    scale = max(abs(compact), abs(combo), max(abs(p) for p in parts))
    assert abs(compact - combo) <= 1e-12 * scale
