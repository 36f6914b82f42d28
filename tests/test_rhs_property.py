"""Property test: the batched manufactured rhs equals the per-point rule.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_ie_solver import t_dependent_kernel  # noqa: E402

from hfpquad.ie_solver import (  # noqa: E402
    _RHS_BLOCK,
    _kernel_slice_integrand,
    manufactured_rhs,
    supersingular_cotangent_kernel,
)
from hfpquad.integrands import PoissonKernelU  # noqa: E402
from hfpquad.quadrature import RuleSpec, t_hat  # noqa: E402


@pytest.mark.parametrize(
    "length", [1, _RHS_BLOCK - 1, _RHS_BLOCK, _RHS_BLOCK + 1, 3 * _RHS_BLOCK + 5]
)
@pytest.mark.parametrize("make_kernel", [supersingular_cotangent_kernel, t_dependent_kernel])
# no shrink phase: an example costs up to a second, and shrinking a failure
# would take minutes
@settings(max_examples=4, deadline=None, database=None, phases=[Phase.generate])
@given(eta=st.floats(0.05, 0.5), lam=st.floats(-2.0, 2.0), data=st.data())
def test_equals_per_point_rule(make_kernel, length, eta, lam, data):
    # bit for bit: each row is the same pairwise node sum as t_hat's.
    # t stays 0.14 inside [a, b): closer to the ends the u_eval-only kernel
    # wraps nodes next to the pole at |x - t| = T, and both paths fail the
    # doubling check (that is what u_centered is for)
    ts = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=length, max_size=length))
    kern = make_kernel()
    phi = PoissonKernelU(eta)
    n_high = 96
    got = manufactured_rhs(kern, phi, lam, n_high=n_high)(np.array(ts))
    spec = RuleSpec(3, 2, 2 * n_high, path="compact")
    for i, t in enumerate(ts):
        want = lam * phi(t) + t_hat(spec, _kernel_slice_integrand(kern, phi, t))
        assert got[i] == want, f"t={t!r}"
