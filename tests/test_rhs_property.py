"""Property tests of the manufactured rhs: off a grid it equals the
per-point rule, and on a uniform periodic grid (the FFT path) it agrees
with the batched rule within the rule's noise allowance.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_ie_solver import noise_allowance, t_dependent_kernel  # noqa: E402

from hfpquad.ie_solver import (  # noqa: E402
    _RHS_BLOCK,
    _grid_indices,
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
    # bit for bit: each row is the same pairwise node sum as t_hat's
    kern = make_kernel()
    ts = data.draw(st.lists(st.floats(kern.a, kern.b), min_size=length, max_size=length))
    phi = PoissonKernelU(eta)
    n_high = 96
    got = manufactured_rhs(kern, phi, lam, n_high=n_high)(np.array(ts))
    spec = RuleSpec(3, 2, 2 * n_high, path="compact")
    for i, t in enumerate(ts):
        want = lam * phi(t) + t_hat(spec, _kernel_slice_integrand(kern, phi, t))
        assert got[i] == want, f"t={t!r}"


@settings(max_examples=6, deadline=None, database=None, phases=[Phase.generate])
@given(
    N=st.integers(2, 80),
    period=st.integers(-2, 2),
    eta=st.floats(0.05, 0.5),
    lam=st.floats(-2.0, 2.0),
    data=st.data(),
)
def test_grid_path_agrees_with_batched_rule(N, period, eta, lam, data):
    # any number of points, starting anywhere within two periods of [a, b);
    # the same points as an (N, 1) array take the batched rule
    k0 = period * N + data.draw(st.integers(0, N - 1))
    kern = supersingular_cotangent_kernel()
    phi = PoissonKernelU(eta)
    ts = kern.a + (k0 + np.arange(N)) * (kern.period / N)
    assert _grid_indices(ts, kern.a, kern.period) is not None
    w = manufactured_rhs(kern, phi, lam)
    got, batched = w(ts), w(ts[:, None])[:, 0]
    assert np.all(np.abs(got - batched) <= noise_allowance(kern, phi, ts))
