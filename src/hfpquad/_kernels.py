"""The cardinal kernel D_n, the rules' node sum in one call, and the backend name.

``dirichlet_dz`` evaluates D_n(z) = sin(n z) cot(z)/n and its first three
derivatives on reduced angles, for the collocation matrices of
``ie_solver``.  ``singular_sum`` is the sum of g_j / y_j^m over a node
family in one numpy pairwise sum, with the power y^m from
``quadrature.int_power``: the tests' unmemoized reference for the rules,
whose memo fill lives in ``quadrature``.  ``active_backend`` names the
node-sum implementation, which hfpbench records in its run environment.

Callers look ``singular_sum`` and ``dirichlet_dz`` up through the module
at call time, so a tracer such as hfpbench's can rebind them by name.
"""

from __future__ import annotations

import numpy as np

from .quadrature import int_power


def active_backend() -> str:
    """Name of the node-sum implementation; numpy is the only one."""
    return "numpy"


def singular_sum(g_vals: np.ndarray, y_vals: np.ndarray, m: int):
    """Pairwise sum of g_j / y_j^m over the last axis, the rules' node sum
    in one call (the tests' reference for ``quadrature.t_hat``).

    ``y_vals`` holds the 1-D offsets.  A 1-D ``g_vals`` gives a float; a
    (rows, nodes) one, a vector-valued g, gives one sum per row, each the
    same pairwise sum as the row's own 1-D call.
    """
    sums = (g_vals / int_power(y_vals, m)).sum(axis=-1)
    return sums if sums.ndim else float(sums)


# ---------------------------------------------------------------------------
# Dirichlet cardinal kernel D_n and its first three derivatives
# ---------------------------------------------------------------------------
#
# Inputs are the reduced angles z = pi*y/T wrapped into [-pi/2, pi/2] and the
# even Taylor coefficients d[q] of D_n(z) = sin(n z) cot(z)/n about z = 0.
# Outputs are d^k D / dz^k; the caller applies the (pi/T)^k chain factor.
# Near-zero arguments switch to the Taylor branch to avoid the sin*cot
# cancellation at the removable singularity.


def dirichlet_dz(z: np.ndarray, n: int, order: int, taylor: np.ndarray, z_switch: float) -> np.ndarray:
    """Evaluate d^order/dz^order of sin(n z) cot(z)/n on reduced angles z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    near = np.abs(z) < z_switch
    zn = z[near]
    if zn.size:
        acc = np.zeros_like(zn)
        if order == 0:
            for q in range(len(taylor) - 1, -1, -1):
                acc = acc * zn * zn + taylor[q]
        else:
            # derivative of sum_q d_q z^(2q), falling-factorial weights
            for q in range(len(taylor) - 1, -1, -1):
                p = 2 * q
                if p < order:
                    continue
                w = taylor[q]
                for r in range(order):
                    w *= p - r
                acc = acc + w * zn ** (p - order)
        out[near] = acc
    zf = z[~near]
    if zf.size:
        S = np.sin(n * zf)
        C = np.cos(n * zf)
        c = 1.0 / np.tan(zf)
        cp = -(1.0 + c * c)
        if order == 0:
            val = S * c / n
        elif order == 1:
            val = C * c + S * cp / n
        elif order == 2:
            cpp = 2.0 * c * (1.0 + c * c)
            val = -n * S * c + 2.0 * C * cp + S * cpp / n
        else:
            cpp = 2.0 * c * (1.0 + c * c)
            cppp = -2.0 * (1.0 + c * c) * (1.0 + 3.0 * c * c)
            val = -(n * n) * C * c - 3.0 * n * S * cp + 3.0 * C * cpp + S * cppp / n
        out[~near] = val
    return out
