"""Hot numeric loops of the rules and the collocation solvers, in numpy.

The rules form each quotient f_j = g_j / y_j^m once per node of an
integrand and add f over each primitive lattice with numpy's pairwise
summation, whose error grows like u*log(n), into the memo of
``quadrature.PeriodicIntegrand``; sums of several lattices, or of a
lattice's pieces, are combined by ``math.fsum``, exactly rounded (Higham,
Accuracy and Stability of Numerical Algorithms, section 4.2).  The rule's
roundoff is dominated by the u*n^2 term of the singular denominators, so
the order of the sum does not move the floor model.  The power y^m is
``quadrature.int_power``, not ``y**m``: numpy's ``pow`` takes a slow libm
path for negative bases (every rule has half its offsets negative) and
rounds them differently from positive ones.  ``singular_sum`` is the same
node sum in one call, which the tests use as the rules' unmemoized
reference.  ``dirichlet_dz`` evaluates the cardinal kernel and its
derivatives for the collocation matrices.

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
    power = int_power(y_vals, m)
    # dividing into the power's fresh array saves a node-sized allocation,
    # which at 2^18 nodes costs more than the division itself
    out = power if np.shape(g_vals) == power.shape else None
    sums = np.divide(g_vals, power, out=out).sum(axis=-1)
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
