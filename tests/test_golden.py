"""Golden doubles: table rows, norm samples and a reference value at fixed
inputs, as ``float.hex`` strings.

A change meant to keep every double (a performance change) must pass these
as they are.  A change that rounds differently on purpose updates them and
says so in CHANGES.md.  They were recorded with numpy 2.4.6 on x86-64
Linux, and hold there with numpy's SIMD dispatch limited to its baseline
(``NPY_DISABLE_CPU_FEATURES``) too; a libm or numpy whose sin, cos or pow
rounds another last bit would move them.
"""

import pytest

from hfpquad import harness, integrands, oracles

U = integrands.TrigPolynomial((0.5, 0.3, 0.1), (0.2, -0.4))
T = 1.0


def _integrand(m):
    # the m = 3 tables of the paper use the Poisson u, the others a
    # trigonometric polynomial with the reference oracle's derivatives
    if m == 3:
        return integrands.singular_periodic_integrand(integrands.PoissonKernelU(0.5), m=3, t=T)
    return integrands.singular_periodic_integrand(U, m=m, t=T, n_derivs=m + 7)


# rows n = 10, 20, ..., 100 of the compact rule (m, s)
ROWS = {
    (4, 3): [
        "-0x1.45fd194987280p+4", "-0x1.45fd194987c00p+4", "-0x1.45fd194989800p+4", "-0x1.45fd194988000p+4",
        "-0x1.45fd194980000p+4", "-0x1.45fd194998000p+4", "-0x1.45fd194970000p+4", "-0x1.45fd194938000p+4",
        "-0x1.45fd194a20000p+4", "-0x1.45fd1949f0000p+4",
    ],
    # a level-0 family's sum is the fsum of its primitive lattices' sums
    (4, 0): [
        "-0x1.45fd194987404p+4", "-0x1.45fd1949873c0p+4", "-0x1.45fd1949873c0p+4", "-0x1.45fd194987300p+4",
        "-0x1.45fd194987200p+4", "-0x1.45fd194987000p+4", "-0x1.45fd194986400p+4", "-0x1.45fd194986800p+4",
        "-0x1.45fd194985800p+4", "-0x1.45fd194986800p+4",
    ],
    (1, 1): [
        "-0x1.bafdd2c4f0cf7p-2", "-0x1.bafdd2c4f0cedp-2", "-0x1.bafdd2c4f0cf3p-2", "-0x1.bafdd2c4f0cfcp-2",
        "-0x1.bafdd2c4f0cf0p-2", "-0x1.bafdd2c4f0cfap-2", "-0x1.bafdd2c4f0cf4p-2", "-0x1.bafdd2c4f0d01p-2",
        "-0x1.bafdd2c4f0d02p-2", "-0x1.bafdd2c4f0d04p-2",
    ],
    (3, 2): [
        "0x1.c020c582f9c40p+1", "0x1.c25e584cdbc80p+1", "0x1.c25cf81483780p+1", "0x1.c25cf8848ea00p+1",
        "0x1.c25cf88473c00p+1", "0x1.c25cf88476c00p+1", "0x1.c25cf8847f600p+1", "0x1.c25cf8847bc00p+1",
        "0x1.c25cf88477e00p+1", "0x1.c25cf88474c00p+1",
    ],
}

# integrand_norms of the integrand of each m, g sampled at t + y on the
# offsets y from a - t to b - t
NORMS = {
    4: ["0x1.ad81e11cb5e39p+4", "0x1.f85911567db39p+5", "0x1.0ba5af034bbd6p+15"],
    1: ["0x1.c580469f00a63p+0", "0x1.c9788def06444p+0", "0x1.8768eadac5618p+7"],
    3: ["0x1.fdb7b8bc27393p+3", "0x1.6b7283abc0be0p+3", "0x1.e66459894094ap+11"],
}


@pytest.mark.parametrize("m, s", sorted(ROWS))
def test_table_rows(m, s):
    report = harness.convergence_table_for(
        _integrand(m), 0.0, "none", s=s, n_list=range(10, 101, 10), path="compact"
    )
    assert [row.value.hex() for row in report.rows] == ROWS[m, s]


@pytest.mark.parametrize("m", sorted(NORMS))
def test_integrand_norms(m):
    assert [v.hex() for v in harness.integrand_norms(_integrand(m))] == NORMS[m]


def test_hfp_reference():
    # panels on the offsets from t: 8.7e-12 from exact_hfp, where panels on
    # x gave -0x1.45fd1949865a9p+4, 1.3e-11 from it
    integ = _integrand(4)
    value = oracles.hfp_reference(integ.g_eval, integ.g_derivs_at_t, 4, integ.a, integ.b, T, smoothing=6)
    assert value.hex() == "-0x1.45fd194986a6cp+4"
