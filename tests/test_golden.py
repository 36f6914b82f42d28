"""Golden doubles: table rows, norm samples and a reference value at fixed
inputs, as ``float.hex`` strings, and collocation solves as sha256 digests.

A change meant to keep every double (a performance change) must pass these
as they are.  A change that rounds differently on purpose updates them and
says so in CHANGES.md.  They were recorded with numpy 2.4.6 on x86-64
Linux, and hold there with numpy's SIMD dispatch limited to its baseline
(``NPY_DISABLE_CPU_FEATURES``) too; a libm or numpy whose sin, cos or pow
rounds another last bit would move them.
"""

import hashlib

import pytest

from hfpquad import harness, ie_solver, integrands, oracles

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

# rows n = 10, 20, ..., 100 of the generic rule (m, s): alpha_k times the
# base rule at 2^k n, g's derivatives at t in its corrections; (1, 3) is
# above the compact levels of m = 1
GENERIC_ROWS = {
    (3, 2): [
        "0x1.c020c582f9c00p+1", "0x1.c25e584cdbca0p+1", "0x1.c25cf81483880p+1", "0x1.c25cf8848e8c0p+1",
        "0x1.c25cf88473c80p+1", "0x1.c25cf88476d00p+1", "0x1.c25cf8847f580p+1", "0x1.c25cf8847bd00p+1",
        "0x1.c25cf88478080p+1", "0x1.c25cf88474d00p+1",
    ],
    (1, 3): [
        "-0x1.bafdd2c4f0d05p-2", "-0x1.bafdd2c4f0cdap-2", "-0x1.bafdd2c4f0cf0p-2", "-0x1.bafdd2c4f0cebp-2",
        "-0x1.bafdd2c4f0cdap-2", "-0x1.bafdd2c4f0cf2p-2", "-0x1.bafdd2c4f0d08p-2", "-0x1.bafdd2c4f0d2ep-2",
        "-0x1.bafdd2c4f0d2cp-2", "-0x1.bafdd2c4f0d0fp-2",
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


@pytest.mark.parametrize("m, s", sorted(GENERIC_ROWS))
def test_generic_table_rows(m, s):
    report = harness.convergence_table_for(
        _integrand(m), 0.0, "none", s=s, n_list=range(10, 101, 10), path="generic"
    )
    assert [row.value.hex() for row in report.rows] == GENERIC_ROWS[m, s]


@pytest.mark.parametrize("m", sorted(NORMS))
def test_integrand_norms(m):
    assert [v.hex() for v in harness.integrand_norms(_integrand(m))] == NORMS[m]


def test_hfp_reference():
    # panels on the offsets from t: 8.7e-12 from exact_hfp, where panels on
    # x gave -0x1.45fd1949865a9p+4, 1.3e-11 from it
    integ = _integrand(4)
    value = oracles.hfp_reference(integ.g_eval, integ.g_derivs_at_t, 4, integ.a, integ.b, T, smoothing=6)
    assert value.hex() == "-0x1.45fd194986a6cp+4"


# sha256 of the rhs w(grid) and of the solved values of the six ie-solve
# kinds, the cotangent kernel with phi = PoissonKernelU(0.25) and lam = 1.3
SOLVES = {
    ("simple", 16): ("61f96820f78c098fec6bde9dd1b9a1eeea15efe19a33f72e678db8b456174a22", "06d1f99f66e2c97d94fcd81ac60d320b183a41d70a6535a1569d08aec3d2d4ce"),
    ("simple", 64): ("8e99b33e6a8e351e41b447683647c24ae16e0202b2d1509a7a5064d770b42b5b", "4fa8f47099aa9447a541fc9c5e5aa7f651c92553d3a4bd504b4d1b4954b2832c"),
    ("simple", 256): ("60508c2e62894ecf43a8b0e08e32b2d573f9053291b1832d08a2caba35b3fe3e", "93c93d7617b40e16b6c2277ad0452dc059fea9b6b4dcf2a77f9995ba9a591650"),
    ("advanced", 16): ("11cb2c6e6c0890c58e50f10db1eb0266dbd9582b4be241fa06d3bc2facac8e23", "6bba00717273eeea587ec67f05ea202602259ef03b16ee531eabc935c7e9a9bd"),
    ("advanced", 64): ("6bf7b9795372ac912509845ab1ea96ddd4fe408d3b2a6d66a836c44e2cbb4ac5", "67342950b03bc9e87959cf2156616ed040f5c1690a61b8ec5ad7b3395277541c"),
    ("advanced", 256): ("9cc5892e5522203b0336371cbfd854b6cfec55a90a3c6d5076ae2699ed11491d", "cdb1522ac55eb32a61fffb5e805b6336e5961f8ab073c0dfa62229aaf80575ff"),
}


@pytest.mark.parametrize("approach, n", sorted(SOLVES))
def test_collocation_solve(approach, n):
    kern, phi, lam = ie_solver.supersingular_cotangent_kernel(), integrands.PoissonKernelU(0.25), 1.3
    build = ie_solver.build_simple_system if approach == "simple" else ie_solver.build_advanced_system
    system = build(kern, ie_solver.manufactured_rhs(kern, phi, lam), lam, n)
    values = ie_solver.solve_collocation(system).values
    assert tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (system.rhs, values)) == SOLVES[approach, n]
