import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimag.core import cubic_coeffs, locate_ep3
from trimag.cubic import (
    RESIDUAL_TOL,
    ComplexTriple,
    CubicCoeffs,
    cardano_roots,
    cardano_roots_batch,
    match_to_previous,
)
from trimag.params import SymmetricParams, mhz
from trimag.sensing import TRUST_RADIUS, _depressed_cubic

from oracles import (
    as_array,
    companion_roots,
    cubic_scale,
    ep2_discriminant,
    max_residual,
    multiset_distance,
)


GAMMA = mhz(3.0)


def random_coeffs(rng):
    c0 = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
    c1 = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
    return CubicCoeffs(c0=c0, c1=c1)


def test_triple_root_at_origin():
    roots = cardano_roots(CubicCoeffs(0j, 0j))
    assert all(x == 0 for x in roots)


def test_decoupled_example_roots():
    # x^3 + 3x + 2i = 0 has roots {2i, -i, -i}
    roots = cardano_roots(CubicCoeffs(c0=2j, c1=3.0 + 0j))
    expected = np.array([2j, -1j, -1j])
    got = sorted(roots, key=lambda z: z.imag)
    assert np.allclose(sorted(expected, key=lambda z: z.imag), got, atol=1e-12)
    assert max_residual(roots, CubicCoeffs(2j, 3.0 + 0j)) < 1e-12


def test_residual_bound_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        coeffs = random_coeffs(rng)
        roots = cardano_roots(coeffs)
        bound = 1e-9 * max(1.0, abs(coeffs.c0), abs(coeffs.c1) ** 1.5)
        assert max_residual(roots, coeffs) <= bound


def test_root_sum_zero_and_vieta():
    rng = np.random.default_rng(11)
    for _ in range(500):
        coeffs = random_coeffs(rng)
        e1, e2, e3 = cardano_roots(coeffs)
        scale = max(1.0, abs(e1), abs(e2), abs(e3))
        assert abs(e1 + e2 + e3) <= 1e-9 * scale
        assert abs(e1 * e2 + e1 * e3 + e2 * e3 - coeffs.c1) <= 1e-9 * scale ** 2
        assert abs(e1 * e2 * e3 + coeffs.c0) <= 1e-9 * scale ** 3


def test_companion_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        coeffs = random_coeffs(rng)
        closed = cardano_roots(coeffs)
        oracle = companion_roots(coeffs)
        assert multiset_distance(closed, oracle) <= 1e-9


@pytest.mark.parametrize("c0,c1,expected", [
    (0j, 0j, 0j),
    (2j, 3.0 + 0j, 27 * (2j) ** 2 + 4 * 27),  # = -108 + 108 = 0
])
def test_ep2_discriminant_zeros(c0, c1, expected):
    assert ep2_discriminant(CubicCoeffs(c0, c1)) == pytest.approx(expected)


def test_ep2_discriminant_detects_double_root():
    # the decoupled point has a repeated root, so the discriminant vanishes
    assert abs(ep2_discriminant(CubicCoeffs(2j, 3.0 + 0j))) < 1e-12


def test_multiset_distance_handles_permutation():
    a = cardano_roots(CubicCoeffs(1.0 + 1j, -2.0 + 0j))
    b_arr = as_array(a)[[2, 0, 1]]
    b = ComplexTriple(*b_arr)
    assert multiset_distance(a, b) == 0.0


# coefficient parts bounded away from underflow: c1**3 stays a normal float
PART = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
COEFFICIENT = st.builds(complex, PART, PART)
RANDOM_CUBIC = st.tuples(COEFFICIENT, COEFFICIENT)
# x**3 + s*c1*x + s*c0 with s in [1e-12, 1e-6]: all three roots near zero
NEAR_TRIPLE_CUBIC = st.builds(
    lambda c0, c1, k: (c0 * 10.0 ** k, c1 * 10.0 ** k),
    COEFFICIENT, COEFFICIENT, st.floats(-12.0, -6.0))


# parts down to 1e-300, where c0**2/4 and c1**3/27 underflow: with c0 = 0
# both radicals vanish although c1 != 0
TINY_CUBIC = st.builds(
    lambda c0, c1, k: (c0 * 10.0 ** k, c1 * 10.0 ** k),
    COEFFICIENT, COEFFICIENT, st.floats(-300.0, -100.0))
# subnormal parts, where the square root of the radicand scales it up
SUBNORMAL_CUBIC = st.builds(
    lambda c0, c1, k: (c0 * 10.0 ** k, c1 * 10.0 ** k),
    COEFFICIENT, COEFFICIENT, st.floats(-321.0, -309.0))
# roots up to 1e51: c0**2 and c1**3 stay finite, so the closed form does
HUGE_CUBIC = st.builds(
    lambda c0, c1, k: (c0 * 10.0 ** (3 * k), c1 * 10.0 ** (2 * k)),
    COEFFICIENT, COEFFICIENT, st.floats(30.0, 50.0))
ANY_CUBIC = st.one_of(RANDOM_CUBIC, NEAR_TRIPLE_CUBIC, TINY_CUBIC,
                      SUBNORMAL_CUBIC, HUGE_CUBIC)
# Python complex and numpy's complex128 give the scalar the same bits
COEFFICIENT_TYPE = st.sampled_from([complex, np.complex128])


def min_separation(triple: ComplexTriple) -> float:
    return min(abs(a - b) for a, b in itertools.combinations(triple, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(ANY_CUBIC, min_size=1, max_size=12), COEFFICIENT_TYPE)
# c1**3 is real and negative, so |z+| = |z-| and rounding picks the radical
@example(rows=[(0j, 0j), (0j, 0j), (0j, 0j),
               (1 + 0j, 2 + 2 * math.sqrt(3) * 1j)], kind=complex)
def test_batch_matches_scalar_and_oracle(rows, kind):
    c0, c1 = np.array(rows, dtype=complex).T
    batch = cardano_roots_batch(c0, c1)
    assert batch.shape == (len(rows), 3)
    for (a0, a1), got in zip(rows, batch):
        coeffs = CubicCoeffs(kind(a0), kind(a1))
        scale = cubic_scale(coeffs)
        triple = ComplexTriple(*got)
        scalar = cardano_roots(coeffs)
        # the scalar's roots, bit for bit and in its order
        assert got.tolist() == list(scalar)
        assert max_residual(triple, coeffs) <= RESIDUAL_TOL * scale ** 3
        # the companion eigensolve loses half the digits at a double root
        # (Kahan 1986), so the oracle is held to 1e-9 where roots separate;
        # its error grows with the roots, so beyond magnitude 10 the bound
        # does too
        if min_separation(scalar) > 1e-4 * scale:
            assert (multiset_distance(triple, companion_roots(coeffs))
                    <= 1e-9 * max(1.0, scale / 10.0))


@settings(max_examples=300, deadline=None)
@given(ANY_CUBIC)
@example(row=(1.1 + 0j, complex(-1.46, -0.0)))
def test_scalar_bits_do_not_depend_on_coefficient_type(row):
    a0, a1 = row
    python = cardano_roots(CubicCoeffs(complex(a0), complex(a1)))
    numpy = cardano_roots(CubicCoeffs(np.complex128(a0), np.complex128(a1)))
    assert list(numpy) == list(python)


def _ramp_cubics(g):
    sym = locate_ep3(GAMMA) if g is None else SymmetricParams.manifold_point(
        GAMMA, g)
    bs = np.linspace(-1.0, 1.0, 6000) * TRUST_RADIUS * sym.gamma
    coeffs = _depressed_cubic(sym, bs)
    return coeffs.c0, coeffs.c1


def _fig2_cubics():
    coeffs = cubic_coeffs(GAMMA, mhz(np.linspace(0.0, 8.0, 33)),
                          mhz(np.linspace(-5.0, 5.0, 41))[:, None])
    return coeffs.c0.ravel(), coeffs.c1.ravel()


@pytest.mark.parametrize("cubics", [
    _fig2_cubics, lambda: _ramp_cubics(None), lambda: _ramp_cubics(mhz(3.47)),
], ids=["fig2_surfaces", "ramp_at_ep3", "ramp_at_g3.47"])
def test_batch_is_the_scalar_on_the_models_cubics(cubics):
    c0, c1 = cubics()
    batch = cardano_roots_batch(c0, c1)
    for a0, a1, got in zip(c0.tolist(), c1.tolist(), batch.tolist()):
        assert got == list(cardano_roots(CubicCoeffs(a0, a1)))


def test_batch_zero_rows_and_empty_input():
    roots = cardano_roots_batch([0j, 2j, 0j], [0j, 3.0 + 0j, 0j])
    assert np.all(roots[[0, 2]] == 0)
    assert multiset_distance(ComplexTriple(*roots[1]),
                             ComplexTriple(2j, -1j, -1j)) <= 1e-12
    assert cardano_roots_batch([], []).shape == (0, 3)


def test_match_to_previous_minimises_total_distance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        previous = rng.normal(size=3) + 1j * rng.normal(size=3)
        roots = rng.normal(size=3) + 1j * rng.normal(size=3)
        costs = {perm: float(np.sum(np.abs(roots[list(perm)] - previous)))
                 for perm in itertools.permutations(range(3))}
        best = min(costs, key=costs.get)
        assert np.array_equal(match_to_previous(roots, previous),
                              roots[list(best)])


@settings(max_examples=300, deadline=None)
@given(COEFFICIENT.filter(lambda c: c != 0), st.integers(-500, -181),
       st.sampled_from([0.0, 5e-324]))
def test_vanishing_radicals_scale_back(c1, k, c0):
    # x**3 + c1*4**k*x + c0: c1**3/27 and c0/2 underflow, so both radicals
    # vanish; the roots are 2**k times those of the cubic scaled back
    tiny = CubicCoeffs(complex(c0), c1 * 4.0 ** k)
    unscaled = CubicCoeffs(complex(math.ldexp(c0, -3 * k)), c1)
    reference = as_array(cardano_roots(unscaled)) * 2.0 ** k
    tol = 1e-12 * cubic_scale(unscaled) * 2.0 ** k
    for got in (as_array(cardano_roots(tiny)),
                cardano_roots_batch([tiny.c0], [tiny.c1])[0]):
        assert np.all(np.isfinite(got))
        assert multiset_distance(ComplexTriple(*got),
                                 ComplexTriple(*reference)) <= tol


def test_vanishing_radicals_example():
    # x**3 + 1e-120*x = 0 has roots 0 and +-1e-60 i
    expected = ComplexTriple(0j, 1e-60j, -1e-60j)
    for got in (as_array(cardano_roots(CubicCoeffs(0j, 1e-120 + 0j))),
                cardano_roots_batch([0j], [1e-120 + 0j])[0]):
        assert multiset_distance(ComplexTriple(*got), expected) <= 1e-72


def test_stacked_match_equals_per_row_calls():
    rng = np.random.default_rng(8)
    # small integer parts make equal-cost permutations (ties) common
    roots = rng.integers(-2, 3, (500, 3)) + 1j * rng.integers(-2, 3, (500, 3))
    previous = rng.integers(-2, 3, (500, 3)) + 1j * rng.integers(-2, 3, (500, 3))
    # the single-row form: the first minimum over the permutations wins
    perms = np.array(list(itertools.permutations(range(3))))
    expected = np.array([
        r[perms[np.argmin(np.sum(np.abs(r[perms] - p), axis=1))]]
        for r, p in zip(roots, previous)])
    assert np.array_equal(match_to_previous(roots, previous), expected)
