"""Array figure pipelines against the per-point code they replaced."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimag.core import cubic_coeffs, eigenvalues_on_manifold
from trimag.cubic import cardano_roots, match_to_previous
from trimag.figures import eigenvalue_surfaces, ep2_locus_g, manifold_rows
from trimag.params import SymmetricParams, ValidationError, mhz, to_mhz
from trimag.spectrum import csv_text

from oracles import as_array, csv_text_whole_table
from strategies import float_tables

GAMMA_MHZ = 3.0


def surfaces_per_point(gamma, g_grid, d_grid):
    """The fig2 surface loop: one solve and one match per (delta, g) point."""
    out = []
    for d in d_grid:
        prev, row = None, []
        for g in g_grid:
            sym = SymmetricParams(gamma=gamma, g=mhz(g), delta=mhz(d))
            ev = as_array(cardano_roots(
                cubic_coeffs(sym.gamma, sym.g, sym.delta)))
            if prev is None:
                ev = ev[np.lexsort((ev.imag, ev.real))]
            else:
                ev = match_to_previous(ev, prev)
            prev = ev
            row.append(ev)
        out.append(row)
    return np.array(out)


def ep2_locus_per_delta(gamma_mhz, delta_mhz):
    """The per-detuning np.roots solve of the EP2 locus, on the array
    code's coefficients."""
    gam2 = gamma_mhz * gamma_mhz
    s = delta_mhz * delta_mhz
    w = 9.0 * gam2 + s
    coeffs = [-32.0, 12.0 * (3.0 * gam2 - 4.0 * s),
              24.0 * s * (15.0 * gam2 - s), -4.0 * s * (w * w)]
    g = sorted(math.sqrt(t.real) for t in np.roots(coeffs)
               if abs(t.imag) <= 1e-9 * max(1.0, abs(t)) and t.real > 0)
    return g + [math.nan] * (3 - len(g))


def ep2_discriminant_exact(gamma_mhz, delta_mhz, g_mhz):
    """27*c0^2 + 4*c1^3 of the symmetric cubic and its t = g^2 derivative,
    in exact rationals from the unfactored coefficients."""
    gam2 = Fraction(gamma_mhz) ** 2
    s = Fraction(delta_mhz) ** 2
    t = Fraction(g_mhz) ** 2
    a = s + gam2 - t          # c0 = 2i*gamma*a
    b = 3 * gam2 - 2 * t - s  # c1 = b
    return -108 * gam2 * a * a + 4 * b ** 3, 216 * gam2 * a - 24 * b * b, t


DELTAS = np.concatenate([np.linspace(-5.0, 5.0, 201),
                         np.random.default_rng(5).uniform(-8.0, 8.0, 300),
                         [1e-9, -3e-7]])


@pytest.mark.parametrize("gamma_mhz", [GAMMA_MHZ, 0.7, 2.5])
def test_ep2_locus_roots_are_exact_to_rounding(gamma_mhz):
    # the relative Newton step |D/(t*D')| of the exact discriminant bounds
    # each root's relative error; near the EP3 cusp the double root of D
    # in t allows about sqrt(eps)
    got = ep2_locus_g(gamma_mhz, DELTAS)
    for d, row in zip(DELTAS, got):
        for g in row[np.isfinite(row)]:
            value, slope, t = ep2_discriminant_exact(gamma_mhz, d, g)
            assert abs(value) <= 1e-7 * abs(slope) * t


@pytest.mark.parametrize("gamma_mhz", [GAMMA_MHZ, 0.7, 7.56])
def test_ep2_locus_small_detuning_law(gamma_mhz):
    # g = sqrt(3*gamma*|delta|)*(1 - |delta|/(6*gamma) + ...); at delta = 0
    # the double root t = 0 is no EP2 point, so only g > gamma is left
    for delta in gamma_mhz * np.geomspace(1e-12, 1e-6, 7):
        for d in (delta, -delta):
            g = ep2_locus_g(gamma_mhz, d)[0, 0]
            assert g == pytest.approx(math.sqrt(3 * gamma_mhz * delta), rel=1e-6)
    assert np.all(np.nan_to_num(ep2_locus_g(gamma_mhz, 0.0), nan=math.inf)
                  > gamma_mhz)


@pytest.mark.parametrize("gamma_mhz,delta_mhz", [
    (7.559779775880585, 7.559779775880585e-09),
    (9.640341641165211, 8.5400585081157e-08),
])
def test_ep2_locus_with_rounded_away_constant_term(gamma_mhz, delta_mhz):
    # the expanded constant term 4u^3 - 108*gamma^2*v^2 (u = 3*gamma^2 -
    # delta^2, v = delta^2 + gamma^2) cancelled to about 1e-13 here, which
    # put the small root at g ~ 2e-7; the factored form keeps it
    got = ep2_locus_g(gamma_mhz, np.array([delta_mhz]))
    assert np.array_equal(got[0], ep2_locus_per_delta(gamma_mhz, delta_mhz),
                          equal_nan=True)
    assert got[0, 0] == pytest.approx(math.sqrt(3 * gamma_mhz * delta_mhz),
                                      rel=1e-6)


def manifold_rows_per_point(gamma_mhz, axis, values):
    """The per-point manifold cuts of fig2 and the CLI eigenvalue sweep."""
    gamma = mhz(gamma_mhz)
    rows = []
    for v in values:
        if axis == "g":
            if mhz(v) < gamma:
                rows.append([v] + [math.nan] * 7)
                continue
            sym = SymmetricParams.manifold_point(gamma, mhz(v))
            other = sym.delta
        else:
            sym = SymmetricParams(gamma=gamma, delta=mhz(v),
                                  g=math.sqrt(mhz(v) ** 2 + gamma ** 2))
            other = sym.g
        ev = as_array(eigenvalues_on_manifold(sym))
        rows.append([v, to_mhz(other)]
                    + [to_mhz(x) for pair in ev for x in (pair.real, pair.imag)])
    return np.array(rows)


@pytest.mark.parametrize("gamma_mhz,g_grid,d_grid", [
    (GAMMA_MHZ, np.linspace(0.0, 8.0, 33), np.linspace(-5.0, 5.0, 41)),
    (1.3, np.linspace(0.0, 4.0, 17), np.linspace(-3.0, 2.0, 23)),
], ids=["fig2", "other"])
def test_surfaces_match_per_point_loop(gamma_mhz, g_grid, d_grid):
    gamma = mhz(gamma_mhz)
    assert np.array_equal(eigenvalue_surfaces(gamma, g_grid, d_grid),
                          surfaces_per_point(gamma, g_grid, d_grid))


@pytest.mark.parametrize("g_grid,d_grid", [
    ([0.0, math.nan], [0.0]), ([-1.0, 2.0], [0.0]), ([0.0, math.inf], [0.0]),
    ([1.0], [0.0, -math.inf]), ([1.0], [math.nan]),
], ids=["g_nan", "g_negative", "g_inf", "delta_inf", "delta_nan"])
def test_surfaces_reject_what_symmetric_params_rejects(g_grid, d_grid):
    with pytest.raises(ValidationError):
        eigenvalue_surfaces(mhz(GAMMA_MHZ), np.array(g_grid), np.array(d_grid))


def test_ep2_locus_matches_per_delta_roots():
    # the grid holds delta = 0, where the constant and linear terms vanish
    assert 0.0 in DELTAS
    for gamma_mhz in (GAMMA_MHZ, 0.7, 2.5):
        got = ep2_locus_g(gamma_mhz, DELTAS)
        assert got.shape == (DELTAS.size, 3)
        assert np.array_equal(
            got, [ep2_locus_per_delta(gamma_mhz, d) for d in DELTAS],
            equal_nan=True)


def test_ep2_locus_scalar_input_gives_one_row():
    assert ep2_locus_g(GAMMA_MHZ, 1.0).shape == (1, 3)


@pytest.mark.parametrize("axis,values", [
    ("g", np.linspace(GAMMA_MHZ, 8.0, 201)),
    ("g", np.linspace(0.0, 8.0, 17)),
    ("delta", np.linspace(-5.0, 5.0, 201)),
])
def test_manifold_rows_match_per_point_loop(axis, values):
    got = manifold_rows(GAMMA_MHZ, axis, values)
    expected = manifold_rows_per_point(GAMMA_MHZ, axis, values)
    # same bytes in the files; signed zeros included
    formats = ["%.12g"] * got.shape[1]
    assert csv_text("h", formats, got) == csv_text("h", formats, expected)


def test_manifold_rows_reject_nonpositive_gamma():
    with pytest.raises(ValidationError):
        manifold_rows(0.0, "delta", [0.0, 1.0])


@settings(max_examples=25, deadline=None)
@example(table=np.array([[0.0, -0.0, math.nan, 1e20, 2, -3.25e-7],
                         [math.inf, 1.0 / 3.0, 123456789012345.0, -1.5, 0, 7]]))
@given(table=st.integers(1, 8).flatmap(float_tables))
def test_csv_text_matches_per_value_format(table):
    formats = ["%.12g"] * table.shape[1]
    text = csv_text("a,b", formats, table)
    assert text == "a,b\n" + "".join(
        ",".join(f"{float(v):.12g}" for v in row) + "\n" for row in table)
    assert text == csv_text_whole_table("a,b", table)
