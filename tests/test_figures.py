"""Array figure pipelines against the per-point code they replaced."""

import math

import numpy as np
import pytest

from trimag.core import cubic_coeffs, eigenvalues_on_manifold
from trimag.cubic import cardano_roots, match_to_previous
from trimag.figures import (
    csv_text,
    eigenvalue_surfaces,
    ep2_locus_g,
    manifold_rows,
)
from trimag.params import SymmetricParams, ValidationError, mhz, to_mhz

GAMMA_MHZ = 3.0


def surfaces_per_point(gamma, g_grid, d_grid):
    """The fig2 surface loop: one solve and one match per (delta, g) point."""
    out = []
    for d in d_grid:
        prev, row = None, []
        for g in g_grid:
            sym = SymmetricParams(gamma=gamma, g=mhz(g), delta=mhz(d))
            ev = cardano_roots(cubic_coeffs(sym)).as_array()
            if prev is None:
                ev = ev[np.lexsort((ev.imag, ev.real))]
            else:
                ev = match_to_previous(ev, prev)
            prev = ev
            row.append(ev)
        out.append(row)
    return np.array(out)


def ep2_locus_per_delta(gamma_mhz, delta_mhz, u_cubed=None):
    """The per-detuning np.roots solve of the EP2 locus.

    u**3 of a scalar is libm's pow, which the array power need not match
    in the last bit; u_cubed passes the array's value in instead.
    """
    gam2 = gamma_mhz * gamma_mhz
    u = 3.0 * gam2 - delta_mhz * delta_mhz
    v = delta_mhz * delta_mhz + gam2
    coeffs = [-32.0, 48.0 * u - 108.0 * gam2,
              -24.0 * u * u + 216.0 * gam2 * v,
              4.0 * (u ** 3 if u_cubed is None else u_cubed)
              - 108.0 * gam2 * v * v]
    g = sorted(math.sqrt(t.real) for t in np.roots(coeffs)
               if abs(t.imag) <= 1e-9 * max(1.0, abs(t)) and t.real > 0)
    return g + [math.nan] * (3 - len(g))


def ep2_locus_reference(gamma_mhz, deltas):
    u_cubed = (3.0 * (gamma_mhz * gamma_mhz) - deltas * deltas) ** 3
    return [ep2_locus_per_delta(gamma_mhz, d, c) for d, c in zip(deltas, u_cubed)]


DELTAS = np.concatenate([np.linspace(-5.0, 5.0, 201),
                         np.random.default_rng(5).uniform(-8.0, 8.0, 300)])


@pytest.mark.parametrize("gamma_mhz", [GAMMA_MHZ, 0.7, 2.5])
def test_ep2_locus_matches_per_delta_roots(gamma_mhz):
    got = ep2_locus_g(gamma_mhz, DELTAS)
    # the grid holds delta = 0, where the constant term vanishes
    assert 0.0 in DELTAS
    assert np.array_equal(got, ep2_locus_reference(gamma_mhz, DELTAS),
                          equal_nan=True)
    assert np.allclose(got, [ep2_locus_per_delta(gamma_mhz, d) for d in DELTAS],
                       rtol=1e-12, atol=0.0, equal_nan=True)


@pytest.mark.parametrize("gamma_mhz,delta_mhz", [
    (7.559779775880585, 7.559779775880585e-09),
    (9.640341641165211, 8.5400585081157e-08),
])
def test_ep2_locus_with_rounded_away_constant_term(gamma_mhz, delta_mhz):
    # rounding can zero the constant term alone; np.roots then solves the
    # quadratic, whose small root differs from the 3x3 eigensolve's
    deltas = np.array([delta_mhz])
    assert np.array_equal(ep2_locus_g(gamma_mhz, deltas),
                          ep2_locus_reference(gamma_mhz, deltas),
                          equal_nan=True)


def test_ep2_locus_scalar_input_gives_one_row():
    assert ep2_locus_g(GAMMA_MHZ, 1.0).shape == (1, 3)


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
        ev = eigenvalues_on_manifold(sym).as_array()
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


def test_ep2_locus_matches_per_delta_roots():
    rng = np.random.default_rng(5)
    deltas = np.concatenate([np.linspace(-5.0, 5.0, 201),
                             rng.uniform(-8.0, 8.0, 300), [0.0]])
    for gamma_mhz in (GAMMA_MHZ, 0.7, 2.5):
        got = ep2_locus_g(gamma_mhz, deltas)
        assert got.shape == (deltas.size, 3)
        for d, row in zip(deltas, got):
            expected = ep2_locus_per_delta(gamma_mhz, d)
            padded = expected + [math.nan] * (3 - len(expected))
            # the per-delta u**3 is libm pow, the array one need not be
            assert np.allclose(row, padded, rtol=1e-12, atol=0, equal_nan=True)


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
    assert csv_text("h", got) == csv_text("h", expected)


def test_manifold_rows_reject_nonpositive_gamma():
    with pytest.raises(ValidationError):
        manifold_rows(0.0, "delta", [0.0, 1.0])


def test_csv_text_matches_per_value_format():
    rows = [[0.0, -0.0, math.nan, 1e20, 2, -3.25e-7],
            [math.inf, 1.0 / 3.0, 123456789012345.0, -1.5, 0, 7]]
    expected = "a,b\n" + "".join(
        ",".join(f"{float(v):.12g}" for v in row) + "\n" for row in rows)
    assert csv_text("a,b", rows) == expected
