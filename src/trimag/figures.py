"""Deterministic figure-data generation.

Each entry point writes plot-ready CSV files for one figure of the study:
eigenvalue surfaces with their second-order degeneracy lines, manifold
eigenvalue cuts, perturbation response on log-log axes, and the three
sensitivity factors versus perturbation.  Every value is written as
%.12g, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import cubic_coeffs, locate_ep3
from .cubic import cardano_roots_batch, match_to_previous
from .params import (
    DEFAULT_TOL,
    GAMMA_MHZ,
    SymmetricParams,
    ValidationError,
    mhz,
    to_mhz,
)
from .sensing import SensitivityChain, exact_eigenshift, fit_loglog_slope
from .spectrum import EXPERIMENTAL_FLOOR_DB, csv_text

#: perturbation window of the fig3c response datasets and fits, MHz
RESPONSE_WINDOW_MHZ = (1e-4, 1e-2)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write the rows under header, every value as %.12g."""
    formats = ["%.12g"] * (header.count(",") + 1)
    path.write_text(csv_text(header, formats, rows))


def eigenvalue_surfaces(gamma: float, g_grid, d_grid) -> np.ndarray:
    """Eigenvalues (rad/us) over (delta, g), shape (len(d_grid), len(g_grid), 3).

    The cubics of all grid points are solved in one batched call, which
    gives each point the bits of its own scalar closed form.  At the first
    g the three roots are sorted by (real, imag); after that the branches
    are continued along g, all delta rows together, one g column at a time.
    """
    g = mhz(np.asarray(g_grid, dtype=float))
    d = mhz(np.asarray(d_grid, dtype=float))
    # every point passes SymmetricParams's checks when the grid's extremes do
    SymmetricParams(gamma, float(g.min()), float(d.min()))
    SymmetricParams(gamma, float(g.max()), float(d.max()))
    coeffs = cubic_coeffs(gamma, g, d[:, None])
    ev = cardano_roots_batch(coeffs.c0, coeffs.c1).reshape(d.size, g.size, 3)
    first = ev[:, 0]
    ev[:, 0] = np.take_along_axis(first, np.lexsort((first.imag, first.real)),
                                  axis=-1)
    for j in range(1, ev.shape[1]):
        ev[:, j] = match_to_previous(ev[:, j], ev[:, j - 1])
    return ev


def ep2_locus_g(gamma_mhz: float, delta_mhz) -> np.ndarray:
    """Couplings g (MHz) where two eigenvalues merge, at each detuning.

    27*c0^2 + 4*c1^3 = 0 is cubic in t = g^2 with coefficients polynomial
    in s = delta^2.  They are written in factored form, so that the terms
    that vanish with s vanish exactly instead of by cancellation.  The
    cubics of all detunings are solved in one companion-matrix eigensolve,
    built as np.roots builds it.  Row j holds the g of the real positive
    roots of delta_mhz[j], ascending, padded with NaN to three.  The
    equation is scale-invariant, so it is solved directly in MHz units.
    """
    d = np.atleast_1d(np.asarray(delta_mhz, dtype=float))
    gam2 = gamma_mhz * gamma_mhz
    s = d * d
    w = 9.0 * gam2 + s
    lead = -32.0
    tail = np.column_stack([
        12.0 * (3.0 * gam2 - 4.0 * s),
        24.0 * s * (15.0 * gam2 - s),
        -4.0 * s * (w * w),
    ])
    companion = np.zeros((d.size, 3, 3))
    companion[:, 0] = -tail / lead
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    # np.roots drops a vanishing constant term and appends the root t = 0,
    # which the t > 0 filter below discards; those rows solve the quadratic
    quadratic = tail[:, 2] == 0
    t = np.zeros((d.size, 3), dtype=complex)
    t[~quadratic] = np.linalg.eigvals(companion[~quadratic])
    t[quadratic, :2] = np.linalg.eigvals(companion[quadratic, :2, :2])
    real = (np.abs(t.imag) <= 1e-9 * np.maximum(1.0, np.abs(t))) & (t.real > 0)
    return np.sort(np.sqrt(np.where(real, t.real, np.nan)), axis=-1)


def manifold_rows(gamma_mhz: float, axis: str, values_mhz) -> np.ndarray:
    """Manifold eigenvalue rows along g or delta, all in MHz.

    Columns: the axis value, the other parameter on the manifold
    g^2 = delta^2 + gamma^2, then Re/Im of the eigenvalues {0, +s, -s},
    s = sqrt(3g^2 - 4gamma^2) (see core.eigenvalues_on_manifold).  Along
    g, rows with g < gamma have no manifold point and hold NaN after the
    first column.
    """
    gamma = mhz(gamma_mhz)
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValidationError(f"gamma must be > 0, got {gamma_mhz!r} MHz")
    values_mhz = np.asarray(values_mhz, dtype=float)
    x = mhz(values_mhz)
    with np.errstate(invalid="ignore", over="ignore"):
        if axis == "g":
            g, delta = x, np.sqrt(x * x - gamma * gamma)
            valid = x >= gamma
        else:  # gamma ** 2 as the per-point cut had it (pow, not gamma * gamma)
            g, delta = np.sqrt(x * x + gamma ** 2), x
            valid = np.ones(x.shape, dtype=bool)
        scale = np.maximum(g * g, delta * delta + gamma * gamma)
        defect = np.abs(g * g - delta * delta - gamma * gamma)
    if np.any(valid & ~(defect <= DEFAULT_TOL * np.maximum(scale, 1e-30))):
        raise ValidationError("parameters are off the pseudo-Hermitian manifold")
    radicand = 3.0 * g * g - 4.0 * gamma * gamma
    s = np.sqrt(np.abs(radicand))
    s_re = np.where(radicand >= 0.0, s, 0.0)
    s_im = np.where(radicand >= 0.0, 0.0, s)
    zero = np.zeros_like(s)
    table = np.column_stack([
        values_mhz,
        to_mhz(delta if axis == "g" else g),
        to_mhz(np.column_stack([zero, zero, s_re, s_im, -s_re, -s_im])),
    ])
    table[~valid, 1:] = math.nan
    return table


def generate_fig2(outdir: Path) -> list[Path]:
    """Eigenvalue surfaces, degeneracy lines and manifold cuts."""
    gamma = mhz(GAMMA_MHZ)
    paths = []

    # surfaces over (g, delta); branches continued along g at fixed delta
    g_grid = np.linspace(0.0, 8.0, 33)
    d_grid = np.linspace(-5.0, 5.0, 41)
    ev = to_mhz(eigenvalue_surfaces(gamma, g_grid, d_grid).reshape(-1, 3))
    rows = np.column_stack([np.tile(g_grid, d_grid.size),
                            np.repeat(d_grid, g_grid.size),
                            ev.view(float)])
    p = outdir / "fig2_surfaces.csv"
    _write_csv(p, "g_mhz,delta_mhz,re0_mhz,im0_mhz,re1_mhz,im1_mhz,re2_mhz,im2_mhz",
               rows)
    paths.append(p)

    # second-order degeneracy lines
    d_grid = np.linspace(-5.0, 5.0, 201)
    g = ep2_locus_g(GAMMA_MHZ, d_grid)
    row, branch = np.nonzero(g <= 8.0)
    p = outdir / "fig2_ep2_lines.csv"
    _write_csv(p, "delta_mhz,g_mhz,branch",
               np.column_stack([d_grid[row], g[row, branch], branch]))
    paths.append(p)

    # third-order degeneracy annotation
    point = locate_ep3(gamma)
    p = outdir / "fig2_ep3.csv"
    _write_csv(p, "gamma_mhz,g_ep3_mhz,delta_ep3_mhz",
               [[GAMMA_MHZ, to_mhz(point.g), to_mhz(point.delta)]])
    paths.append(p)

    columns = "re0_mhz,im0_mhz,re_plus_mhz,im_plus_mhz,re_minus_mhz,im_minus_mhz"
    # manifold cut versus g (delta = sqrt(g^2 - gamma^2))
    p = outdir / "fig2_manifold_vs_g.csv"
    _write_csv(p, "g_mhz,delta_mhz," + columns,
               manifold_rows(GAMMA_MHZ, "g", np.linspace(GAMMA_MHZ, 8.0, 201)))
    paths.append(p)

    # manifold cut versus delta (g = sqrt(delta^2 + gamma^2))
    p = outdir / "fig2_manifold_vs_delta.csv"
    _write_csv(p, "delta_mhz,g_mhz," + columns,
               manifold_rows(GAMMA_MHZ, "delta", np.linspace(-5.0, 5.0, 201)))
    paths.append(p)
    return paths


def response_sweep(g_mhz: float) -> np.ndarray:
    """(delta_b_mhz, |delta_omega|_mhz) rows from the exact cubic, 50 points
    across RESPONSE_WINDOW_MHZ."""
    sym = SymmetricParams.manifold_point(mhz(GAMMA_MHZ), mhz(g_mhz))
    bs = np.geomspace(*RESPONSE_WINDOW_MHZ, 50)
    return np.column_stack([bs, np.abs(exact_eigenshift(sym, mhz(bs)))])


def generate_fig3c(outdir: Path) -> list[Path]:
    """Log-log response datasets at and away from the degeneracy."""
    g_values = [to_mhz(locate_ep3(mhz(GAMMA_MHZ)).g), 4.59]
    rows, fit_rows = [], []
    for g in g_values:
        data = response_sweep(g)
        rows.extend([g, b, w] for b, w in data)
        fit = fit_loglog_slope(data, RESPONSE_WINDOW_MHZ)
        fit_rows.append([g, fit.slope, fit.intercept, fit.r_squared,
                         fit.window[0], fit.window[1]])
    p1 = outdir / "fig3c_response.csv"
    _write_csv(p1, "g_mhz,delta_b_mhz,delta_omega_mhz", rows)
    p2 = outdir / "fig3c_fits.csv"
    _write_csv(p2, "g_mhz,slope,intercept,r_squared,window_lo_mhz,window_hi_mhz",
               fit_rows)
    return [p1, p2]


def generate_fig3d(outdir: Path) -> list[Path]:
    """Degeneracy sensitivity factor versus perturbation."""
    chain = SensitivityChain.at_ep3(np.geomspace(1e-4, 0.05, 100),
                                    EXPERIMENTAL_FLOOR_DB)
    p = outdir / "fig3d_gep3.csv"
    _write_csv(p, "delta_b_mhz,g_ep3", np.column_stack([chain.delta_b,
                                                         chain.g_ep3]))
    return [p]


def generate_fig3f(outdir: Path) -> list[Path]:
    """Spectral-contrast factor versus eigenvalue shift."""
    chain = SensitivityChain.at_ep3(np.geomspace(5e-3, 0.05, 13),
                                    EXPERIMENTAL_FLOOR_DB)
    p = outdir / "fig3f_gcpa.csv"
    _write_csv(p, "delta_b_mhz,delta_omega_mhz,dip_db,g_cpa_db_per_mhz",
               np.column_stack([chain.delta_b, chain.delta_omega,
                                chain.dip_db, chain.g_cpa]))
    return [p]


def generate_fig4(outdir: Path) -> list[Path]:
    """The three sensitivity factors versus perturbation.

    The smallest perturbations leave the dip on the floor; their rows
    keep the floor's contrast, 0, rather than fail.
    """
    grid = np.unique(np.append(np.geomspace(1e-3, 0.05, 17), 0.025))
    chain = SensitivityChain.at_ep3(grid, EXPERIMENTAL_FLOOR_DB)
    p = outdir / "fig4_factors.csv"
    _write_csv(p, "delta_b_mhz,g_ep3,g_cpa_db_per_mhz,g_syn_db_per_mhz",
               np.column_stack([chain.delta_b, chain.g_ep3, chain.g_cpa,
                                chain.g_syn]))
    return [p]


#: figure name -> the function that writes its data files
FIGURES = {
    "fig2": generate_fig2,
    "fig3c": generate_fig3c,
    "fig3d": generate_fig3d,
    "fig3f": generate_fig3f,
    "fig4": generate_fig4,
}


def generate(figure: str, outdir: str | Path) -> list[Path]:
    """Write the data files for one figure name into outdir."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; "
                         f"choose from {tuple(FIGURES)}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return FIGURES[figure](outdir)
