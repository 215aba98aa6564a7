"""Deterministic figure-data generation.

Each entry point writes plot-ready CSV files for one figure of the study:
eigenvalue surfaces with their second-order degeneracy lines, manifold
eigenvalue cuts, perturbation response on log-log axes, and the three
sensitivity factors versus perturbation.  Output formatting is fixed
(%.12g / %.12e) so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import cubic_coeffs, eigenvalues_on_manifold, locate_ep3
from .cubic import cardano_roots, match_to_previous
from .params import SymmetricParams, mhz, to_mhz
from .sensing import (
    eigenshift_sweep,
    fit_loglog_slope,
    g_cpa_factor,
    g_ep3_factor,
    synthetic_sensitivity,
)
from .spectrum import EXPERIMENTAL_FLOOR_DB, spectrum_dip

GAMMA_MHZ = 3.0
KAPPA1_MHZ = 4.0
KAPPA2_MHZ = 4.0

FIGURES = ("fig2", "fig3c", "fig3d", "fig3f", "fig4")


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def _write_csv(path: Path, header: str, rows: Iterable[Iterable[float]]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _symmetric_eigenvalues(gamma, g, delta) -> np.ndarray:
    sym = SymmetricParams(gamma=gamma, g=g, delta=delta)
    return cardano_roots(cubic_coeffs(sym)).as_array()


def ep2_locus_g(gamma_mhz: float, delta_mhz: float) -> list[float]:
    """Couplings g (MHz) where two eigenvalues merge, at fixed detuning.

    27*c0^2 + 4*c1^3 = 0 is cubic in t = g^2; real positive roots are
    returned sorted ascending.  The equation is scale-invariant, so it is
    solved directly in MHz units.
    """
    gam2 = gamma_mhz * gamma_mhz
    u = 3.0 * gam2 - delta_mhz * delta_mhz
    v = delta_mhz * delta_mhz + gam2
    coeffs = [
        -32.0,
        48.0 * u - 108.0 * gam2,
        -24.0 * u * u + 216.0 * gam2 * v,
        4.0 * u ** 3 - 108.0 * gam2 * v * v,
    ]
    roots = np.roots(coeffs)
    out = []
    for t in roots:
        if abs(t.imag) <= 1e-9 * max(1.0, abs(t)) and t.real > 0:
            out.append(math.sqrt(t.real))
    return sorted(out)


def generate_fig2(outdir: Path, gamma_mhz: float = GAMMA_MHZ) -> list[Path]:
    """Eigenvalue surfaces, degeneracy lines and manifold cuts."""
    gamma = mhz(gamma_mhz)
    paths = []

    # surfaces over (g, delta); branches continued along g at fixed delta
    g_grid = np.linspace(0.0, 8.0, 33)
    d_grid = np.linspace(-5.0, 5.0, 41)
    rows = []
    for d in d_grid:
        prev = None
        for g in g_grid:
            ev = _symmetric_eigenvalues(gamma, mhz(g), mhz(d))
            if prev is None:
                ev = ev[np.lexsort((ev.imag, ev.real))]
            else:
                ev = match_to_previous(ev, prev)
            prev = ev
            rows.append([g, d,
                         to_mhz(ev[0].real), to_mhz(ev[0].imag),
                         to_mhz(ev[1].real), to_mhz(ev[1].imag),
                         to_mhz(ev[2].real), to_mhz(ev[2].imag)])
    p = outdir / "fig2_surfaces.csv"
    _write_csv(p, "g_mhz,delta_mhz,re0_mhz,im0_mhz,re1_mhz,im1_mhz,re2_mhz,im2_mhz",
               rows)
    paths.append(p)

    # second-order degeneracy lines
    rows = []
    for d in np.linspace(-5.0, 5.0, 201):
        for branch, g in enumerate(ep2_locus_g(gamma_mhz, d)):
            if g <= 8.0:
                rows.append([d, g, branch])
    p = outdir / "fig2_ep2_lines.csv"
    _write_csv(p, "delta_mhz,g_mhz,branch", rows)
    paths.append(p)

    # third-order degeneracy annotation
    point = locate_ep3(gamma)
    p = outdir / "fig2_ep3.csv"
    _write_csv(p, "gamma_mhz,g_ep3_mhz,delta_ep3_mhz",
               [[gamma_mhz, to_mhz(point.g_ep3), to_mhz(point.delta_ep3)]])
    paths.append(p)

    # manifold cut versus g (delta = sqrt(g^2 - gamma^2))
    rows = []
    for g in np.linspace(gamma_mhz, 8.0, 201):
        sym = SymmetricParams.manifold_point(gamma, mhz(g))
        ev = eigenvalues_on_manifold(sym).as_array()
        rows.append([g, to_mhz(sym.delta)]
                    + [to_mhz(x) for pair in ev for x in (pair.real, pair.imag)])
    p = outdir / "fig2_manifold_vs_g.csv"
    _write_csv(p, "g_mhz,delta_mhz,re0_mhz,im0_mhz,re_plus_mhz,im_plus_mhz,"
                  "re_minus_mhz,im_minus_mhz", rows)
    paths.append(p)

    # manifold cut versus delta (g = sqrt(delta^2 + gamma^2))
    rows = []
    for d in np.linspace(-5.0, 5.0, 201):
        g = math.sqrt(mhz(d) ** 2 + gamma ** 2)
        sym = SymmetricParams(gamma=gamma, g=g, delta=mhz(d))
        ev = eigenvalues_on_manifold(sym).as_array()
        rows.append([d, to_mhz(g)]
                    + [to_mhz(x) for pair in ev for x in (pair.real, pair.imag)])
    p = outdir / "fig2_manifold_vs_delta.csv"
    _write_csv(p, "delta_mhz,g_mhz,re0_mhz,im0_mhz,re_plus_mhz,im_plus_mhz,"
                  "re_minus_mhz,im_minus_mhz", rows)
    paths.append(p)
    return paths


def response_sweep(gamma_mhz: float, g_mhz: float,
                   window_mhz=(1e-4, 1e-2), points: int = 50) -> np.ndarray:
    """(delta_b_mhz, |delta_omega|_mhz) rows from the exact cubic."""
    gamma = mhz(gamma_mhz)
    sym = SymmetricParams.manifold_point(gamma, mhz(g_mhz))
    bs = np.geomspace(window_mhz[0], window_mhz[1], points)
    return np.column_stack([bs, np.abs(eigenshift_sweep(sym, mhz(bs)))])


def generate_fig3c(outdir: Path, gamma_mhz: float = GAMMA_MHZ) -> list[Path]:
    """Log-log response datasets at and away from the degeneracy."""
    point = locate_ep3(mhz(gamma_mhz))
    g_values = [to_mhz(point.g_ep3), 4.59]
    rows, fit_rows = [], []
    for g in g_values:
        data = response_sweep(gamma_mhz, g)
        rows.extend([g, b, w] for b, w in data)
        fit = fit_loglog_slope(data, (1e-4, 1e-2))
        fit_rows.append([g, fit.slope, fit.intercept, fit.r_squared,
                         fit.window[0], fit.window[1]])
    p1 = outdir / "fig3c_response.csv"
    _write_csv(p1, "g_mhz,delta_b_mhz,delta_omega_mhz", rows)
    p2 = outdir / "fig3c_fits.csv"
    _write_csv(p2, "g_mhz,slope,intercept,r_squared,window_lo_mhz,window_hi_mhz",
               fit_rows)
    return [p1, p2]


def generate_fig3d(outdir: Path, gamma_mhz: float = GAMMA_MHZ) -> list[Path]:
    """Degeneracy sensitivity factor versus perturbation."""
    point = locate_ep3(mhz(gamma_mhz))
    rows = []
    for b in np.geomspace(1e-4, 0.05, 100):
        rows.append([b, g_ep3_factor(point.g_ep3, mhz(b))])
    p = outdir / "fig3d_gep3.csv"
    _write_csv(p, "delta_b_mhz,g_ep3", rows)
    return [p]


def generate_fig3f(outdir: Path, gamma_mhz: float = GAMMA_MHZ,
                   floor_db: float = EXPERIMENTAL_FLOOR_DB) -> list[Path]:
    """Spectral-contrast factor versus eigenvalue shift."""
    point = locate_ep3(mhz(gamma_mhz))
    sym = SymmetricParams(gamma=mhz(gamma_mhz), g=point.g_ep3,
                          delta=point.delta_ep3)
    grid = np.geomspace(5e-3, 0.05, 13)
    rows = []
    for b, shift in zip(grid, eigenshift_sweep(sym, mhz(grid))):
        dip_db = spectrum_dip(sym, mhz(KAPPA1_MHZ), mhz(KAPPA2_MHZ), mhz(b),
                              floor_db=floor_db).dip_value_db
        rows.append([b, shift, dip_db, g_cpa_factor(floor_db, dip_db, shift)])
    p = outdir / "fig3f_gcpa.csv"
    _write_csv(p, "delta_b_mhz,delta_omega_mhz,dip_db,g_cpa_db_per_mhz", rows)
    return [p]


def generate_fig4(outdir: Path, gamma_mhz: float = GAMMA_MHZ,
                  floor_db: float = EXPERIMENTAL_FLOOR_DB) -> list[Path]:
    """The three sensitivity factors versus perturbation."""
    point = locate_ep3(mhz(gamma_mhz))
    sym = SymmetricParams(gamma=mhz(gamma_mhz), g=point.g_ep3,
                          delta=point.delta_ep3)
    grid = np.unique(np.append(np.geomspace(1e-3, 0.05, 17), 0.025))
    rows = []
    for b, shift in zip(grid, eigenshift_sweep(sym, mhz(grid))):
        dip_db = spectrum_dip(sym, mhz(KAPPA1_MHZ), mhz(KAPPA2_MHZ), mhz(b),
                              floor_db=floor_db).dip_value_db
        gep3 = g_ep3_factor(point.g_ep3, mhz(b))
        gcpa = g_cpa_factor(floor_db, dip_db, shift)
        rows.append([b, gep3, gcpa, synthetic_sensitivity(gcpa, gep3)])
    p = outdir / "fig4_factors.csv"
    _write_csv(p, "delta_b_mhz,g_ep3,g_cpa_db_per_mhz,g_syn_db_per_mhz", rows)
    return [p]


def generate(figure: str, outdir: str | Path) -> list[Path]:
    """Write the data files for one figure name into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "fig2": generate_fig2,
        "fig3c": generate_fig3c,
        "fig3d": generate_fig3d,
        "fig3f": generate_fig3f,
        "fig4": generate_fig4,
    }
    if figure not in dispatch:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURES}")
    return dispatch[figure](outdir)
