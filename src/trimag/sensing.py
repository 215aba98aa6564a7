"""Perturbation response and sensitivity factors of the balanced system.

A uniform magnetic-field change shifts both magnon lines by the same
delta_b.  Near the third-order degeneracy the central eigenvalue responds
as delta_b**(1/3); away from it the response is linear.  The spectral
contrast of the absorption dip divided by the eigenvalue shift defines a
second, dB-per-MHz factor, and the product of the two factors sets the
detectable minimum field.

Eigenvalue shifts are reported in the trace-centered frame: the rigid
perturbation drags the eigenvalue centroid by 2*delta_b/3, and that common
drift is removed so the shift isolates the branch motion that the
cube-root law describes.  The tracked branch is the one continued from the
central eigenvalue, disambiguated at the degeneracy by minimal distance
from the real axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import locate_ep3
from .cubic import CubicCoeffs, cardano_roots, cardano_roots_batch
from .params import (
    DEFAULT_TOL,
    GAMMA_MHZ,
    KAPPA1_MHZ,
    KAPPA2_MHZ,
    SymmetricParams,
    ValidationError,
    mhz,
    to_mhz,
)
from .spectrum import (
    EXPERIMENTAL_FLOOR_DB,
    DipReport,
    FloorClampError,
    spectrum_dip,
    to_db,
)

#: continuation trust radius for branch tracking, in units of gamma
TRUST_RADIUS = 0.5

#: ramp resolution for single-shot shift evaluation
RAMP_STEPS = 64

#: a seeded pick stands only if its root lies nearer the prediction than
#: this fraction of the distance to the next-nearest root
SEED_MARGIN = 0.5

GAMMA_E_GHZ_PER_T = 28.0  # gyromagnetic ratio of the ferrimagnet, GHz/T
RESOLVABLE_DB = 1e-13     # smallest resolvable spectrum change, dB


class BranchTrackingError(RuntimeError):
    """No eigenvalue branch within the continuation trust radius."""


@dataclass(frozen=True)
class Perturbation:
    """Rigid magnon frequency shift delta_b (rad/us) from a field change."""

    delta_b: float

    def __post_init__(self):
        if not math.isfinite(self.delta_b):
            raise ValidationError("delta_b must be finite")


_CUBE = np.frompyfunc(lambda b: np.float64(b) ** 3, 1, 1)


def _depressed_cubic(sym: SymmetricParams, delta_b) -> CubicCoeffs:
    """Characteristic cubic of the perturbed matrix, trace part removed.

    Expanding det(H' - lambda I) in w = lambda - delta_b gives
    w^3 + b*w^2 + [(4*gamma^2 - 3*g^2) + 2i*gamma*b]*w - g^2*b; the
    substitution w = x - b/3 (i.e. x = lambda - 2b/3, the trace-centered
    variable) removes the quadratic term.  delta_b may be an array, and
    then c0 and c1 are arrays of the same shape.
    """
    g2 = sym.g * sym.g
    gam = sym.gamma
    b = delta_b
    # cubic in w = lambda - delta_b:  w^3 + b w^2 + [(4gam^2-3g^2)+2i gam b] w - g^2 b
    p_w = 4.0 * gam * gam - 3.0 * g2 + 1j * (2.0 * gam * b)
    q_w = -g2 * b + 0j
    # depress w = x - b/3; b**3 is taken element by element as a float64
    # scalar takes it, since numpy's array power rounds differently in the
    # last bit: a row of an array cubic is the scalar cubic bit for bit
    c1 = p_w - b * b / 3.0
    c0 = q_w - b * p_w / 3.0 + 2.0 * np.asarray(_CUBE(b), float) / 27.0
    return CubicCoeffs(c0=c0, c1=c1)


def _select_central(roots, previous: complex, gamma: float,
                    fresh: bool) -> complex:
    in_radius = [r for r in roots if abs(r - previous) <= TRUST_RADIUS * gamma]
    if not in_radius:
        raise BranchTrackingError(
            "central eigenvalue branch left the continuation trust radius")
    if fresh:
        # at the degeneracy all three branches emanate from the origin;
        # the observable one stays closest to the real axis
        return min(in_radius, key=lambda r: (abs(r.imag), -abs(r.real)))
    return min(in_radius, key=lambda r: abs(r - previous))


def _track(sym: SymmetricParams, delta_bs: np.ndarray, x: complex = 0j,
           fresh: bool = True) -> list[complex]:
    """Continue the central branch from x through delta_bs, in order.

    The cubics of all steps are solved in one batched call, which gives
    each step the bits of its scalar closed form; the branch rule of
    _select_central then runs over the rows.  Returns the root picked at
    each step.
    """
    if not delta_bs.size:
        return []
    coeffs = _depressed_cubic(sym, delta_bs)
    tracked = []
    for roots in cardano_roots_batch(coeffs.c0, coeffs.c1).tolist():
        x = _select_central(roots, x, sym.gamma, fresh)
        fresh = False
        tracked.append(x)
    return tracked


def _leading_shift(sym: SymmetricParams, delta_b: float) -> float:
    """Leading term of the central branch's expansion in delta_b,
    trace-centred: the Puiseux term at the degeneracy, the linear law with
    the centroid drift 2*delta_b/3 removed elsewhere."""
    if _at_degeneracy(sym):
        return math.copysign(cube_root_response(sym.g, abs(delta_b)), delta_b)
    return linear_response(sym, delta_b) - 2.0 * delta_b / 3.0


def central_branch(sym: SymmetricParams, delta_b: float) -> complex:
    """Central eigenvalue branch at delta_b, seeded from its leading term.

    The scalar closed form is solved once at delta_b, and its root nearest
    the leading term of the branch's expansion (_leading_shift) is taken
    if |delta_b| lies within the trust radius and that root is nearer the
    prediction than SEED_MARGIN times the distance to the next-nearest
    root.  Otherwise the pick is ambiguous and the branch is continued
    from zero: the perturbation is ramped from 0 to delta_b in RAMP_STEPS
    steps, solved in one batched call and tracked by nearest-neighbor
    continuation in the trace-centered frame.  The ramp's last step is
    delta_b itself, so the tracked root is one of the closed form's roots.
    """
    if delta_b == 0.0:
        return 0j
    # as a numpy scalar, delta_b gives the cubic of the ramp's last step
    # (and of an eigenshift_sweep row) bit for bit
    delta_b = np.float64(delta_b)
    if abs(delta_b) <= TRUST_RADIUS * sym.gamma:
        roots = cardano_roots(_depressed_cubic(sym, delta_b))
        predicted = _leading_shift(sym, delta_b)
        nearest, second, _ = sorted(roots, key=lambda r: abs(r - predicted))
        if abs(nearest - predicted) < SEED_MARGIN * abs(second - predicted):
            return nearest
    return _track(sym, delta_b * np.linspace(0.0, 1.0, RAMP_STEPS + 1)[1:])[-1]


def exact_eigenshift(sym: SymmetricParams, pert: Perturbation) -> float:
    """Shift of the central eigenvalue (MHz) under a rigid perturbation.

    Solves the perturbed characteristic cubic exactly through the closed
    form, tracks the branch continued from the unperturbed central
    eigenvalue at zero, and returns the real (frequency) part of its
    trace-centered shift in MHz.
    """
    sym.require_manifold()
    return to_mhz(central_branch(sym, pert.delta_b).real)


def eigenshift_sweep(sym: SymmetricParams, delta_bs) -> np.ndarray:
    """Central-branch shifts (MHz) along a delta_b axis.

    Continuation runs along the sweep axis.  The branch is seeded or
    ramped by central_branch at the first point and again after a step
    larger than 0.2*gamma, one that crosses zero or one that more than
    doubles or halves |delta_b|: near zero the branches crowd together,
    and continuing across that region can land on another branch.  The
    rest of each run is solved in one batched call and tracked, so each
    shift equals exact_eigenshift at that point wherever both follow the
    same branch.  delta_bs is in rad/us; zeros give zero shift.
    """
    sym.require_manifold()
    bs = np.asarray(delta_bs, dtype=float)
    out = np.zeros(bs.size)
    runs, prev = [], 0.0
    for i, b in enumerate(bs.tolist()):
        if b == 0.0:
            continue
        # prev = 0 makes the first point a re-seed
        if (abs(b - prev) > 0.2 * sym.gamma or b * prev < 0
                or abs(b) > 2.0 * abs(prev) or abs(prev) > 2.0 * abs(b)):
            runs.append([])
        runs[-1].append(i)
        prev = b
    for first, *rest in runs:
        x = central_branch(sym, bs[first])
        out[first] = to_mhz(x.real)
        for i, tracked in zip(rest, _track(sym, bs[rest], x, False)):
            out[i] = to_mhz(tracked.real)
    return out


def cube_root_response(g_ep3: float, delta_b: float) -> float:
    """Shift of the central branch at the degeneracy: g**(2/3)*delta_b**(1/3)."""
    if delta_b < 0:
        raise ValidationError("delta_b must be >= 0; track the sign separately")
    return g_ep3 ** (2.0 / 3.0) * delta_b ** (1.0 / 3.0)


def linear_response(sym: SymmetricParams, delta_b: float) -> float:
    """Small-shift linear law away from the degeneracy.

    delta_omega = (1 - g^2/(3g^2 - 4gamma^2)) * delta_b; the coefficient
    diverges at the degeneracy, where the cube-root law applies instead.
    """
    sym.require_manifold()
    if _at_degeneracy(sym):
        raise ValidationError(
            "linear response undefined at the third-order degeneracy")
    r = 3.0 * sym.g * sym.g - 4.0 * sym.gamma * sym.gamma
    return (1.0 - sym.g * sym.g / r) * delta_b


def _at_degeneracy(sym: SymmetricParams) -> bool:
    """3g^2 - 4gamma^2 vanishes to within 1e-9*gamma^2."""
    r = 3.0 * sym.g * sym.g - 4.0 * sym.gamma * sym.gamma
    return abs(r) <= 1e-9 * sym.gamma * sym.gamma


def g_ep3_factor(g_ep3: float, delta_b: float) -> float:
    """Degeneracy sensitivity factor (g_ep3/delta_b)**(2/3), dimensionless.

    Diverges as the perturbation vanishes; delta_b = 0 returns +inf.
    """
    if delta_b < 0:
        raise ValidationError("delta_b must be >= 0")
    if delta_b == 0.0:
        return math.inf
    return (g_ep3 / delta_b) ** (2.0 / 3.0)


def g_cpa_factor(dip_unperturbed_db: float, dip_perturbed_db: float,
                 delta_omega_mhz: float) -> float:
    """Spectral-contrast factor: dB change of the dip per MHz of shift."""
    if not delta_omega_mhz > 0:
        raise ValidationError("delta_omega must be > 0")
    return (dip_perturbed_db - dip_unperturbed_db) / delta_omega_mhz


def synthetic_sensitivity(g_cpa: float, g_ep3: float) -> float:
    """Product of the contrast and degeneracy factors, dB per MHz."""
    return g_cpa * g_ep3


def detectable_b_min(delta_a_db: float, g_syn: float) -> float:
    """Smallest detectable field change (tesla).

    delta_b_min = delta_a / (nu_e * G_syn) with nu_e the gyromagnetic
    ratio GAMMA_E_GHZ_PER_T expressed in MHz per tesla.
    """
    if delta_a_db <= 0:
        raise ValidationError("delta_a must be > 0")
    if g_syn <= 0:
        raise ValidationError("g_syn must be > 0")
    return delta_a_db / (GAMMA_E_GHZ_PER_T * 1e3 * g_syn)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares log10-log10 power-law fit within a window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]  # MHz


def fit_loglog_slope(points, window: tuple[float, float]) -> SlopeFit:
    """Fit log10(delta_omega) vs log10(delta_b) inside window (MHz).

    points is an iterable of (delta_b_mhz, delta_omega_mhz) pairs, all
    positive inside the window; fewer than 5 usable points is an error.
    """
    lo, hi = window
    xs, ys = [], []
    for b, w in points:
        if lo <= b <= hi:
            if b <= 0 or w <= 0:
                raise ValidationError(
                    "log-log fit needs positive coordinates inside the window")
            xs.append(math.log10(b))
            ys.append(math.log10(w))
    if len(xs) < 5:
        raise ValidationError(
            f"log-log fit needs >= 5 points in window, got {len(xs)}")
    x = np.asarray(xs)
    y = np.asarray(ys)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    r_squared=r_squared, window=(lo, hi))


@dataclass(frozen=True)
class SensitivityReport:
    """Full sensitivity bundle at one perturbation point."""

    delta_b: float          # MHz
    delta_omega: float      # MHz
    g_ep3: float            # dimensionless
    g_cpa: float            # dB per MHz
    g_syn: float            # dB per MHz
    delta_b_min: float      # tesla

    def __post_init__(self):
        if math.isfinite(self.g_cpa) and math.isfinite(self.g_ep3):
            product = self.g_cpa * self.g_ep3
            if abs(self.g_syn - product) > 1e-9 * max(1.0, abs(product)):
                raise ValidationError("g_syn must equal g_cpa * g_ep3")
        if not self.delta_b_min > 0:
            raise ValidationError("delta_b_min must be > 0")

    def to_json(self) -> str:
        return json.dumps({
            "delta_b_mhz": self.delta_b,
            "delta_omega_mhz": self.delta_omega,
            "g_ep3": self.g_ep3,
            "g_cpa_db_per_mhz": self.g_cpa,
            "g_syn_db_per_mhz": self.g_syn,
            "delta_b_min_tesla": self.delta_b_min,
        }, indent=2)


@dataclass(frozen=True, eq=False)
class SensitivityChain:
    """The sensing chain over an axis of field changes delta_b (MHz).

    delta_b -> trace-centred shift of the central branch (one
    eigenshift_sweep) -> refined dip of the perturbed absorption spectrum
    nearest the zero that shift predicts (one spectrum_dip per point) ->
    g_ep3, g_cpa, g_syn -> the detectable field change.  Each column is
    computed when first read, so a reader pays only for what it reads.
    The shift and the dip exist at any manifold point; the factors only at
    the third-order degeneracy of sym.gamma.  kappa1 and kappa2 are in
    rad/us.
    """

    sym: SymmetricParams
    delta_b: np.ndarray
    kappa1: float
    kappa2: float
    floor_db: float

    def __post_init__(self):
        object.__setattr__(self, "delta_b",
                           np.atleast_1d(np.asarray(self.delta_b, dtype=float)))

    @classmethod
    def at_ep3(cls, delta_b, floor_db: float) -> SensitivityChain:
        """The chain at the third-order degeneracy of the device point
        (GAMMA_MHZ, KAPPA1_MHZ, KAPPA2_MHZ)."""
        return cls(locate_ep3(mhz(GAMMA_MHZ)), delta_b, mhz(KAPPA1_MHZ),
                   mhz(KAPPA2_MHZ), floor_db)

    @cached_property
    def delta_omega(self) -> np.ndarray:
        """Trace-centred shift of the central eigenvalue, MHz."""
        return eigenshift_sweep(self.sym, mhz(self.delta_b))

    @cached_property
    def dips(self) -> list[DipReport]:
        """Dip of each perturbed absorption spectrum nearest the zero that
        the tracked branch predicts, at delta_omega + 2*delta_b/3 in the
        lab frame."""
        return [spectrum_dip(self.sym, self.kappa1, self.kappa2, mhz(b),
                             shift + 2.0 * b / 3.0, self.floor_db)
                for b, shift in zip(self.delta_b.tolist(),
                                    self.delta_omega.tolist())]

    @cached_property
    def dip_db(self) -> np.ndarray:
        return np.array([dip.dip_value_db for dip in self.dips])

    @cached_property
    def clamped(self) -> np.ndarray:
        """True where the dip sits on the floor: its contrast is not resolved."""
        return self.dip_db <= to_db(0.0, self.floor_db)

    @cached_property
    def g_ep3(self) -> np.ndarray:
        """Degeneracy factor; it and g_syn exist only at the degeneracy."""
        g_ep3 = locate_ep3(self.sym.gamma).g
        if abs(self.sym.g - g_ep3) > DEFAULT_TOL * g_ep3:
            raise ValidationError(
                f"sensitivity factors need the third-order degeneracy, "
                f"g = {to_mhz(g_ep3):.8g} MHz at gamma = "
                f"{to_mhz(self.sym.gamma):g} MHz, got g = "
                f"{to_mhz(self.sym.g):.8g} MHz; the dip sweep "
                f"(--quantity dip) runs at any manifold point")
        return np.array([g_ep3_factor(self.sym.g, mhz(b)) for b in self.delta_b])

    @cached_property
    def g_cpa(self) -> np.ndarray:
        """dB per MHz of shift; a dip clamped at the floor gives about 0.

        A positive delta_b whose tracked shift is not positive is a
        numerical limit, not an input error (at the degeneracy rounding
        picks the branch below about 1e-22 rad/us), and BranchTrackingError
        names the first such delta_b.
        """
        lost = (self.delta_b > 0) & ~(self.delta_omega > 0)
        if lost.any():
            raise BranchTrackingError(
                f"tracked shift at delta_b = {self.delta_b[lost][0]:g} MHz "
                f"is not positive: the central branch is not resolved at "
                f"such a small field change")
        return np.array([g_cpa_factor(self.floor_db, dip_db, shift)
                         for shift, dip_db in zip(self.delta_omega, self.dip_db)])

    @cached_property
    def g_syn(self) -> np.ndarray:
        return np.array([synthetic_sensitivity(gcpa, gep3)
                         for gep3, gcpa in zip(self.g_ep3, self.g_cpa)])

    def delta_b_min(self) -> np.ndarray:
        """Smallest detectable field change (tesla) at each point, for a
        resolvable spectrum change of RESOLVABLE_DB.

        A dip clamped at the floor is a numerical limit, not an input
        error: FloorClampError names the first such delta_b.
        """
        g_syn = self.g_syn
        if self.clamped.any():
            b = self.delta_b[self.clamped][0]
            raise FloorClampError(
                f"perturbed dip at delta_b = {b:g} MHz is clamped at the "
                f"{self.floor_db:g} dB floor: its contrast is not resolved")
        return np.array([detectable_b_min(RESOLVABLE_DB, gsyn)
                         for gsyn in g_syn])


def sensitivity_report(delta_b_mhz: float,
                       floor_db: float = EXPERIMENTAL_FLOOR_DB) -> SensitivityReport:
    """The sensitivity chain at one field change, at the degeneracy.

    The eigenvalue shift comes from the exact cubic, the degeneracy factor
    from its closed form, and the dip contrast from the perturbed
    absorption spectrum refined by golden section; the unperturbed dip sits
    at the configured floor because its model value is an exact zero.

    g_cpa is the model's contrast at the device point GAMMA_MHZ,
    KAPPA1_MHZ and KAPPA2_MHZ, and it changes with the port rates.  The paper's g_cpa = 32.1 dB/MHz
    comes from a 21.5 dB dip change measured on the device, not from this
    model.
    """
    if not delta_b_mhz > 0:
        raise ValidationError("delta_b must be > 0")
    chain = SensitivityChain.at_ep3(delta_b_mhz, floor_db)
    bmin = chain.delta_b_min()
    return SensitivityReport(
        delta_b=delta_b_mhz,
        delta_omega=float(chain.delta_omega[0]),
        g_ep3=float(chain.g_ep3[0]),
        g_cpa=float(chain.g_cpa[0]),
        g_syn=float(chain.g_syn[0]),
        delta_b_min=float(bmin[0]),
    )
