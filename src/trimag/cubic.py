"""Depressed complex cubics: closed-form roots and branch matching.

The eigenvalue problem of the three-mode system reduces to a depressed
cubic  x**3 + c1*x + c0 = 0  with complex coefficients (the quadratic term
vanishes because the trace is removed).  The closed form below evaluates
the classical two-radical solution with a stable branch pairing, then
Newton-polishes every root.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

# primitive cube root of unity
_W = complex(-0.5, math.sqrt(3.0) / 2.0)

# factors of u and of v in the three roots u + v, W*u + W'*v, W'*u + W*v
_U_FACTORS = np.array([1.0, _W, _W.conjugate()])
_V_FACTORS = _U_FACTORS.conj()

# the six orderings of three roots, one per row
_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))

#: residual bound for a polished root, scaled by the coefficient magnitude
RESIDUAL_TOL = 1e-9

#: guarded Newton steps per root, in cardano_roots and cardano_roots_batch
POLISH_STEPS = 4


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients of x**3 + c1*x + c0 = 0.

    c0 carries (rad/us)**3, c1 carries (rad/us)**2 when the cubic comes
    from the three-mode eigenproblem; the solver itself is unit-agnostic.
    """

    c0: complex
    c1: complex


@dataclass(frozen=True)
class ComplexTriple:
    """The three (biased) eigenvalues of the cubic, in rad/us."""

    omega0: complex
    omega1: complex
    omega2: complex

    def __iter__(self):
        return iter((self.omega0, self.omega1, self.omega2))


def _ldexp(z, k):
    """z * 2**k for complex scalars or arrays, exact unless it leaves the range."""
    return np.ldexp(np.real(z), k) + 1j * np.ldexp(np.imag(z), k)


def _newton_polish(x: complex, coeffs: CubicCoeffs) -> complex:
    # accept a step only if it reduces |f|: at (near-)multiple roots the
    # residual is rounding-noise dominated and a raw step can wander O(1)
    c0, c1 = coeffs.c0, coeffs.c1
    f = x * x * x + c1 * x + c0
    best = abs(f)
    for _ in range(POLISH_STEPS):
        if best == 0.0:
            break
        fp = 3.0 * x * x + c1
        if fp == 0:
            break
        candidate = x - f / fp
        f_candidate = candidate * candidate * candidate + c1 * candidate + c0
        value = abs(f_candidate)
        if value >= best:
            break
        x, f, best = candidate, f_candidate, value
    return x


def cardano_roots(coeffs: CubicCoeffs) -> ComplexTriple:
    """All three roots of x**3 + c1*x + c0 = 0 by the closed form.

    Writing x = u + v with 3*u*v = -c1, u**3 and v**3 are the roots of a
    quadratic; the larger-magnitude radical is taken through the principal
    cube root and its partner through v = -c1/(3u), which fixes the branch
    pairing unambiguously.  Each root is Newton-polished afterwards so the
    residual |x^3 + c1 x + c0| stays below RESIDUAL_TOL * scale**3, with
    scale = max(1, |c0|**(1/3), |c1|**(1/2)) the natural root magnitude.
    """
    c0, c1 = complex(coeffs.c0), complex(coeffs.c1)
    if c0 == 0 and c1 == 0:
        z = 0j
        return ComplexTriple(z, z, z)

    disc = cmath.sqrt(c0 * c0 / 4.0 + c1 * c1 * c1 / 27.0)
    z_plus = -c0 / 2.0 + disc
    z_minus = -c0 / 2.0 - disc
    z = z_plus if abs(z_plus) >= abs(z_minus) else z_minus
    if z == 0:
        # both radicals vanish with c1 != 0 only when c1**3/27 underflows
        # (and c0/2 with it): solve for y = x/2**k with |c1/4**k| ~ 1
        k = math.frexp(abs(c1))[1] // 2
        scaled = cardano_roots(CubicCoeffs(complex(_ldexp(c0, -3 * k)),
                                           complex(_ldexp(c1, -2 * k))))
        return ComplexTriple(*(complex(_ldexp(y, k)) for y in scaled))
    u = z ** (1.0 / 3.0)
    v = -c1 / (3.0 * u)
    roots = (u + v,
             _W * u + _W.conjugate() * v,
             _W.conjugate() * u + _W * v)

    polished = tuple(_newton_polish(r, coeffs) for r in roots)
    return ComplexTriple(*polished)


def cardano_roots_batch(c0, c1) -> np.ndarray:
    """Roots of x**3 + c1*x + c0 = 0 for arrays of coefficients, shape (n, 3).

    The same closed form as :func:`cardano_roots` — the larger-magnitude
    radical through the principal cube root, its partner through
    v = -c1/(3u) — and the same guarded Newton polish, evaluated with
    array masks.  Rows with c0 = c1 = 0 are zeros; rows whose radicals
    both vanish although c1 != 0 are rescaled by a power of two, as in
    cardano_roots.  Row j agrees with
    ``cardano_roots(CubicCoeffs(c0[j], c1[j]))`` to rounding, not bitwise.
    """
    c0 = np.asarray(c0, dtype=complex).reshape(-1, 1)
    c1 = np.asarray(c1, dtype=complex).reshape(-1, 1)
    zero = (c0 == 0) & (c1 == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(c0 * c0 / 4.0 + c1 * c1 * c1 / 27.0)
        z_plus = -c0 / 2.0 + disc
        z_minus = -c0 / 2.0 - disc
        z = np.where(np.abs(z_plus) >= np.abs(z_minus), z_plus, z_minus)
        radicals_vanish = z == 0
        vanish = radicals_vanish[:, 0] & ~zero[:, 0]
        z[radicals_vanish] = 1.0  # placeholder; these rows are replaced below
        # principal cube root in polar form, as Python's complex power takes it
        phase = np.arctan2(z.imag, z.real) * (1.0 / 3.0)
        u = np.hypot(z.real, z.imag) ** (1.0 / 3.0) * (np.cos(phase)
                                                       + 1j * np.sin(phase))
        v = -c1 / (3.0 * u)
        roots = u * _U_FACTORS + v * _V_FACTORS

        # the guarded Newton polish of _newton_polish for all roots at once:
        # a zero residual or a zero derivative gives no smaller |f|, so the
        # one test value < best also covers the scalar loop's early exits
        f = roots * roots * roots + c1 * roots + c0
        best = np.abs(f)
        active = np.ones(roots.shape, dtype=bool)
        for _ in range(POLISH_STEPS):
            candidate = roots - f / (3.0 * roots * roots + c1)
            f_candidate = candidate * candidate * candidate + c1 * candidate + c0
            value = np.abs(f_candidate)
            active &= value < best
            if not active.any():
                break
            roots = np.where(active, candidate, roots)
            f = np.where(active, f_candidate, f)
            best = np.where(active, value, best)
    roots[zero[:, 0]] = 0.0
    if vanish.any():
        k = np.frexp(np.abs(c1[vanish, 0]))[1] // 2
        scaled = cardano_roots_batch(_ldexp(c0[vanish, 0], -3 * k),
                                     _ldexp(c1[vanish, 0], -2 * k))
        roots[vanish] = _ldexp(scaled, k[:, None])
    return roots


def match_to_previous(roots: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Reorder three roots to continue three tracked branches.

    Minimal-total-distance assignment over the six permutations, costed
    in one array operation (the first minimum wins a tie); used for
    nearest-neighbor continuation of eigenvalue surfaces across parameter
    sweeps.  roots and previous may also be stacked rows of shape (n, 3),
    each row matched to its own previous row.
    """
    costs = np.sum(np.abs(roots[..., _PERMUTATIONS] - previous[..., None, :]),
                   axis=-1)
    return np.take_along_axis(roots, _PERMUTATIONS[np.argmin(costs, axis=-1)],
                              axis=-1)
