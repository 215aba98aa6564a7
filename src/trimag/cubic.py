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
import sys
from dataclasses import dataclass

import numpy as np

# primitive cube root of unity
_W = complex(-0.5, math.sqrt(3.0) / 2.0)

# the six orderings of three roots, one per row
_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))

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


def _ldexp(z: complex, k: int) -> complex:
    """z * 2**k, exact unless it leaves the range."""
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _newton_polish(x: complex, c0: complex, c1: complex) -> complex:
    # accept a step only if it reduces |f|: at (near-)multiple roots the
    # residual is rounding-noise dominated and a raw step can wander O(1)
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
    pairing unambiguously.  Each root is Newton-polished afterwards to
    shrink the residual |x^3 + c1 x + c0| on the scale of the natural root
    magnitude max(1, |c0|**(1/3), |c1|**(1/2)).
    All arithmetic runs on Python complex numbers, whatever the type of
    the coefficients.
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
        # both radicals vanish only when c1**3/27 and c0/2 underflow: solve
        # for y = x/2**k, with k the larger of the exponents that bring
        # |c1/4**k| or |c0/8**k| near 1
        k = max(math.frexp(abs(c))[1] // n for c, n in ((c1, 2), (c0, 3)) if c)
        scaled = cardano_roots(CubicCoeffs(_ldexp(c0, -3 * k),
                                           _ldexp(c1, -2 * k)))
        return ComplexTriple(*(_ldexp(y, k) for y in scaled))
    u = z ** (1.0 / 3.0)
    v = -c1 / (3.0 * u)
    roots = (u + v,
             _W * u + _W.conjugate() * v,
             _W.conjugate() * u + _W * v)
    return ComplexTriple(*(_newton_polish(r, c0, c1) for r in roots))


# The batch below repeats cardano_roots on float arrays, one (real, imag)
# pair per complex value, operation for operation as CPython 3.10 to 3.12
# evaluate complex arithmetic: a float operand is promoted to (x, 0.0),
# products and sums are formed on the parts, quotients by Smith's method,
# abs through hypot, and z ** (1/3) through hypot, pow, atan2, cos and sin.
# numpy's own complex product, quotient and absolute value, its pow and its
# arctan2 round differently in the last bit, so they are not used.  Python
# 3.14 no longer promotes a float operand; the parity test is the gate.

_POW = np.frompyfunc(math.pow, 2, 1)
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _quot(a, b):
    """a / b by Smith's method, dividing through by the larger part of b;
    NaN where b = 0."""
    (ar, ai), (br, bi) = a, b
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    return (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)


def _quot_float(a, x: float):
    """a / x for a nonzero float x, promoted to (x, 0.0): Smith's method
    divides through by x."""
    ratio = 0.0 / x
    denom = x + 0.0 * ratio
    return (a[0] + a[1] * ratio) / denom, (a[1] - a[0] * ratio) / denom


def _sqrt(z):
    """cmath.sqrt for finite z."""
    re, im = z
    ax, ay = np.abs(re), np.abs(im)
    # where hypot(ax, ay) would be subnormal, both parts are scaled up
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    s = np.where(
        tiny,
        np.ldexp(np.sqrt(np.ldexp(ax, 53) + np.hypot(np.ldexp(ax, 53),
                                                      np.ldexp(ay, 53))), -27),
        2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
    d = ay / (2.0 * s)
    zero = (re == 0.0) & (im == 0.0)
    out_re = np.where(zero, 0.0, np.where(re >= 0.0, s, d))
    out_im = np.where(zero, im, np.copysign(np.where(re >= 0.0, d, s), im))
    return out_re, out_im


def _cbrt(z):
    """Principal cube root z ** (1/3) of nonzero z, in polar form."""
    length = _POW(np.hypot(*z), 1.0 / 3.0).astype(float)
    phase = _ATAN2(z[1], z[0]).astype(float) * (1.0 / 3.0)
    return length * np.cos(phase), length * np.sin(phase)


def _cubic(x, c0, c1):
    return _add(_add(_mul(_mul(x, x), x), _mul(c1, x)), c0)


def _ldexp_parts(z: np.ndarray, k) -> np.ndarray:
    """z * 2**k for a complex array, part by part."""
    out = np.empty(np.broadcast_shapes(z.shape, np.shape(k)), dtype=complex)
    out.real, out.imag = np.ldexp(z.real, k), np.ldexp(z.imag, k)
    return out


def cardano_roots_batch(c0, c1) -> np.ndarray:
    """Roots of x**3 + c1*x + c0 = 0 for arrays of coefficients, shape (n, 3).

    Row j holds the bits of ``cardano_roots(CubicCoeffs(c0[j], c1[j]))``,
    in the same order, wherever that closed form stays finite: the same
    operations in the same order, on arrays.  Rows with c0 = c1 = 0 are
    zeros; rows whose radicals both vanish otherwise are rescaled by a power
    of two, as in cardano_roots.
    """
    c0 = np.asarray(c0, dtype=complex).reshape(-1)
    c1 = np.asarray(c1, dtype=complex).reshape(-1)
    a0, a1 = (c0.real, c0.imag), (c1.real, c1.imag)
    zero = (c0 == 0) & (c1 == 0)
    with np.errstate(all="ignore"):
        disc = _sqrt(_add(_quot_float(_mul(a0, a0), 4.0),
                          _quot_float(_mul(_mul(a1, a1), a1), 27.0)))
        half = _quot_float((-a0[0], -a0[1]), 2.0)
        z_plus, z_minus = _add(half, disc), _sub(half, disc)
        pick = np.hypot(*z_plus) >= np.hypot(*z_minus)
        z = (np.where(pick, z_plus[0], z_minus[0]),
             np.where(pick, z_plus[1], z_minus[1]))
        vanish = (z[0] == 0.0) & (z[1] == 0.0)
        z = (np.where(vanish, 1.0, z[0]), z[1])  # rows replaced below
        u = _cbrt(z)
        v = _quot((-a1[0], -a1[1]), _mul((3.0, 0.0), u))
        w, w_conj = (_W.real, _W.imag), (_W.real, -_W.imag)
        roots = (_add(u, v),
                 _add(_mul(w, u), _mul(w_conj, v)),
                 _add(_mul(w_conj, u), _mul(w, v)))
        # the guarded Newton polish of _newton_polish on the flattened
        # roots: a root drops out where the scalar loop breaks, and each
        # step is computed for the roots still in the loop
        x = (np.stack([r[0] for r in roots], axis=1).ravel(),
             np.stack([r[1] for r in roots], axis=1).ravel())
        a0 = (np.repeat(a0[0], 3), np.repeat(a0[1], 3))
        a1 = (np.repeat(a1[0], 3), np.repeat(a1[1], 3))
        out_re, out_im = x
        f = _cubic(x, a0, a1)
        best = np.hypot(*f)
        at = np.arange(out_re.size)
        for _ in range(POLISH_STEPS):
            fp = _add(_mul(_mul((3.0, 0.0), x), x), a1)
            candidate = _sub(x, _quot(f, fp))
            f_candidate = _cubic(candidate, a0, a1)
            value = np.hypot(*f_candidate)
            step = ((best != 0.0) & ((fp[0] != 0.0) | (fp[1] != 0.0))
                    & ~(value >= best))
            at = at[step]
            if not at.size:
                break
            x = (candidate[0][step], candidate[1][step])
            out_re[at], out_im[at] = x
            f = (f_candidate[0][step], f_candidate[1][step])
            best = value[step]
            a0 = (a0[0][step], a0[1][step])
            a1 = (a1[0][step], a1[1][step])
    out = np.empty((c0.size, 3), dtype=complex)
    out.real = out_re.reshape(-1, 3)
    out.imag = out_im.reshape(-1, 3)
    out[zero] = 0.0
    rescale = vanish & ~zero
    if rescale.any():
        k = np.maximum(*(np.where(c == 0, np.iinfo(np.int32).min,
                                  np.frexp(np.hypot(c.real, c.imag))[1] // n)
                         for c, n in ((c1[rescale], 2), (c0[rescale], 3))))
        scaled = cardano_roots_batch(_ldexp_parts(c0[rescale], -3 * k),
                                     _ldexp_parts(c1[rescale], -2 * k))
        out[rescale] = _ldexp_parts(scaled, k[:, None])
    return out


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
