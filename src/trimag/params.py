"""Parameter containers and unit conventions.

All internal rates, couplings and detunings are angular frequencies in
rad/us (i.e. 2*pi times a frequency in MHz).  File and CLI interfaces use
ordinary frequency in MHz; conversion happens exactly once, at that
boundary, through :func:`mhz` and :func:`to_mhz`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# relative tolerance for algebraic identities (manifold membership,
# the degeneracy point, ...)
DEFAULT_TOL = 1e-9

# the device point of the study: magnon damping and cavity port rates, MHz
GAMMA_MHZ = 3.0
KAPPA1_MHZ = 4.0
KAPPA2_MHZ = 4.0


def mhz(value: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/us."""
    return TWO_PI * value


def to_mhz(value: float) -> float:
    """Angular frequency in rad/us -> ordinary frequency in MHz."""
    return value / TWO_PI


class ValidationError(ValueError):
    """Raised when a parameter set violates its declared invariants."""


@dataclass(frozen=True)
class SystemParams:
    """Rates and detunings of the two-magnon / one-cavity system.

    kappa1, kappa2   port dissipation rates of the cavity (rad/us)
    kappa_int        intrinsic cavity loss (rad/us)
    gamma1, gamma2   magnon damping rates (rad/us)
    g1, g2           magnon-cavity coupling strengths (rad/us)
    delta1, delta2   magnon-cavity detunings (rad/us)
    """

    kappa1: float
    kappa2: float
    kappa_int: float
    gamma1: float
    gamma2: float
    g1: float
    g2: float
    delta1: float
    delta2: float

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "kappa_int", "gamma1", "gamma2", "g1", "g2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise ValidationError(f"{name} must be >= 0, got {v!r}")
        for name in ("delta1", "delta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    @property
    def kappa_c(self) -> float:
        """Effective cavity gain under two-port coherent absorption drive."""
        return self.kappa1 + self.kappa2 - self.kappa_int


@dataclass(frozen=True)
class SymmetricParams:
    """Symmetric balanced configuration: one damping, one coupling, one
    half-splitting detuning (all rad/us).

    The pseudo-Hermitian manifold is the surface g**2 == delta**2 + gamma**2.
    """

    gamma: float
    g: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError(f"gamma must be > 0, got {self.gamma!r}")
        if not (math.isfinite(self.g) and self.g >= 0):
            raise ValidationError(f"g must be >= 0, got {self.g!r}")
        if not math.isfinite(self.delta):
            raise ValidationError("delta must be finite")

    def manifold_residual(self) -> float:
        """Signed defect g**2 - delta**2 - gamma**2 (rad/us)**2."""
        return self.g * self.g - self.delta * self.delta - self.gamma * self.gamma

    def on_manifold(self) -> bool:
        scale = max(self.g * self.g, self.delta * self.delta + self.gamma * self.gamma)
        return abs(self.manifold_residual()) <= DEFAULT_TOL * max(scale, 1e-30)

    def require_manifold(self) -> None:
        if not self.on_manifold():
            raise ValidationError(
                "parameters are off the pseudo-Hermitian manifold "
                f"(g^2 - delta^2 - gamma^2 = {self.manifold_residual():.3e})"
            )

    @classmethod
    def manifold_point(cls, gamma: float, g: float) -> "SymmetricParams":
        """Manifold configuration at coupling g, with delta = sqrt(g^2 - gamma^2)."""
        if not g >= gamma > 0:
            raise ValidationError(
                f"manifold requires g >= gamma > 0 (got g={g!r}, "
                f"gamma={gamma!r})"
            )
        return cls(gamma=gamma, g=g, delta=math.sqrt(g * g - gamma * gamma))

    def to_system(self, kappa1: float, kappa2: float) -> SystemParams:
        """Expand to full system parameters for the given port rates.

        The intrinsic loss is implied by the gain condition
        kappa_c = kappa1 + kappa2 - kappa_int = 2*gamma.
        """
        kappa_int = kappa1 + kappa2 - 2.0 * self.gamma
        if kappa_int < 0:
            raise ValidationError(
                "kappa1 + kappa2 - 2*gamma must be >= 0 to realize the "
                f"balanced gain (got {kappa_int!r})"
            )
        return SystemParams(
            kappa1=kappa1, kappa2=kappa2, kappa_int=kappa_int,
            gamma1=self.gamma, gamma2=self.gamma,
            g1=self.g, g2=self.g,
            delta1=self.delta, delta2=-self.delta,
        )


@dataclass(frozen=True)
class DriveParams:
    """Two-port drive: power ratio p > 0 and phase difference phi.

    phi is normalized into (-pi, pi] on construction.
    """

    p: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0):
            raise ValidationError(f"power ratio p must be > 0, got {self.p!r}")
        if not math.isfinite(self.phi):
            raise ValidationError("phi must be finite")
        wrapped = math.remainder(self.phi, TWO_PI)
        if wrapped <= -math.pi:
            wrapped += TWO_PI
        object.__setattr__(self, "phi", wrapped)

    @property
    def amplitude(self) -> complex:
        """Complex input ratio sqrt(p)*exp(-i*phi) of port 1 to port 2."""
        return math.sqrt(self.p) * complex(math.cos(self.phi), -math.sin(self.phi))
