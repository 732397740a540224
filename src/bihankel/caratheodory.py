"""Coefficient data for the Caratheodory class of positive-real-part functions.

Functions p analytic on the unit disk with p(0)=1 and Re p > 0 have Taylor
coefficients bounded by |c_k| <= 2, and the second and third coefficients
admit the classical parametrization

    2 c2 = c1^2 + x (4 - c1^2),
    4 c3 = c1^3 + 2 (4 - c1^2) c1 x - c1 (4 - c1^2) x^2
           + 2 (4 - c1^2) (1 - |x|^2) z,

with free parameters x, z in the closed unit disk.  The module carries
three interchangeable representations of such data: raw coefficient
triples, the (c, x, z) parametrization above, and atomic Herglotz measures
(convex combinations of the extreme points (1 + e^{i t} z)/(1 - e^{i t} z),
whose k-th coefficient is 2 e^{i k t}).  Seeded samplers over all of them
feed the empirical searches elsewhere in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstraintViolation, DomainError

# slack on the |c_k| <= 2 coefficient bound
COEFF_BOUND_TOL = 1e-12

# slack on construction-time domain checks (|x| <= 1 etc.)
DOMAIN_TOL = 1e-12

# below this, 4 - c^2 is treated as degenerate when solving for x
DEGENERATE_DENOM_TOL = 1e-5


@dataclass(frozen=True)
class PCoefficients:
    """First three Taylor coefficients (c1, c2, c3) of a class member."""

    c1: complex
    c2: complex
    c3: complex

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (complex(self.c1), complex(self.c2), complex(self.c3))


@dataclass(frozen=True)
class DiskParams:
    """Free parameters (c, x, z) generating an admissible (c1, c2, c3).

    c is the (rotated-to-real) first coefficient in [0, 2]; x and z live in
    the closed unit disk and drive the second and third coefficients.
    """

    c: float
    x: complex
    z: complex

    def __post_init__(self) -> None:
        if not -DOMAIN_TOL <= self.c <= 2.0 + DOMAIN_TOL:
            raise ConstraintViolation(f"c must lie in [0, 2], got {self.c}")
        if abs(self.x) > 1.0 + DOMAIN_TOL:
            raise ConstraintViolation(f"|x| must be <= 1, got {abs(self.x)}")
        if abs(self.z) > 1.0 + DOMAIN_TOL:
            raise ConstraintViolation(f"|z| must be <= 1, got {abs(self.z)}")


@dataclass(frozen=True)
class HerglotzMeasure:
    """Atomic probability measure on the circle, as (weight, angle) pairs."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.atoms) == 0:
            raise ConstraintViolation("measure needs at least one atom")
        total = 0.0
        for weight, angle in self.atoms:
            if weight < -DOMAIN_TOL:
                raise ConstraintViolation(f"negative atom weight {weight}")
            if not 0.0 <= angle < 2.0 * math.pi:
                raise ConstraintViolation(
                    f"atom angle {angle} outside [0, 2*pi)"
                )
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise ConstraintViolation(f"atom weights sum to {total}, not 1")


def disk_coeffs(c, x, z):
    """(c2, c3) of the (c, x, z) parametrization; scalars or numpy arrays.

    Written with operators only (`abs` dispatches to `np.abs` on arrays), so
    the scalar and the vectorized paths evaluate the same expression.
    """
    gap = 4.0 - c * c
    c2 = (c * c + x * gap) / 2.0
    c3 = (c**3 + 2.0 * gap * c * x - c * gap * x * x
          + 2.0 * gap * (1.0 - abs(x) ** 2) * z) / 4.0
    return c2, c3


def coeffs_from_disk_params(params: DiskParams) -> PCoefficients:
    """Evaluate the (c, x, z) parametrization into a coefficient triple."""
    c2, c3 = disk_coeffs(params.c, params.x, params.z)
    return PCoefficients(complex(params.c), c2, c3)


def coeffs_from_herglotz(measure: HerglotzMeasure, k_max: int) -> list[complex]:
    """Coefficients c_k = 2 sum_j w_j e^{i k t_j} for k = 1..k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    out = []
    for k in range(1, k_max + 1):
        out.append(2.0 * sum(w * cmath.exp(1j * k * t) for w, t in measure.atoms))
    return out


def p_coefficients_from_herglotz(measure: HerglotzMeasure) -> PCoefficients:
    c1, c2, c3 = coeffs_from_herglotz(measure, 3)
    return PCoefficients(c1, c2, c3)


def validate_p(coeffs: PCoefficients) -> bool:
    """True iff all three moduli respect the |c_k| <= 2 coefficient bound."""
    return all(abs(c) <= 2.0 + COEFF_BOUND_TOL for c in coeffs.as_tuple())


def rotate_to_real(coeffs: PCoefficients) -> PCoefficients:
    """Rotate c_k -> c_k e^{-i k phi} so the first coefficient is real >= 0.

    Corresponds to replacing p(z) by p(e^{-i phi} z), which stays in the
    class, so no generality is lost by studying c1 in [0, 2].
    """
    c1, c2, c3 = coeffs.as_tuple()
    if c1 == 0:
        return coeffs
    phi = cmath.phase(c1)
    rot = cmath.exp(-1j * phi)
    return PCoefficients(c1 * rot, c2 * rot * rot, c3 * rot**3)


def x_from_c2(c1: float, c2: complex) -> complex:
    """Recover the unit-disk parameter x from real c1 and c2.

    Inverts 2 c2 = c1^2 + x (4 - c1^2).  When 4 - c1^2 is numerically
    degenerate (c1 ~ 2) the equation constrains nothing and x = 0 is
    returned; genuine class data then satisfies |2 c2 - c1^2| <= 4 - c1^2,
    so the residual is below the degeneracy threshold as well.
    """
    gap = 4.0 - c1 * c1
    if gap < DEGENERATE_DENOM_TOL:
        return 0j
    return (2.0 * c2 - c1 * c1) / gap


# --- seeded samplers -------------------------------------------------------

def unit_disk_samples(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from the closed unit disk by rejection from the square.

    Candidates are drawn as interleaved (re, im) pairs, and the generator is
    left just past the last pair used, so the sampler is prefix-consistent:
    drawing n points and then m points gives the same points, and the same
    generator state afterwards, as drawing n + m at once.  The rewind
    assumes that each double takes one 64-bit output of the bit generator
    and that the bit generator has `advance` (PCG64, numpy's default, does).
    """
    out = np.empty(count, dtype=complex)
    filled = 0
    while filled < count:
        need = count - filled
        batch = int(need * 1.35) + 8
        state = rng.bit_generator.state
        pts = rng.uniform(-1.0, 1.0, (batch, 2)).view(complex)[:, 0]
        used = np.flatnonzero(np.abs(pts) <= 1.0)
        if used.size >= need:
            used = used[:need]
            rng.bit_generator.state = state
            rng.bit_generator.advance(2 * (int(used[-1]) + 1))
        out[filled:filled + used.size] = pts[used]
        filled += used.size
    return out


def unit_circle_samples(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from the unit circle (boundary stratum)."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))


def check_seed(seed: int) -> int:
    """Validate a sampling seed: numpy seeds must be integers >= 0."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return seed


def sample_disk_params(count: int, seed: int) -> list[DiskParams]:
    """Seeded draws with c uniform on [0, 2] and x, z uniform on the disk."""
    rng = np.random.default_rng(check_seed(seed))
    cs = rng.uniform(0.0, 2.0, count)
    xs = unit_disk_samples(rng, count)
    zs = unit_disk_samples(rng, count)
    return [
        DiskParams(float(c), complex(x), complex(z))
        for c, x, z in zip(cs, xs, zs)
    ]


def sample_herglotz_measures(
    count: int, seed: int, max_atoms: int = 6
) -> list[HerglotzMeasure]:
    """Seeded atomic measures with atom count uniform on {1..max_atoms}."""
    rng = np.random.default_rng(check_seed(seed))
    measures = []
    for _ in range(count):
        n_atoms = int(rng.integers(1, max_atoms + 1))
        raw = rng.uniform(0.1, 1.0, n_atoms)
        weights = raw / raw.sum()
        angles = rng.uniform(0.0, 2.0 * math.pi, n_atoms)
        measures.append(
            HerglotzMeasure(
                tuple((float(w), float(t)) for w, t in zip(weights, angles))
            )
        )
    return measures
