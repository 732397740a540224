"""Coefficient data for the Caratheodory class of positive-real-part functions.

Functions p analytic on the unit disk with p(0)=1 and Re p > 0 have Taylor
coefficients bounded by |c_k| <= 2, and the second and third coefficients
admit the classical parametrization

    2 c2 = c1^2 + x (4 - c1^2),
    4 c3 = c1^3 + 2 (4 - c1^2) c1 x - c1 (4 - c1^2) x^2
           + 2 (4 - c1^2) (1 - |x|^2) z,

with free parameters x, z in the closed unit disk.  `disk_coeffs`
evaluates it on scalars or arrays; `coeffs_from_herglotz` gives the
coefficients of packed atomic Herglotz measures (convex combinations of
the extreme points (1 + e^{i t} z)/(1 - e^{i t} z), whose k-th coefficient
is 2 e^{i k t}).  Every sampled check and search draws from two streamed
samplers, `disk_param_blocks` and `herglotz_blocks`, in blocks of at most
`SAMPLE_CHUNK` entries per array from one seeded stream per variable, and
reduces its values with one maximum over the blocks, `streamed_max`: a
NaN value makes the maximum NaN, so the check that reads it fails.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ConstraintViolation, DomainError, require

# slack on the |c_k| <= 2 coefficient bound
COEFF_BOUND_TOL = 1e-12

# slack on the domain checks (|x| <= 1 etc.)
DOMAIN_TOL = 1e-12


class PCoefficients(namedtuple("PCoefficients", "c1 c2 c3")):
    """First three Taylor coefficients (c1, c2, c3) of a class member."""

    __slots__ = ()

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (complex(self.c1), complex(self.c2), complex(self.c3))


def check_disk_params(c, x, z) -> None:
    """Validate (c, x, z): c in [0, 2] and |x|, |z| <= 1; scalars or arrays.

    Each bound has `DOMAIN_TOL` of slack, and NaN fails every bound.
    """
    require((c >= -DOMAIN_TOL) & (c <= 2.0 + DOMAIN_TOL), "c must lie in [0, 2]", c)
    check_unit_disk(x=x, z=z)


def check_unit_disk(**values) -> None:
    """Validate |value| <= 1, with `DOMAIN_TOL` of slack, for each keyword;
    the error names the keyword.  NaN fails."""
    for name, value in values.items():
        size = abs(value)
        require(size <= 1.0 + DOMAIN_TOL, f"|{name}| must be <= 1", size)


def check_herglotz(weights: np.ndarray, angles: np.ndarray) -> None:
    """Validate atomic measures, one per row; the last axis runs over the atoms.

    Every row needs at least one atom, weights >= 0 (with `DOMAIN_TOL` of
    slack) summing to 1 within 1e-12, and angles in [0, 2*pi).  Zero-weight
    atoms are allowed, so rows of a packed batch can be padded with them.
    NaN fails every check.
    """
    if weights.shape != angles.shape or weights.ndim == 0:
        raise ConstraintViolation(
            f"weights {weights.shape} and angles {angles.shape} must share one shape"
        )
    if weights.shape[-1] == 0:
        raise ConstraintViolation("measure needs at least one atom")
    require(weights >= -DOMAIN_TOL, "negative atom weight", weights)
    require((angles >= 0.0) & (angles < 2.0 * math.pi),
            "atom angle outside [0, 2*pi)", angles)
    total = weights.sum(axis=-1)
    require(abs(total - 1.0) <= 1e-12, "atom weights do not sum to 1", total)


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


def coeffs_from_herglotz(measure, k_max: int) -> np.ndarray:
    """Coefficients c_k = 2 sum_j w_j e^{i k t_j} for k = 1..k_max.

    `measure` is a packed `(weights, angles)` pair of arrays whose last axis
    runs over the atoms (see `herglotz_blocks`); it is validated by
    `check_herglotz`, and the result has the k axis last.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    weights, angles = measure
    check_herglotz(weights, angles)
    out = np.empty(weights.shape[:-1] + (k_max,), dtype=complex)
    # the terms w_j e^{i k t_j} of each k, in one reused buffer: the same
    # operations in the same order as a new array each, so the same bits
    terms = np.empty(weights.shape, dtype=complex)
    for k in range(1, k_max + 1):
        np.multiply(1j * k, angles, out=terms)
        np.exp(terms, out=terms)
        terms *= weights
        out[..., k - 1] = 2.0 * np.sum(terms, axis=-1)
    return out


def coeff_excess(*coeffs):
    """Per row, max over k of |c_k| minus 2; each argument is one c_k.  NaN propagates."""
    return np.maximum.reduce([abs(c) for c in coeffs]) - 2.0


# --- seeded samplers -------------------------------------------------------

def unit_disk_samples(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from the closed unit disk by rejection from the square.

    Candidates are drawn as interleaved (re, im) pairs, and the generator is
    left just past the last pair used, so the sampler is prefix-consistent:
    drawing n points and then m points gives the same points, and the same
    generator state afterwards, as drawing n + m at once.  The rewind
    assumes that each double takes one 64-bit output of the bit generator,
    and steps back over the unused candidates with a negative `advance`,
    which PCG64 (numpy's default) takes modulo its period 2^128.
    A candidate coordinate is `2 u - 1` for u from `rng.random`, the same
    double as `rng.uniform(-1, 1)` draws.
    """
    parts = []
    need = count
    while need > 0:
        batch = int(need * 1.35) + 8
        pts = rng.random((batch, 2))
        pts *= 2.0
        pts -= 1.0
        pts = pts.view(complex)[:, 0]
        used = np.flatnonzero(np.abs(pts) <= 1.0)
        if used.size >= need:
            used = used[:need]
            rng.bit_generator.advance(2 * (int(used[-1]) + 1 - batch))
        parts.append(pts.take(used))
        need -= used.size
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=complex)


def unit_circle_samples(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from the unit circle (boundary stratum).

    The angle `2 pi u` for u from `rng.random` is the double that
    `rng.uniform(0, 2 pi)` draws.
    """
    angles = rng.random(count) * (2.0 * math.pi)
    # cos + i sin, written into one array, is bit for bit np.exp(1j * angles)
    # without its complex temporaries
    points = np.empty(count, dtype=complex)
    np.cos(angles, out=points.real)
    np.sin(angles, out=points.imag)
    return points


def check_seed(seed: int) -> int:
    """Validate a sampling seed: numpy seeds must be integers >= 0."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return seed


# entries per array in a block of every streamed pass: rows of the samplers
# below (`herglotz_blocks` yields `SAMPLE_CHUNK // MAX_ATOMS` measures of
# `MAX_ATOMS` atoms) and the series oracle's draws
# (`functionals.series_residual`).  A 5*10^5-sample `search`
# in a fresh process (2-vCPU Xeon, median of 5) peaks at 32.5 MB RSS and
# computes for 0.137 s at 2^12, against 33.5 MB at 2^13 and 35.9 MB and
# 0.140 s at 2^14; 2^11 saves 0.4 MB more but takes 0.162 s (per-call
# overhead).  Loading the modules `search` uses, numpy.random among them,
# takes 30.8 MB.  A 10^5-trial series residual peaks at 35.9 MB at 2^12
# (32.2 MB at 2^8, four times slower; 108 MB in one pass over every draw).
# A 10^6-sample `verify --trials 1` peaks at 33.0 MB with Herglotz blocks of
# 682 measures, against 33.2 MB at 2^12 measures, and 34.5 MB there when
# `coeffs_from_herglotz` makes a new array per operation instead of reusing
# one buffer.
SAMPLE_CHUNK = 1 << 12

# atoms per sampled Herglotz measure, padding included
MAX_ATOMS = 6


class SearchResult(namedtuple("SearchResult", "max_value argmax evaluations")):
    """Best value seen, where it was seen, and how much work it took
    (`optimizer.quartic_grid_max` reports arrays over the rows)."""

    __slots__ = ()


def streamed_max(blocks, value) -> SearchResult:
    """Largest `value(*block)` over the rows of a stream of blocks, the row
    attaining it (`tolist` of each array's entry) and the rows evaluated.

    A block is a tuple of arrays, or a 2-d array, whose arrays' first axis
    runs over the rows; `value` gives one value per row.  Only a strictly
    larger value replaces the best, and a block reports its first maximum,
    so a tie reports its first row and the block size changes nothing.
    Empty blocks are skipped; no rows at all give `SearchResult(0.0, (), 0)`.
    A NaN value makes the result NaN, at the first NaN's row, through every
    later block, so no NaN passes a check of the form value <= tolerance.
    """
    best, row, rows = 0.0, (), 0
    for block in blocks:
        vals = value(*block)
        if vals.size == 0:
            continue
        i = int(np.argmax(vals))  # the first NaN, if there is one
        if rows == 0 or not (math.isnan(best) or vals[i] <= best):
            best, row = float(vals[i]), tuple(v[i].tolist() for v in block)
        rows += vals.size
    return SearchResult(best, row, rows)


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(check_seed(seed)).spawn(count)
    return [np.random.default_rng(child) for child in children]


def _ring_then_disk(rng, start: int, stop: int, n_boundary: int) -> np.ndarray:
    """Points [start, stop) of a stream whose first `n_boundary` lie on the circle."""
    on_circle = min(max(n_boundary - start, 0), stop - start)
    if on_circle == 0:
        return unit_disk_samples(rng, stop - start)
    if on_circle == stop - start:
        return unit_circle_samples(rng, on_circle)
    return np.concatenate([unit_circle_samples(rng, on_circle),
                           unit_disk_samples(rng, stop - start - on_circle)])


def disk_param_blocks(
    samples: int, seed: int, boundary_fraction: float = 0.0, draw_y: bool = True
):
    """Yield `(c, x, y, z, w)` blocks of `SAMPLE_CHUNK` seeded draws.

    c is uniform on [0, 2] and x, y, z, w on the closed unit disk, except
    that the first `boundary_fraction` of the x and y draws lie on the unit
    circle.  Each variable has its own stream, `SeedSequence(seed).spawn(5)`
    in the order c, x, y, z, w, and each sampler is prefix-consistent, so
    the draws do not depend on the block size.  With `draw_y` false y is
    None and its stream unused.  No reference to a yielded block is kept.
    """
    c_rng, x_rng, y_rng, z_rng, w_rng = _streams(seed, 5)
    n_boundary = int(round(samples * boundary_fraction))
    for start in range(0, samples, SAMPLE_CHUNK):
        stop = min(start + SAMPLE_CHUNK, samples)
        yield (
            c_rng.random(stop - start) * 2.0,
            _ring_then_disk(x_rng, start, stop, n_boundary),
            _ring_then_disk(y_rng, start, stop, n_boundary) if draw_y else None,
            unit_disk_samples(z_rng, stop - start),
            unit_disk_samples(w_rng, stop - start),
        )


def _padded_measures(n_atoms, raw, angles):
    """Pack rows of `n_atoms` atoms: zero the padding, normalize the weights."""
    pad = np.arange(raw.shape[1]) >= n_atoms[:, None]
    raw[pad] = 0.0
    angles[pad] = 0.0
    raw /= raw.sum(axis=1, keepdims=True)
    return raw, angles


def herglotz_blocks(samples: int, seed: int):
    """Yield `(weights, angles)` blocks of `SAMPLE_CHUNK // MAX_ATOMS` rows
    (at least one) by `MAX_ATOMS`: an array holds 2^12 atoms at most.

    Row i has an atom count n_i uniform on {1..MAX_ATOMS}; its first n_i
    atoms get raw weights uniform on [0.1, 1], normalized to sum 1, and
    angles uniform on [0, 2*pi).  The other atoms are padding with weight 0
    at angle 0, which adds nothing to any coefficient.  Counts, weights and
    angles each have their own stream, `SeedSequence(seed).spawn(3)` in that
    order, so as in `disk_param_blocks` the block size changes no draw.
    """
    count_rng, weight_rng, angle_rng = _streams(seed, 3)
    block = max(SAMPLE_CHUNK // MAX_ATOMS, 1)
    for start in range(0, samples, block):
        rows = min(block, samples - start)
        yield _padded_measures(
            count_rng.integers(1, MAX_ATOMS + 1, rows),
            weight_rng.uniform(0.1, 1.0, (rows, MAX_ATOMS)),
            angle_rng.uniform(0.0, 2.0 * math.pi, (rows, MAX_ATOMS)),
        )
