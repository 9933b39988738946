"""Finitely supported distributions on unit-span lattices of the real line.

A lattice here is always Z + offset for some offset in [0, 1); atom k of a
pmf sits at ``min_index + k + offset``.  All distances, smoothness
functionals and convolutions in the package are expressed through the
``LatticePMF`` type in this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Two lattices count as equal when their offsets agree mod 1 within this.
LATTICE_TOL = 1e-9
# Total mass must be within this of 1.
MASS_TOL = 1e-12
# Samples may sit this far off the lattice before empirical_pmf rejects them.
SNAP_TOL = 1e-6
# Most atoms convolve_all's result may have: it convolves one pmf at a time,
# quadratic in the pmfs.
SUPPORT_CAP = 10 ** 4
# Largest |min_index|: positions are doubles, exact for integers up to 2**53.
INDEX_CAP = 2 ** 53


class LatticeMismatchError(ValueError):
    """Two pmfs live on interleaved lattices where the operation is undefined."""


class OffLatticeSampleError(ValueError):
    """A sample does not sit on the expected lattice."""


def _number(name: str, v):
    """v, once it is an int or a float (numpy's too), not a bool."""
    if isinstance(v, bool) or not isinstance(
            v, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {v!r}")
    return v


def _check_order(l: int) -> None:
    if l not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {l}")


def _split_position(x: float) -> tuple[int, float]:
    """Split a real anchor into (integer base, fractional offset in [0,1))."""
    base = math.floor(x)
    off = x - base
    if off >= 1.0 - LATTICE_TOL:
        base += 1
        off = 0.0
    elif off < LATTICE_TOL:
        off = 0.0
    return base, off


@dataclass(frozen=True, eq=False)
class LatticePMF:
    """Probability mass function on Z + offset, with trimmed finite support.
    probs is stored as a read-only copy.
    Two pmfs are equal when their offsets, first indices and probs bytes
    are; a pmf is not hashable."""

    offset: float
    min_index: int
    probs: np.ndarray

    def __post_init__(self):
        if isinstance(self.min_index, bool) or not isinstance(
                self.min_index, (int, np.integer)):
            raise ValueError(
                f"min_index must be an integer, got {self.min_index!r}")
        object.__setattr__(self, "min_index", int(self.min_index))
        if abs(self.min_index) > INDEX_CAP:
            raise ValueError(f"min_index must lie within ±2**53, got "
                             f"{self.min_index}")
        _number("offset", self.offset)
        if isinstance(self.probs, list):
            for v in self.probs:
                _number("probs entry", v)
        p = np.asarray(self.probs)
        if p.dtype.kind not in "fiu":
            raise ValueError(f"probs must hold numbers, not {p.dtype}")
        p = p.astype(float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if not (0.0 <= self.offset < 1.0):
            raise ValueError(f"offset must lie in [0,1), got {self.offset}")
        if not np.all(p >= 0):
            raise ValueError(f"probabilities must be nonnegative, got {p.min()}")
        if not abs(p.sum() - 1.0) <= MASS_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        if p[0] == 0.0 or p[-1] == 0.0:
            raise ValueError("support must be trimmed (use make_pmf)")
        p.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, LatticePMF):
            return NotImplemented
        return (self.offset, self.min_index, self.probs.tobytes()) \
            == (other.offset, other.min_index, other.probs.tobytes())

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return self.probs.size

    @property
    def positions(self) -> np.ndarray:
        return self.min_index + self.offset + np.arange(self.probs.size)

    def mean(self) -> float:
        return float(np.dot(self.positions, self.probs))

    def variance(self) -> float:
        x = self.positions - self.mean()
        return float(np.dot(x * x, self.probs))

    def abs_moment(self, order: int) -> float:
        x = np.abs(self.positions) ** order
        return float(np.dot(x, self.probs))

    # -- lattice manipulation -------------------------------------------

    def shift(self, k: int) -> "LatticePMF":
        """Translate by an integer number of lattice steps."""
        return LatticePMF(self.offset, self.min_index + k, self.probs)

    def translate(self, x: float) -> "LatticePMF":
        """Translate by an arbitrary real amount (offset changes mod 1)."""
        return make_pmf(self.probs, self.min_index, self.offset + x)


def make_pmf(probs, min_index: int = 0, offset: float = 0.0,
             renormalize: bool = False) -> LatticePMF:
    """Build a LatticePMF, trimming zero tails and splitting a real offset."""
    # LatticePMF copies the trimmed slice, so p may be the caller's array.
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a nonempty 1-D array")
    if renormalize:
        s = p.sum()
        if not s > 0:
            raise ValueError(f"total mass must be positive, got {s}")
        p = p / s
    nz = np.flatnonzero(p)
    if nz.size == 0:
        raise ValueError("pmf has no mass")
    lo, hi = nz[0], nz[-1]
    base, off = _split_position(offset)
    return LatticePMF(off, min_index + base + int(lo), p[lo:hi + 1])


def lattices_match(p: LatticePMF, q: LatticePMF) -> bool:
    d = (p.offset - q.offset) % 1.0
    return d < LATTICE_TOL or d > 1.0 - LATTICE_TOL


def _aligned(p: LatticePMF, q: LatticePMF) -> tuple[np.ndarray, np.ndarray]:
    """Overlay two pmfs on matched lattices onto one common index range."""
    # Integer displacement of q's first atom relative to p's, on the common
    # lattice.  The offsets may straddle 1 (e.g. 1e-10 vs 1-1e-10), so round
    # the real positional difference instead of comparing min_index directly.
    d = round((q.min_index + q.offset) - (p.min_index + p.offset))
    lo = min(0, d)
    hi = max(len(p), d + len(q))
    a = np.zeros(hi - lo)
    b = np.zeros(hi - lo)
    a[-lo:len(p) - lo] = p.probs
    b[d - lo:d - lo + len(q)] = q.probs
    return a, b


def tv_distance(p: LatticePMF, q: LatticePMF) -> float:
    """Total variation distance; 1 when the lattices are interleaved."""
    if not lattices_match(p, q):
        return 1.0
    a, b = _aligned(p, q)
    return min(float(np.abs(a - b).sum() / 2.0), 1.0)


def loc_distance(p: LatticePMF, q: LatticePMF) -> float:
    """Largest pointwise pmf gap (unit-window metric on a common lattice)."""
    if not lattices_match(p, q):
        raise LatticeMismatchError(
            "loc distance is only defined for pmfs on a common lattice; "
            f"offsets {p.offset} and {q.offset} differ mod 1")
    a, b = _aligned(p, q)
    return min(float(np.abs(a - b).max()), 1.0)


def check_support(atoms: int) -> None:
    """Refuse a law of more than SUPPORT_CAP atoms."""
    if atoms > SUPPORT_CAP:
        raise ValueError(f"convolution support would exceed cap {SUPPORT_CAP}")


def convolve_all(pmfs: list[LatticePMF]) -> LatticePMF:
    """Law of the sum of independent draws from the pmfs: the left fold of
    ``np.convolve`` over their probs, placed once by ``make_pmf`` at the
    sum of their first indices and the exactly rounded sum of their
    offsets.  A sum whose support would exceed SUPPORT_CAP atoms is refused
    before the first convolution."""
    if not pmfs:
        raise ValueError("need at least one pmf")
    check_support(sum(len(p) - 1 for p in pmfs) + 1)
    return make_pmf(functools.reduce(np.convolve, (p.probs for p in pmfs)),
                    sum(p.min_index for p in pmfs),
                    math.fsum(p.offset for p in pmfs), renormalize=True)


def smoothness_functional(p: LatticePMF, l: int) -> float:
    """Variation norm of the l-th discrete difference of the pmf.

    Order 1 lies in (0, 2] and is small when the pmf is flat across the
    lattice; order 2 lies in (0, 4].
    """
    _check_order(l)
    kernel = np.array([1.0, -1.0]) if l == 1 else np.array([1.0, -2.0, 1.0])
    return float(np.abs(np.convolve(p.probs, kernel)).sum())


def empirical_pmf(samples, anchor: float) -> LatticePMF:
    """Relative-frequency pmf of samples expected on the lattice Z + anchor."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a nonempty 1-D array")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise OffLatticeSampleError(
            f"sample {bad[0]} is {float(x[bad[0]])!r}, not a lattice point")
    idx_f = x - anchor
    idx = np.rint(idx_f)
    err = np.abs(idx_f - idx)
    worst = int(np.argmax(err))
    if err[worst] > SNAP_TOL:
        raise OffLatticeSampleError(
            f"sample {x[worst]!r} is {err[worst]:.3g} off the lattice Z+{anchor}")
    idx = idx.astype(np.int64)
    lo = int(idx.min())
    return make_pmf(np.bincount(idx - lo), lo, anchor, renormalize=True)
