"""Finitely supported distributions on unit-span lattices of the real line.

A lattice here is always Z + offset for some offset in [0, 1); atom k of a
pmf sits at ``min_index + k + offset``.  All distances, smoothness
functionals and convolutions in the package are expressed through the
``LatticePMF`` type in this module.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

# Two lattices count as equal when their offsets agree mod 1 within this.
LATTICE_TOL = 1e-9
# Total mass must be within this of 1.
MASS_TOL = 1e-12
# Samples may sit this far off the lattice before empirical_pmf rejects them.
SNAP_TOL = 1e-6


class LatticeMismatchError(ValueError):
    """Two pmfs live on interleaved lattices where the operation is undefined."""


class OffLatticeSampleError(ValueError):
    """A sample does not sit on the expected lattice."""


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


@dataclass(frozen=True)
class LatticePMF:
    """Probability mass function on Z + offset, with trimmed finite support."""

    offset: float
    min_index: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if not (0.0 <= self.offset < 1.0):
            raise ValueError(f"offset must lie in [0,1), got {self.offset}")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        if p[0] == 0.0 or p[-1] == 0.0:
            raise ValueError("support must be trimmed (use make_pmf)")
        p.flags.writeable = False

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

    def abs_moment(self, order: int, center: float = 0.0) -> float:
        x = np.abs(self.positions - center) ** order
        return float(np.dot(x, self.probs))

    # -- lattice manipulation -------------------------------------------

    def shift(self, k: int) -> "LatticePMF":
        """Translate by an integer number of lattice steps."""
        return LatticePMF(self.offset, self.min_index + k, self.probs)

    def translate(self, x: float) -> "LatticePMF":
        """Translate by an arbitrary real amount (offset changes mod 1)."""
        base, off = _split_position(self.offset + x)
        return LatticePMF(off, self.min_index + base, self.probs)


def make_pmf(probs, min_index: int = 0, offset: float = 0.0,
             renormalize: bool = False) -> LatticePMF:
    """Build a LatticePMF, trimming zero tails and normalizing the offset."""
    p = np.asarray(probs, dtype=float).copy()
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a nonempty 1-D array")
    if renormalize:
        s = p.sum()
        if s <= 0:
            raise ValueError("total mass must be positive")
        p /= s
    nz = np.flatnonzero(p)
    if nz.size == 0:
        raise ValueError("pmf has no mass")
    lo, hi = nz[0], nz[-1]
    base, off = _split_position(offset)
    return LatticePMF(off, min_index + base + int(lo), p[lo:hi + 1])


def point_mass(x: float) -> LatticePMF:
    base, off = _split_position(x)
    return make_pmf([1.0], min_index=base, offset=off)


def lattices_match(p: LatticePMF, q: LatticePMF, tol: float = LATTICE_TOL) -> bool:
    d = (p.offset - q.offset) % 1.0
    return d < tol or d > 1.0 - tol


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


def convolve(p: LatticePMF, q: LatticePMF) -> LatticePMF:
    """Distribution of the sum of independent draws from p and q."""
    probs = np.convolve(p.probs, q.probs)
    base, off = _split_position(p.offset + q.offset)
    return make_pmf(probs, min_index=p.min_index + q.min_index + base,
                    offset=off, renormalize=True)


def convolve_all(pmfs: list[LatticePMF], support_cap: int | None = None) -> LatticePMF:
    if not pmfs:
        raise ValueError("need at least one pmf")
    out = pmfs[0]
    for p in pmfs[1:]:
        if support_cap is not None and len(out) + len(p) - 1 > support_cap:
            raise ValueError(f"convolution support would exceed cap {support_cap}")
        out = convolve(out, p)
    return out


def smoothness_functional(p: LatticePMF, l: int) -> float:
    """Variation norm of the l-th discrete difference of the pmf.

    Order 1 lies in (0, 2] and is small when the pmf is flat across the
    lattice; order 2 lies in (0, 4].
    """
    if l not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {l}")
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
    counts = np.bincount(idx - lo)
    base, off = _split_position(anchor)
    return make_pmf(counts, min_index=base + lo, offset=off, renormalize=True)


def counts_pmf(counts, min_index: int, anchor: float) -> LatticePMF:
    """Pmf from occupation counts of consecutive lattice sites."""
    base, off = _split_position(anchor)
    return make_pmf(np.asarray(counts, dtype=float), min_index=base + min_index,
                    offset=off, renormalize=True)


# -- serialization ------------------------------------------------------


def pmf_to_csv(p: LatticePMF) -> str:
    buf = io.StringIO()
    buf.write(f"# offset={p.offset!r} min_index={p.min_index}\n")
    buf.write("index,position,prob\n")
    for k, (pos, pr) in enumerate(zip(p.positions, p.probs)):
        buf.write(f"{k},{float(pos)!r},{float(pr)!r}\n")
    return buf.getvalue()


def pmf_from_csv(text: str) -> LatticePMF:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0]
    if not header.startswith("#"):
        raise ValueError("missing header comment")
    fields = dict(tok.split("=") for tok in header[1:].split())
    offset = float(fields["offset"])
    min_index = int(fields["min_index"])
    probs = [float(ln.split(",")[2]) for ln in lines[2:]]
    return LatticePMF(offset, min_index, np.asarray(probs))
