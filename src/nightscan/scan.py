"""Continuity-preserving grid scan orders and their inverses.

Eight directions are generated: four base traversals, each also reversed.

* horizontal serpentine: rows top to bottom, even rows left to right, odd
  rows right to left.
* vertical serpentine: columns left to right, even columns top to bottom,
  odd columns bottom to top.
* diagonal top-left to bottom-right: anti-diagonals d = i + j in increasing
  d; cells on an even d are visited with increasing row index, on an odd d
  with decreasing row index.
* diagonal top-right to bottom-left: the left-right mirror of the previous
  one (apply it to column-flipped coordinates).

Every traversal keeps consecutive visits within Chebyshev distance 1 (the
8-neighborhood).  For the diagonal rule this follows from the alternation:
inside a diagonal each step moves (+-1, -+1).  At a boundary between
diagonals d and d+1, an even d ends at its largest row index and the odd
d+1 starts at its own largest row index; those two cells differ by one row
or one column depending on whether the diagonal has hit the bottom edge
yet, and symmetrically for odd-to-even boundaries at the smallest row
index.  In either case the jump is a king move.  Plain raster order has no
such guarantee: the wrap from (r, W-1) to (r+1, 0) has Chebyshev distance
max(1, W-1), which exceeds 1 for every W >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

BASES = ("horizontal", "vertical", "diag_tlbr", "diag_trbl")

# Grid shapes whose orders are kept; least recently used are dropped first.
# A forward of the default network uses three (one per level).
ORDER_CACHE_SHAPES = 16


@dataclass(frozen=True)
class ScanDirection:
    base: str
    reversed: bool = False

    def __post_init__(self):
        if self.base not in BASES:
            raise ConfigError(f"unknown scan base {self.base!r}; expected one of {BASES}")

    @property
    def name(self):
        return self.base + ("_rev" if self.reversed else "")


# Fixed enumeration contract used by the direction merge: base-major, forward
# before reversed.
DIRECTIONS = tuple(ScanDirection(base, rev) for base in BASES for rev in (False, True))

# Reduced-direction variants grow the way the ablation axis does: one
# horizontal serpentine, add the vertical one, add both reversals, then the
# diagonals and their reversals.
DIRECTION_SUBSETS = {
    1: (0,),
    2: (0, 2),
    4: (0, 1, 2, 3),
    8: tuple(range(8)),
}


@dataclass(frozen=True)
class ScanOrder:
    """A visit order over an H x W grid, as flat indices, plus its inverse."""

    order: np.ndarray
    inverse: np.ndarray
    height: int
    width: int

    def positions(self):
        """(L, 2) array of (row, col) in visit order."""
        return np.stack([self.order // self.width, self.order % self.width], axis=1)


def _horizontal(h, w):
    grid = np.arange(h * w, dtype=np.int64).reshape(h, w)
    grid[1::2] = grid[1::2, ::-1]
    return grid.ravel()


def _vertical(h, w):
    grid = np.arange(h * w, dtype=np.int64).reshape(h, w).T.copy()
    grid[1::2] = grid[1::2, ::-1]
    return grid.ravel()


def _diag_tlbr(h, w):
    # sort cells by diagonal d = i + j, then by row: increasing on an even d,
    # decreasing on an odd d (every key is distinct)
    i, j = np.divmod(np.arange(h * w, dtype=np.int64), w)
    d = i + j
    return np.argsort(d * h + np.where(d % 2 == 0, i, h - 1 - i), kind="stable")


def _diag_trbl(h, w):
    base = _diag_tlbr(h, w)
    i, j = base // w, base % w
    return i * w + (w - 1 - j)


_BASE_BUILDERS = {
    "horizontal": _horizontal,
    "vertical": _vertical,
    "diag_tlbr": _diag_tlbr,
    "diag_trbl": _diag_trbl,
}


def build_order(direction: ScanDirection, h: int, w: int) -> ScanOrder:
    if h < 1 or w < 1:
        raise ConfigError(f"grid dimensions must be positive, got {h}x{w}")
    order = _BASE_BUILDERS[direction.base](h, w)
    if direction.reversed:
        order = order[::-1].copy()
    inverse = np.empty_like(order)
    inverse[order] = np.arange(h * w, dtype=np.int64)
    return ScanOrder(order=order, inverse=inverse, height=h, width=w)


def all_eight(h: int, w: int) -> tuple[ScanOrder, ...]:
    """All eight orders in the fixed DIRECTIONS enumeration."""
    return tuple(build_order(d, h, w) for d in DIRECTIONS)


@lru_cache(maxsize=ORDER_CACHE_SHAPES)
def stacked_orders(h: int, w: int):
    """(8, L) order and inverse arrays, rows in DIRECTIONS enumeration order, cached per (h, w)."""
    orders = all_eight(h, w)
    return (np.stack([o.order for o in orders]), np.stack([o.inverse for o in orders]))


def raster_order(h, w) -> ScanOrder:
    """Plain row-major order; the non-serpentine negative control."""
    order = np.arange(h * w, dtype=np.int64)
    return ScanOrder(order=order, inverse=order.copy(), height=h, width=w)


def is_continuous(scan: ScanOrder) -> bool:
    """True when every consecutive pair of visits is a king move (Chebyshev <= 1)."""
    pos = scan.positions()
    if len(pos) < 2:
        return True
    step = np.abs(np.diff(pos, axis=0)).max(axis=1)
    return bool((step <= 1).all())
