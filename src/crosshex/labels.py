"""Lattice sites, stencil neighborhoods, and integer exponent labels.

The function families evaluated by this package are indexed by integer
*labels* - exponent vectors that count how many copies of each
marked-point pair enter a function's exponential factor and divisor
shift.  Sites of the square lattice map to 3-component labels, sites of
the triangular lattice to 6-component labels.  Within each class of
sites (the parity of n + m on the square lattice, the residue of k - l
mod 3 on the triangular one) the label is an affine function of the
site, so one integer table per lattice (:class:`Lattice`) holds the
whole site geometry: stencil neighbours, classes and labels, for any
array of sites at once.  Everything downstream works with labels; these
tables are the only place lattice coordinates enter.

Coefficient keys follow the fixed export order: ``a, b, c, d, v`` for
the 5-point cross stencil (``v`` multiplies the center site) and
``a, b, c, d, f, g`` for the 6-point hexagonal stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidSite

# -- coefficient orders (also the CSV column order) -------------------------

CROSS_COEFFS: tuple[str, ...] = ("a", "b", "c", "d", "v")
HEX_COEFFS: tuple[str, ...] = ("a", "b", "c", "d", "f", "g")


def _table(rows) -> np.ndarray:
    table = np.array(rows, dtype=np.int64)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class Lattice:
    """One lattice's site geometry as an integer table.

    Sites are integer arrays whose last axis holds the d coordinates.  A
    site's neighbours are the site plus the rows of ``offsets``, one per
    coefficient in coefficient order; its class is ``(site @ w) % q``
    and its label ``(site @ M + C[class]) // q``.  numpy's integer
    ``//`` and ``%`` floor as Python's do, and the division is exact
    within each class.
    """

    offsets: np.ndarray  # (coefficients, d)
    q: int  # number of site classes
    w: np.ndarray  # (d,)
    M: np.ndarray  # (d, label length)
    C: np.ndarray  # (q, label length)

    def classes(self, sites) -> np.ndarray:
        return (np.asarray(sites) @ self.w) % self.q

    def labels(self, sites) -> np.ndarray:
        sites = np.asarray(sites)
        return (sites @ self.M + self.C[self.classes(sites)]) // self.q


# Even sites (n + m even) get ((2-n-m)/2, (n-m)/2, (n-m)/2), odd sites
# ((3-n-m)/2, (n-m-1)/2, (n-m+1)/2).
CROSS_LATTICE = Lattice(
    offsets=_table([(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)]),
    q=2,
    w=_table((1, 1)),
    M=_table([(-1, 1, 1), (-1, -1, -1)]),
    C=_table([(2, 0, 0), (3, -1, 1)]),
)

# Residue 0 gets ((k-l)/3, (l-m)/3, (m-k)/3) in both blocks, residue 1
# ((k-l-1)/3, (l-m+2)/3, (m-k-1)/3, (k-l+2)/3, (l-m-1)/3, (m-k-1)/3) and
# residue 2 ((k-l+1)/3, (l-m+1)/3, (m-k-2)/3, (k-l+1)/3, (l-m-2)/3, (m-k+1)/3).
HEX_LATTICE = Lattice(
    offsets=_table([(0, 1, -1), (0, -1, 1), (1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1)]),
    q=3,
    w=_table((1, -1, 0)),
    M=_table([(1, 0, -1, 1, 0, -1), (-1, 1, 0, -1, 1, 0), (0, -1, 1, 0, -1, 1)]),
    C=_table([(0, 0, 0, 0, 0, 0), (-1, 2, -1, 2, -1, -1), (1, 1, -2, 1, -2, 1)]),
)


class SiteCross(NamedTuple):
    """A site (n, m) of the square lattice."""

    n: int
    m: int


class SiteHex(NamedTuple):
    """A site (k, l, m) of the triangular lattice; requires k + l + m = 0."""

    k: int
    l: int
    m: int


def _integers(coords, count: int) -> bool:
    return len(coords) == count and all(
        isinstance(x, int) and not isinstance(x, bool) for x in coords
    )


def site_cross(*nm) -> SiteCross:
    """Validated square-lattice site; any other arity or type raises InvalidSite."""
    if not _integers(nm, 2):
        raise InvalidSite(f"square-lattice site must be a pair of integers, got {nm!r}")
    return SiteCross(*nm)


def site_hex(*klm) -> SiteHex:
    """Validated triangular-lattice site; also requires k + l + m = 0."""
    if not _integers(klm, 3):
        raise InvalidSite(f"triangular-lattice site must be a triple of integers, got {klm!r}")
    if sum(klm) != 0:
        raise InvalidSite("triangular-lattice site must satisfy k+l+m=0, got {}+{}+{}".format(*klm))
    return SiteHex(*klm)


def relabel_cross(site) -> tuple[int, ...]:
    """Exponent label of one square-lattice site, read from ``CROSS_LATTICE``.

    Both parity classes give integral labels, and stepping to any
    stencil neighbor changes the label by one of a fixed set of integer
    shifts.
    """
    return tuple(CROSS_LATTICE.labels(site).tolist())


def relabel_hex(site) -> tuple[int, ...]:
    """Exponent label of one triangular-lattice site, read from ``HEX_LATTICE``; both 3-blocks sum to zero."""
    return tuple(HEX_LATTICE.labels(site).tolist())


def stencil_offsets(model: str, site) -> list[tuple]:
    """Neighbor sites in coefficient order, validated like the site itself.

    For the cross model the list is a, b, c, d, then the center site
    itself last; for hex it is a through g.  Malformed input raises
    :class:`InvalidSite`, an unknown model ``ValueError``.
    """
    from .operators import model_named  # deferred: operators depends on this module

    m = model_named(model)
    s = m.site(*site)
    return [type(s)._make(nb) for nb in (np.asarray(s) + m.lattice.offsets).tolist()]
