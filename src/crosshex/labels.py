"""Lattice sites, stencil neighborhoods, and integer exponent labels.

The function families evaluated by this package are indexed by integer
*labels* - exponent vectors that count how many copies of each
marked-point pair enter a function's exponential factor and divisor
shift.  Sites of the square lattice map to 3-component labels, sites of
the triangular lattice to 6-component labels.  Within each class of
sites (the parity of n + m on the square lattice, the residue of k - l
mod 3 on the triangular one) the label is an affine function of the
site, so one integer table per lattice (:class:`Lattice`) holds all
of its site and label rules: coordinate names, site validation, the
window of sites within a radius, stencil neighbours, classes and labels
(for any array of sites at once), label width and zero-sum blocks.
Everything downstream works with labels; these tables are the only
place lattice coordinates enter.

Coefficient keys follow the fixed export order: ``a, b, c, d, v`` for
the 5-point cross stencil (``v`` multiplies the center site) and
``a, b, c, d, f, g`` for the 6-point hexagonal stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    """One lattice's site and label rules as an integer table.

    Sites are integer arrays whose last axis holds the d coordinates
    named by ``index_names``.  A site's neighbours are the site plus the
    rows of ``offsets``, one per coefficient in coefficient order; its
    class is ``(site @ w) % q`` and its label ``(site @ M + C[class]) // q``,
    ``M.shape[1]`` components long.  numpy's integer ``//`` and ``%``
    floor as Python's do, and the division is exact within each class.
    """

    name: str  # in site and label refusals
    index_names: tuple[str, ...]  # the site coordinates, also the CSV index columns
    zero_sum: bool  # a site's coordinates must sum to zero
    label_blocks: int  # the 3-blocks a label splits into, each summing to zero (0: none)
    offsets: np.ndarray  # (coefficients, d)
    q: int  # number of site classes
    w: np.ndarray  # (d,)
    M: np.ndarray  # (d, label length)
    C: np.ndarray  # (q, label length)

    def site(self, *coords) -> tuple[int, ...]:
        """The site ``coords`` as a plain tuple of ints, or :class:`InvalidSite`.

        A site is ``len(index_names)`` ints (not bools) that sum to zero
        where ``zero_sum`` requires it.
        """
        if len(coords) != len(self.index_names) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in coords
        ):
            arity = {2: "pair", 3: "triple"}[len(self.index_names)]
            raise InvalidSite(f"{self.name}-lattice site must be a {arity} of integers, got {coords!r}")
        if self.zero_sum and sum(coords) != 0:
            raise InvalidSite(
                f"{self.name}-lattice site must satisfy {'+'.join(self.index_names)}=0, "
                f"got {'+'.join(map(format, coords))}"
            )
        return coords

    def window(self, radius) -> Iterator[tuple[int, ...]]:
        """The sites of max-norm at most ``radius``, in lexicographic order, walked lazily.

        A radius that is not a non-negative int (a bool is not) raises
        ``ValueError`` at once.  The nested ranges are never built, so
        the first sites of a huge window come back at once.
        """
        if not (isinstance(radius, int) and not isinstance(radius, bool) and radius >= 0):
            raise ValueError(f"window radius must be a non-negative integer, got {radius!r}")
        r = radius
        if not self.zero_sum:
            return ((n, m) for n in range(-r, r + 1) for m in range(-r, r + 1))
        # the third coordinate is -k-l: the inner range keeps it within the radius
        return ((k, l, -k - l) for k in range(-r, r + 1) for l in range(max(-r, -r - k), min(r, r - k) + 1))

    def classes(self, sites) -> np.ndarray:
        return (np.asarray(sites) @ self.w) % self.q

    def labels(self, sites) -> np.ndarray:
        sites = np.asarray(sites)
        return (sites @ self.M + self.C[self.classes(sites)]) // self.q


# Even sites (n + m even) get ((2-n-m)/2, (n-m)/2, (n-m)/2), odd sites
# ((3-n-m)/2, (n-m-1)/2, (n-m+1)/2).
CROSS_LATTICE = Lattice(
    name="square",
    index_names=("n", "m"),
    zero_sum=False,
    label_blocks=0,
    offsets=_table([(-1, 0), (1, 0), (0, -1), (0, 1), (0, 0)]),
    q=2,
    w=_table((1, 1)),
    M=_table([(-1, 1, 1), (-1, -1, -1)]),
    C=_table([(2, 0, 0), (3, -1, 1)]),
)

# Residue 0 gets ((k-l)/3, (l-m)/3, (m-k)/3) in both blocks, residue 1
# ((k-l-1)/3, (l-m+2)/3, (m-k-1)/3, (k-l+2)/3, (l-m-1)/3, (m-k-1)/3) and
# residue 2 ((k-l+1)/3, (l-m+1)/3, (m-k-2)/3, (k-l+1)/3, (l-m-2)/3, (m-k+1)/3).
# Both 3-blocks of a label sum to zero: the first block counts one family
# of marked-point pairs, the second block the other, and each family is
# internally balanced (every pairing is a difference of two points of the
# family).  The relabelling and all stencil shifts preserve this.
HEX_LATTICE = Lattice(
    name="triangular",
    index_names=("k", "l", "m"),
    zero_sum=True,
    label_blocks=2,
    offsets=_table([(0, 1, -1), (0, -1, 1), (1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1)]),
    q=3,
    w=_table((1, -1, 0)),
    M=_table([(1, 0, -1, 1, 0, -1), (-1, 1, 0, -1, 1, 0), (0, -1, 1, 0, -1, 1)]),
    C=_table([(0, 0, 0, 0, 0, 0), (-1, 2, -1, 2, -1, -1), (1, 1, -2, 1, -2, 1)]),
)


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

    lattice = model_named(model).lattice
    return [tuple(nb) for nb in (np.asarray(lattice.site(*site)) + lattice.offsets).tolist()]
