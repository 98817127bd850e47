"""Lattice sites, stencil neighborhoods, and integer exponent labels.

The function families evaluated by this package are indexed by integer
*labels* - exponent vectors that count how many copies of each
marked-point pair enter a function's exponential factor and divisor
shift.  Sites of the square lattice map to 3-component labels, sites of
the triangular lattice to 6-component labels, and the map depends on
the parity class of the site (two classes on the square lattice, three
on the triangular one).  Everything downstream works with labels; the
relabelling below is the only place lattice coordinates enter.

Coefficient keys follow the fixed export order: ``a, b, c, d, v`` for
the 5-point cross stencil (``v`` multiplies the center site) and
``a, b, c, d, f, g`` for the 6-point hexagonal stencil.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidSite

# -- coefficient orders (also the CSV column order) -------------------------

CROSS_COEFFS: tuple[str, ...] = ("a", "b", "c", "d", "v")
HEX_COEFFS: tuple[str, ...] = ("a", "b", "c", "d", "f", "g")

# -- neighbor each coefficient multiplies ------------------------------------

CROSS_NEIGHBOR_OFFSETS: dict[str, tuple[int, int]] = {
    "a": (-1, 0),
    "b": (1, 0),
    "c": (0, -1),
    "d": (0, 1),
    "v": (0, 0),
}

HEX_NEIGHBOR_OFFSETS: dict[str, tuple[int, int, int]] = {
    "a": (0, 1, -1),
    "b": (0, -1, 1),
    "c": (1, -1, 0),
    "d": (-1, 1, 0),
    "f": (1, 0, -1),
    "g": (-1, 0, 1),
}


class SiteCross(NamedTuple):
    """A site (n, m) of the square lattice."""

    n: int
    m: int

    @property
    def parity(self) -> int:
        """0 for even sites (n + m even), 1 for odd sites."""
        return (self.n + self.m) % 2

    def neighbor(self, key: str) -> "SiteCross":
        dn, dm = CROSS_NEIGHBOR_OFFSETS[key]
        return SiteCross(self.n + dn, self.m + dm)


class SiteHex(NamedTuple):
    """A site (k, l, m) of the triangular lattice; requires k + l + m = 0."""

    k: int
    l: int
    m: int

    @property
    def residue(self) -> int:
        """The class (k - l) mod 3 selecting the coefficient formulas."""
        return (self.k - self.l) % 3

    def neighbor(self, key: str) -> "SiteHex":
        dk, dl, dm = HEX_NEIGHBOR_OFFSETS[key]
        return SiteHex(self.k + dk, self.l + dl, self.m + dm)


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


class Label3(NamedTuple):
    """Integer exponent label for the square-lattice family."""

    x1: int
    x2: int
    x3: int


class Label6(NamedTuple):
    """Integer exponent label for the triangular-lattice family.

    Both 3-blocks sum to zero: the first block counts one family of
    marked-point pairs, the second block the other, and each family is
    internally balanced (every pairing is a difference of two points of
    the family).  The relabelling and all stencil shifts preserve this.
    """

    x1: int
    x2: int
    x3: int
    x4: int
    x5: int
    x6: int

    def check_blocks(self) -> "Label6":
        if self.x1 + self.x2 + self.x3 != 0 or self.x4 + self.x5 + self.x6 != 0:
            raise ValueError(f"label blocks must each sum to zero: {tuple(self)}")
        return self


def relabel_cross(site: SiteCross) -> Label3:
    """Exponent label of a square-lattice site.

    Even sites (n + m even) get ((2-n-m)/2, (n-m)/2, (n-m)/2); odd
    sites get ((3-n-m)/2, (n-m-1)/2, (n-m+1)/2).  Both are integral in
    their parity class, and stepping to any stencil neighbor changes
    the label by one of a fixed set of integer shifts.
    """
    n, m = site.n, site.m
    if (n + m) % 2 == 0:
        return Label3((2 - n - m) // 2, (n - m) // 2, (n - m) // 2)
    return Label3((3 - n - m) // 2, (n - m - 1) // 2, (n - m + 1) // 2)


def relabel_hex(site: SiteHex) -> Label6:
    """Exponent label of a triangular-lattice site, by (k - l) mod 3."""
    k, l, m = site.k, site.l, site.m
    r = (k - l) % 3
    if r == 0:
        t = ((k - l) // 3, (l - m) // 3, (m - k) // 3)
        return Label6(*t, *t).check_blocks()
    if r == 1:
        return Label6(
            (k - l - 1) // 3,
            (l - m + 2) // 3,
            (m - k - 1) // 3,
            (k - l + 2) // 3,
            (l - m - 1) // 3,
            (m - k - 1) // 3,
        ).check_blocks()
    return Label6(
        (k - l + 1) // 3,
        (l - m + 1) // 3,
        (m - k - 2) // 3,
        (k - l + 1) // 3,
        (l - m - 2) // 3,
        (m - k + 1) // 3,
    ).check_blocks()


def stencil_offsets(model: str, site) -> list[tuple]:
    """Neighbor sites in coefficient order, validated like the site itself.

    For the cross model the list is a, b, c, d, then the center site
    itself last; for hex it is a through g.  Malformed input raises
    :class:`InvalidSite`, an unknown model ``ValueError``.
    """
    from .operators import model_named  # deferred: operators depends on this module

    m = model_named(model)
    s = m.site(*site)
    return [s.neighbor(key) for key in m.coeffs]
