import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosshex.errors import InvalidSite
from crosshex.labels import (
    CROSS_COEFFS,
    HEX_COEFFS,
    Label3,
    Label6,
    label_shift_cross,
    label_shift_hex,
    relabel_cross,
    relabel_hex,
    site_cross,
    site_hex,
    stencil_offsets,
)

ints = st.integers(min_value=-50, max_value=50)


def hex_sites():
    return st.tuples(ints, ints).map(lambda kl: site_hex(kl[0], kl[1], -kl[0] - kl[1]))


# -- pinned values -----------------------------------------------------------


@pytest.mark.parametrize(
    "site, label",
    [
        ((0, 0), (1, 0, 0)),
        ((1, 0), (1, 0, 1)),
        ((2, 0), (0, 1, 1)),
    ],
)
def test_relabel_cross_pins(site, label):
    assert relabel_cross(site_cross(*site)) == Label3(*label)


@pytest.mark.parametrize(
    "site, label",
    [
        ((0, 0, 0), (0, 0, 0, 0, 0, 0)),
        ((1, 0, -1), (0, 1, -1, 1, 0, -1)),
        ((2, 0, -2), (1, 1, -2, 1, 0, -1)),
    ],
)
def test_relabel_hex_pins(site, label):
    assert relabel_hex(site_hex(*site)) == Label6(*label)


def _cross_shifts(n, m):
    """Neighbor site -> label shift, in coefficient order."""
    site = site_cross(n, m)
    return {tuple(site.neighbor(k)): label_shift_cross(site, k) for k in CROSS_COEFFS}


def test_cross_even_site_shifts():
    shifts = _cross_shifts(0, 0)
    assert shifts == {
        (-1, 0): (1, -1, 0),
        (1, 0): (0, 0, 1),
        (0, -1): (1, 0, 1),
        (0, 1): (0, -1, 0),
        (0, 0): (0, 0, 0),
    }


def test_cross_odd_site_shifts_negate_the_even_pattern():
    # the odd-site shift toward offset d is minus the even-site shift
    # toward the opposite offset -d, so the two parities share one table
    even = _cross_shifts(0, 0)
    for neigh, shift in _cross_shifts(1, 0).items():
        offset = (neigh[0] - 1, neigh[1] - 0)
        opposite = (-offset[0], -offset[1])
        assert shift == tuple(-x for x in even[opposite])


def test_stencil_offsets_follow_coefficient_order():
    assert stencil_offsets("cross", (2, -1)) == [(1, -1), (3, -1), (2, -2), (2, 0), (2, -1)]
    assert stencil_offsets("hex", (1, 1, -2)) == [
        (1, 2, -3), (1, 0, -1), (2, 0, -2), (0, 2, -2), (2, 1, -3), (0, 1, -1)
    ]


# -- structural invariants ---------------------------------------------------


@given(ints, ints)
def test_cross_translation_invariants(n, m):
    base = relabel_cross(site_cross(n, m))
    two_right = relabel_cross(site_cross(n + 2, m))
    two_up = relabel_cross(site_cross(n, m + 2))
    assert tuple(r - b for b, r in zip(base, two_right)) == (-1, 1, 1)
    assert tuple(u - b for b, u in zip(base, two_up)) == (-1, -1, -1)


@given(hex_sites())
def test_hex_labels_have_zero_block_sums(site):
    lab = relabel_hex(site)
    assert lab.x1 + lab.x2 + lab.x3 == 0
    assert lab.x4 + lab.x5 + lab.x6 == 0
    assert all(isinstance(x, int) for x in lab)


@given(hex_sites())
def test_hex_shifts_depend_only_on_residue(site):
    ref = {0: site_hex(0, 0, 0), 1: site_hex(1, 0, -1), 2: site_hex(2, 0, -2)}
    expected = [label_shift_hex(ref[site.residue], key) for key in HEX_COEFFS]
    assert [label_shift_hex(site, key) for key in HEX_COEFFS] == expected


@given(ints, ints)
def test_cross_shifts_depend_only_on_parity(n, m):
    ref = site_cross((n + m) % 2, 0)
    for key in CROSS_COEFFS:
        assert label_shift_cross(site_cross(n, m), key) == label_shift_cross(ref, key)


@given(hex_sites())
def test_hex_neighbor_residues_rotate(site):
    # each neighbor changes the residue class by (dk - dl) mod 3
    for key, step in (("a", 2), ("b", 1), ("c", 2), ("d", 1), ("f", 1), ("g", 2)):
        assert site.neighbor(key).residue == (site.residue + step) % 3


# -- validation --------------------------------------------------------------


def test_site_hex_rejects_nonzero_coordinate_sum():
    with pytest.raises(InvalidSite):
        site_hex(1, 0, 0)


@pytest.mark.parametrize("bad", [(0.5, 0), (1, "2"), (True is None, 1.0)])
def test_site_cross_rejects_non_integers(bad):
    with pytest.raises(InvalidSite):
        site_cross(*bad)


def test_site_hex_rejects_non_integers():
    with pytest.raises(InvalidSite):
        site_hex(1.0, 0, -1)


def test_label6_block_check():
    with pytest.raises(ValueError):
        Label6(1, 0, 0, 0, 0, 0).check_blocks()
    assert Label6(1, -1, 0, 0, 2, -2).check_blocks() == Label6(1, -1, 0, 0, 2, -2)


def test_stencil_offsets_unknown_model():
    with pytest.raises(ValueError):
        stencil_offsets("tri", (0, 0))


def test_stencil_offsets_validates_site():
    for model, site in (("hex", (1, 0, 1)), ("hex", (0, 0)), ("cross", (0, 0, 0))):
        with pytest.raises(InvalidSite):
            stencil_offsets(model, site)
