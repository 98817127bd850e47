import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosshex.errors import InvalidSite
from crosshex.labels import (
    CROSS_COEFFS,
    CROSS_LATTICE,
    HEX_COEFFS,
    HEX_LATTICE,
    relabel_cross,
    relabel_hex,
    stencil_offsets,
)
from crosshex.operators import MODELS, psi_grid, window_sites

from conftest import REFERENCE_NEIGHBOR_OFFSETS, REFERENCE_RELABEL, label_shift

ints = st.integers(min_value=-50, max_value=50)


def hex_sites():
    return st.tuples(ints, ints).map(lambda kl: HEX_LATTICE.site(kl[0], kl[1], -kl[0] - kl[1]))


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
    assert relabel_cross(CROSS_LATTICE.site(*site)) == label


@pytest.mark.parametrize(
    "site, label",
    [
        ((0, 0, 0), (0, 0, 0, 0, 0, 0)),
        ((1, 0, -1), (0, 1, -1, 1, 0, -1)),
        ((2, 0, -2), (1, 1, -2, 1, 0, -1)),
    ],
)
def test_relabel_hex_pins(site, label):
    assert relabel_hex(HEX_LATTICE.site(*site)) == label


def _cross_shifts(n, m):
    """Neighbor site -> label shift, in coefficient order."""
    site = CROSS_LATTICE.site(n, m)
    neighbors = stencil_offsets("cross", site)
    return {tuple(nb): label_shift("cross", site, k) for nb, k in zip(neighbors, CROSS_COEFFS)}


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


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_lattice_table_matches_the_reference_over_the_radius_40_window(model):
    m, relabel = MODELS[model], REFERENCE_RELABEL[model]
    one_site = {"cross": relabel_cross, "hex": relabel_hex}[model]
    sites = [m.lattice.site(*s) for s in window_sites(model, 40)]
    coords = np.array(sites)
    # the reference's case selectors: the parity of n + m, the residue of k - l
    classes = [(s[0] + s[1]) % 2 if model == "cross" else (s[0] - s[1]) % 3 for s in sites]
    assert m.lattice.classes(coords).tolist() == classes
    labels = [list(relabel(s)) for s in sites]
    assert m.lattice.labels(coords).tolist() == labels
    assert [list(one_site(s)) for s in sites] == labels
    offsets = REFERENCE_NEIGHBOR_OFFSETS[model]
    neighbours = [[m.lattice.site(*(x + d for x, d in zip(s, offsets[k]))) for k in m.coeffs] for s in sites]
    table = coords[:, None, :] + m.lattice.offsets
    assert table.tolist() == [[list(nb) for nb in row] for row in neighbours]
    assert [stencil_offsets(model, s) for s in sites] == neighbours
    assert m.lattice.labels(table).tolist() == [[list(relabel(nb)) for nb in row] for row in neighbours]


@pytest.mark.parametrize("lattice", [CROSS_LATTICE, HEX_LATTICE], ids=lambda lattice: lattice.name)
def test_lattice_window_counts_order_and_laziness(lattice):
    d = len(lattice.index_names)
    for r in range(9):
        sites = list(lattice.window(r))
        assert len(sites) == ((2 * r + 1) ** 2 if d == 2 else 3 * r * (r + 1) + 1), r
        # every site of the box with max-norm <= r that the lattice accepts, in lexicographic order
        box = itertools.product(range(-r, r + 1), repeat=d)
        assert sites == [s for s in box if not lattice.zero_sum or sum(s) == 0], r
        assert sites == sorted(sites) and all(lattice.site(*s) == s for s in sites)
    # a huge window hands out its first site at once: no range is built or walked
    R = 2**70
    assert next(lattice.window(R)) == ((-R, -R) if d == 2 else (-R, 0, R))


# -- structural invariants ---------------------------------------------------


@given(ints, ints)
def test_cross_translation_invariants(n, m):
    base = relabel_cross(CROSS_LATTICE.site(n, m))
    two_right = relabel_cross(CROSS_LATTICE.site(n + 2, m))
    two_up = relabel_cross(CROSS_LATTICE.site(n, m + 2))
    assert tuple(r - b for b, r in zip(base, two_right)) == (-1, 1, 1)
    assert tuple(u - b for b, u in zip(base, two_up)) == (-1, -1, -1)


@given(hex_sites())
def test_hex_labels_have_zero_block_sums(site):
    lab = relabel_hex(site)
    assert lab[0] + lab[1] + lab[2] == 0
    assert lab[3] + lab[4] + lab[5] == 0
    assert all(isinstance(x, int) for x in lab)


@given(hex_sites())
def test_hex_shifts_depend_only_on_residue(site):
    ref = {0: HEX_LATTICE.site(0, 0, 0), 1: HEX_LATTICE.site(1, 0, -1), 2: HEX_LATTICE.site(2, 0, -2)}
    expected = [label_shift("hex", ref[(site[0] - site[1]) % 3], key) for key in HEX_COEFFS]
    assert [label_shift("hex", site, key) for key in HEX_COEFFS] == expected


@given(ints, ints)
def test_cross_shifts_depend_only_on_parity(n, m):
    ref = CROSS_LATTICE.site((n + m) % 2, 0)
    for key in CROSS_COEFFS:
        assert label_shift("cross", CROSS_LATTICE.site(n, m), key) == label_shift("cross", ref, key)


@given(hex_sites())
def test_hex_neighbor_residues_rotate(site):
    # each neighbor changes the residue class by (dk - dl) mod 3, in coefficient order
    residue = HEX_LATTICE.classes(site)
    for neighbor, step in zip(stencil_offsets("hex", site), (2, 1, 2, 1, 1, 2)):
        assert HEX_LATTICE.classes(neighbor) == (residue + step) % 3


# -- validation --------------------------------------------------------------


def test_site_hex_rejects_nonzero_coordinate_sum():
    with pytest.raises(InvalidSite):
        HEX_LATTICE.site(1, 0, 0)


@pytest.mark.parametrize("bad", [(0.5, 0), (1, "2"), (True is None, 1.0)])
def test_site_cross_rejects_non_integers(bad):
    with pytest.raises(InvalidSite):
        CROSS_LATTICE.site(*bad)


def test_site_hex_rejects_non_integers():
    with pytest.raises(InvalidSite):
        HEX_LATTICE.site(1.0, 0, -1)


SITE_REFUSALS = {
    "cross-arity": ("cross", (0, 0, 0), "square-lattice site must be a pair of integers, got (0, 0, 0)"),
    "cross-bool": ("cross", (True, 0), "square-lattice site must be a pair of integers, got (True, 0)"),
    "cross-float": ("cross", (0, 1.0), "square-lattice site must be a pair of integers, got (0, 1.0)"),
    "hex-arity": ("hex", (0, 0), "triangular-lattice site must be a triple of integers, got (0, 0)"),
    "hex-bool": ("hex", (1, False, -1), "triangular-lattice site must be a triple of integers, got (1, False, -1)"),
    "hex-float": ("hex", (1.0, 0, -1), "triangular-lattice site must be a triple of integers, got (1.0, 0, -1)"),
    "hex-sum": ("hex", (1, 0, 0), "triangular-lattice site must satisfy k+l+m=0, got 1+0+0"),
}


@pytest.mark.parametrize("case", list(SITE_REFUSALS))
def test_a_bad_site_is_refused_with_its_lattice_text(case, cross_data, hex_data, cross_probes, hex_probes):
    model, site, want = SITE_REFUSALS[case]
    sd, probes = (cross_data, cross_probes) if model == "cross" else (hex_data, hex_probes)
    for call in (lambda: stencil_offsets(model, site), lambda: psi_grid(sd, [site], probes)):
        with pytest.raises(InvalidSite) as info:
            call()
        assert str(info.value) == want


def test_stencil_offsets_unknown_model():
    with pytest.raises(ValueError):
        stencil_offsets("tri", (0, 0))


def test_stencil_offsets_validates_site():
    for model, site in (("hex", (1, 0, 1)), ("hex", (0, 0)), ("cross", (0, 0, 0))):
        with pytest.raises(InvalidSite):
            stencil_offsets(model, site)
