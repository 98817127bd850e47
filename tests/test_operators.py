import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosshex.errors import (
    MissingGauge,
    RankDeficient,
    SchemaError,
    SeparationFailure,
    SingularEvaluation,
)
from crosshex.labels import (
    CROSS_COEFFS,
    CROSS_LATTICE,
    HEX_COEFFS,
    HEX_LATTICE,
    relabel_cross,
    relabel_hex,
    stencil_offsets,
)
from crosshex.operators import (
    CROSS,
    CROSS_EVEN_FORMULAS,
    CROSS_ODD_FORMULAS,
    HEX,
    HEX_CASE0_F_AS_PRINTED,
    HEX_FORMULAS_BY_RESIDUE,
    MODELS,
    GaugeField,
    IntegralTerm,
    ProductTerm,
    StencilField,
    ThetaFactor,
    build_field,
    cross_coefficients,
    evaluate_ratio,
    field_document_text,
    field_from_document,
    field_metadata,
    field_to_csv,
    field_to_document,
    gauge_transform,
    hex_coefficients,
    oracle_report,
    psi_grid,
    residual_report,
    sample_probes,
    window_sites,
    _ratios,
    _unique_rows,
)
from crosshex import surface
from crosshex.surface import SurfacePoint, TorusCurve
from crosshex.theta import ScaledArray

from crosshex_testlib import (
    REFERENCE_RELABEL,
    _one_label_ratio,
    gauged_grid,
    halo_rows,
    one_site_stencil,
    one_value_phi,
    reference_as_dict,
    reference_csv,
    reference_document,
    scalars,
    spectral_data,
)


# -- windows -----------------------------------------------------------------


def test_window_sites_counts_and_order():
    cross2 = window_sites("cross", 2)
    assert len(cross2) == 25 and cross2 == sorted(cross2)
    hex2 = window_sites("hex", 2)
    assert len(hex2) == 19 and hex2 == sorted(hex2)
    assert all(k + l + m == 0 for k, l, m in hex2)
    assert window_sites("cross", 0) == [(0, 0)]


@pytest.mark.parametrize("radius", [1.9, np.int64(1), -1, True, "1"])
def test_a_radius_that_is_not_a_non_negative_int_is_refused(radius, cross_data, hex_data, cross_probes, hex_probes):
    want = f"window radius must be a non-negative integer, got {radius!r}"
    for sd, probes in ((cross_data, cross_probes), (hex_data, hex_probes)):
        width = len(MODELS[sd.model].coeffs)
        empty = ScaledArray(np.zeros((0, width), dtype=complex), np.zeros((0, width)))
        calls = (
            lambda: MODELS[sd.model].lattice.window(radius),
            lambda: window_sites(sd.model, radius),
            lambda: build_field(sd, radius),
            lambda: StencilField(sd.model, radius, empty),
            # a number or a string is a radius to psi_grid, never a site list
            lambda: psi_grid(sd, radius, probes),
        )
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == want


# -- the headline checks: residual, oracle, zero pattern ----------------------


def test_cross_field_annihilates_psi(cross_data, cross_probes):
    rep = residual_report(build_field(cross_data, 2), psi_grid(cross_data, 2, cross_probes))
    assert rep.passed and rep.max_residual <= 1e-8
    assert len(rep.entries) == 25


def test_hex_field_annihilates_psi(hex_data, hex_probes):
    rep = residual_report(build_field(hex_data, 2), psi_grid(hex_data, 2, hex_probes))
    assert rep.passed and rep.max_residual <= 1e-8


def test_cross_oracle_matches_field(cross_data, cross_probes):
    rep = oracle_report(build_field(cross_data, 1), psi_grid(cross_data, 1, cross_probes))
    assert rep.passed
    assert rep.max_gap <= 1e-6
    assert rep.max_mismatch <= 1e-6
    assert rep.max_forced_zero_excess == 0.0  # no forced zeros on the cross model


def test_hex_oracle_matches_field_and_zero_pattern(hex_data, hex_probes):
    rep = oracle_report(build_field(hex_data, 1), psi_grid(hex_data, 1, hex_probes))
    assert rep.passed
    assert rep.max_gap <= 1e-6
    assert rep.max_mismatch <= 1e-6
    assert rep.max_forced_zero_excess <= 1e-8


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_window_table_build_matches_site_by_site_build(model, torus):
    # build_field evaluates every stencil of the window in stacked array
    # passes; the one-formula-at-a-time ScaledComplex reference gives the
    # same bits at every site, whatever the window
    for curve in (torus, TorusCurve(complex(-4.25, 3.0))):
        sd = spectral_data(model, curve)
        thetas = {}
        for radius in range(7):
            field = build_field(sd, radius)
            for site in field.sites:
                want = one_site_stencil(sd, site, thetas)
                assert repr(scalars(field.stencil(site).values)) == repr(want), (curve.pm.B, radius, site)


def test_one_site_builders_match_the_reference(cross_data, hex_data):
    for sd, builder in ((cross_data, cross_coefficients), (hex_data, hex_coefficients)):
        for site in window_sites(sd.model, 1):
            assert repr(scalars(builder(sd, site).values)) == repr(one_site_stencil(sd, site)), site


def test_a_denominator_below_the_floor_is_refused(cross_data, monkeypatch):
    monkeypatch.setattr(cross_data, "_mantissa_floor", math.inf)
    with pytest.raises(SingularEvaluation, match="theta denominator at"):
        build_field(cross_data, 2)


def _scalar_residual(sd, stencil, site, P):
    """The residual at one probe from the one-value phi formula and ScaledComplex sums."""
    terms = [
        c.times(one_value_phi(sd, REFERENCE_RELABEL[sd.model](nb), P))
        for c, nb in zip(scalars(stencil.values), stencil_offsets(sd.model, site))
        if c.mantissa != 0
    ]
    top = max(t.log_abs for t in terms)
    total, denom = 0j, 0.0
    for t in terms:
        mag = math.exp(t.log_abs - top)
        total += (t.mantissa / abs(t.mantissa)) * mag
        denom += mag
    return abs(total) / denom


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_grid_residuals_match_one_value_psi(model, cross_data, hex_data, cross_probes, hex_probes):
    sd, probes = (cross_data, cross_probes) if model == "cross" else (hex_data, hex_probes)
    field = build_field(sd, 2)
    rep = residual_report(field, psi_grid(sd, 2, probes))
    # the window's sites listed one by one, in a list or a tuple, make the radius's grid
    for sites in (list(field.sites), tuple(field.sites)):
        assert repr(residual_report(field, psi_grid(sd, sites, probes))) == repr(rep)
    for entry in rep.entries:
        stencil = field.stencil(entry.site)
        per_probe = [_scalar_residual(sd, stencil, entry.site, P) for P in probes]
        assert repr(entry.residual) == repr(max(per_probe))
        assert entry.worst_probe == per_probe.index(max(per_probe))


def test_a_nan_residual_is_a_breach(cross_data, cross_probes):
    grid = psi_grid(cross_data, 1, cross_probes)
    mantissa = grid.values.mantissa.copy()
    mantissa[halo_rows(grid, [(0, 0)]), 3] = complex(math.nan, 0.0)
    bad = replace(grid, values=ScaledArray(mantissa, grid.values.log_scale))
    rep = residual_report(build_field(cross_data, 1), bad)
    # (0, 0) is its own centre and a neighbour of the four sites next to it
    hit = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(rep.failures) == hit
    assert math.isnan(rep.max_residual)
    assert all(math.isnan(e.residual) == (e.site in hit) for e in rep.entries)


def test_unit_and_zero_coefficients_by_class(cross_data, hex_data):
    cfield = build_field(cross_data, 1)
    for site in cfield.sites:
        st = cfield.stencil(site)
        unit = CROSS.units[(site[0] + site[1]) % 2]
        assert st.unit == unit and st.as_dict()[unit] == 1.0 + 0j
    hfield = build_field(hex_data, 1)
    for site in hfield.sites:
        st = hfield.stencil(site)
        r = (site[0] - site[1]) % 3
        assert st.unit == HEX.units[r]
        assert st.as_dict()[st.unit] == 1.0 + 0j
        for key in HEX.zeros[r]:
            assert st.as_dict()[key] == 0j


# -- formula tables stay glued to the lattice bookkeeping ---------------------


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    data=st.data(),
    columns=st.integers(1, 4),
    # small bounds give repeated rows; the largest make the column spans multiply past int64
    bound=st.sampled_from([1, 3, 2**20, 2**40, 2**62, 2**63]),
)
def test_unique_rows_matches_numpy_unique(data, columns, bound):
    entries = st.integers(-bound, bound - 1)
    pool = data.draw(st.lists(st.tuples(*[entries] * columns), max_size=12))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=30) if pool else st.just([]))
    a = np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), columns)
    rows, inverse = _unique_rows(a)
    assert rows.dtype == np.int64 and rows.shape[1:] == (columns,) and inverse.shape == (len(a),)
    assert np.array_equal(rows[inverse], a)
    distinct = [tuple(row) for row in rows.tolist()]
    # distinct, in lexicographic order, and the same set numpy finds
    assert distinct == sorted(set(distinct))
    if len(a):
        want, want_inverse = np.unique(a, axis=0, return_inverse=True)
        assert set(distinct) == {tuple(row) for row in want.tolist()}
        assert np.array_equal(want[want_inverse.ravel()], a)
    else:
        assert rows.shape == (0, columns)


def test_unique_rows_stays_exact_past_int64_spans():
    extreme = [-(2**63), 2**63 - 1]
    a = np.array([[x, y] for x in extreme for y in extreme] * 2 + [[0, 0]], dtype=np.int64)
    rows, inverse = _unique_rows(a)
    assert list(map(tuple, rows.tolist())) == sorted({tuple(row) for row in a.tolist()}) and len(rows) == 5
    assert np.array_equal(rows[inverse], a)


def _theta_shifts(formula):
    terms = (formula.main,) + tuple(formula.bracket)
    for term in terms:
        for tf in term.theta_num + term.theta_den:
            yield tf.shift


@pytest.mark.parametrize("name", MODELS)
def test_formula_tables_align_with_shifts(name, request):
    model = MODELS[name]
    sd = request.getfixturevalue(f"{name}_data")
    assert model.spectral_class.model == name and type(sd) is model.spectral_class
    classes = {model.lattice.classes(s) for s in model.lattice.window(2)}
    assert sorted(classes) == list(range(len(model.formulas)))
    assert len(model.units) == len(model.zeros) == len(model.formulas)
    for cls in sorted(classes):
        unit, zeros, formulas = model.units[cls], model.zeros[cls], model.formulas[cls]
        # unit, forced zeros and formula keys split the coefficients, no key twice
        assert sorted([unit, *zeros, *(f.coeff for f in formulas)]) == sorted(model.coeffs)
        for f in formulas:
            sd.label_array(list(_theta_shifts(f)))  # hex: both 3-blocks of each shift sum to zero


def test_ratio_formula_reproduces_oracle_coefficient(cross_data, cross_probes):
    v = relabel_cross(CROSS_LATTICE.site(0, 0))
    formula = next(f for f in CROSS_EVEN_FORMULAS if f.coeff == "a")
    rep = oracle_report(build_field(cross_data, 0), psi_grid(cross_data, [(0, 0)], cross_probes))
    assert rep.entries[0].gap <= 1e-6
    want = rep.coeffs.as_complex()[0, CROSS_COEFFS.index("a")]
    got = evaluate_ratio(cross_data, v, formula).as_complex()
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_printed_residue0_formula_fails_and_correction_holds(hex_data, hex_probes):
    # the as-printed denominator theta point is off by one marked point;
    # ERRATA.md records the printed and corrected readings with evidence
    v = relabel_hex(HEX_LATTICE.site(0, 0, 0))
    corrected = next(f for f in HEX_FORMULAS_BY_RESIDUE[0] if f.coeff == "f")
    assert "corrected-index" in corrected.transcription
    assert "as-printed" in HEX_CASE0_F_AS_PRINTED.transcription
    # the printed reading differs from the corrected one in its denominator thetas and its tag only
    printed = HEX_CASE0_F_AS_PRINTED
    assert printed.main.theta_den != corrected.main.theta_den and corrected == replace(
        printed, main=replace(printed.main, theta_den=corrected.main.theta_den), transcription=corrected.transcription
    )
    rep = oracle_report(build_field(hex_data, 0), psi_grid(hex_data, [(0, 0, 0)], hex_probes))
    want = rep.coeffs.as_complex()[0, HEX_COEFFS.index("f")]
    good = evaluate_ratio(hex_data, v, corrected).as_complex()
    bad = evaluate_ratio(hex_data, v, HEX_CASE0_F_AS_PRINTED).as_complex()
    assert abs(good - want) <= 1e-10 * abs(want)
    assert abs(bad - want) > 0.5 * abs(want)


def _bracketed_formulas():
    """Cross v (even class) with no bracket, its two-term bracket, and a three-term one no table has."""
    v = next(f for f in CROSS_EVEN_FORMULAS if f.coeff == "v")
    third = ProductTerm(
        sign=-1,
        theta_num=(ThetaFactor("P1-", (1, 0, 1)),),
        theta_den=(ThetaFactor("P3-", (0, 0, 1)),),
        integrals=(IntegralTerm(1, "P2-", ("P3+", "P3-")),),
    )
    return replace(v, bracket=()), v, replace(v, bracket=v.bracket + (third,))


def test_a_three_term_bracket_matches_the_one_label_reference(cross_data):
    *_, three = _bracketed_formulas()
    for site in window_sites("cross", 2)[::3]:
        v = relabel_cross(site)
        got = scalars(evaluate_ratio(cross_data, v, three))
        assert repr(got) == repr([_one_label_ratio(cross_data, v, three)]), site


def test_one_ratios_call_over_any_bracket_lengths_matches_the_per_block_calls(cross_data):
    labels = cross_data.label_array([relabel_cross(site) for site in window_sites("cross", 2)])
    none, two, three = _bracketed_formulas()
    blocks = [(labels[:7], two), (labels[7:9], none), (labels[9:16], three), (labels[16:], two), (labels[:5], three)]
    want = [ratio for block in blocks for ratio in scalars(_ratios(cross_data, [block]))]
    assert repr(scalars(_ratios(cross_data, blocks))) == repr(want)


def test_every_formula_declares_its_transcription():
    tagged = [
        f
        for formulas in (
            CROSS_EVEN_FORMULAS,
            CROSS_ODD_FORMULAS,
            *HEX_FORMULAS_BY_RESIDUE,
        )
        for f in formulas
    ]
    assert all(
        f.transcription.startswith(("as-printed", "corrected-index")) for f in tagged
    )
    corrected = [f for f in tagged if f.transcription.startswith("corrected-index")]
    assert [(f.coeff,) for f in corrected] == [("f",)]


# -- gauge and rescaling covariance -------------------------------------------


def _random_gauge(model, radius, seed):
    rng = np.random.default_rng(seed)
    sites = set(window_sites(model, radius))
    for site in list(sites):
        sites.update(stencil_offsets(model, site))
    values = {
        site: complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
        for site in sorted(sites)
    }
    return GaugeField(values)


@pytest.mark.parametrize("fixture", ["cross", "hex"])
def test_gauge_transformed_field_annihilates_scaled_psi(
    fixture, cross_data, hex_data, cross_probes, hex_probes
):
    sd = cross_data if fixture == "cross" else hex_data
    probes = (cross_probes if fixture == "cross" else hex_probes)[:8]
    gauge = _random_gauge(sd.model, 1, seed=13)
    transformed = gauge_transform(build_field(sd, 1), gauge)
    rep = residual_report(transformed, gauged_grid(psi_grid(sd, 1, probes), gauge))
    assert rep.passed and rep.max_residual <= 1e-8


def test_gauge_requires_the_halo(cross_data):
    field = build_field(cross_data, 1)
    gauge = GaugeField({site: 1.0 + 0j for site in window_sites("cross", 1)})
    with pytest.raises(MissingGauge):
        gauge_transform(field, gauge)


def test_gauge_floor():
    with pytest.raises(ValueError):
        GaugeField({(0, 0): 1e-13})


@pytest.mark.parametrize("g", [math.nan, complex(1.0, math.nan), math.inf, complex(0.0, -math.inf)])
def test_gauge_must_be_finite(g):
    # abs(g) < 1e-12 is False for NaN, and infinities clear the floor too
    with pytest.raises(ValueError, match="must be finite"):
        GaugeField({(0, 0): 1.0, (1, 0): g})


def test_residual_invariant_under_per_site_rescaling(cross_data, cross_probes):
    field = build_field(cross_data, 1)
    rng = np.random.default_rng(29)
    factors = [complex(rng.uniform(0.2, 5.0), rng.uniform(-1, 1)) for _ in field.sites]
    rescaled = replace(field, coeffs=field.coeffs.times(np.array(factors)[:, None]))
    grid = psi_grid(cross_data, 1, cross_probes[:6])
    base = residual_report(field, grid)
    other = residual_report(rescaled, grid)
    for e1, e2 in zip(base.entries, other.entries):
        assert e1.site == e2.site
        assert abs(e1.residual - e2.residual) <= 1e-10


# -- the checks can actually fail ----------------------------------------------


def test_perturbed_coefficient_is_detected(cross_data):
    probes = sample_probes(cross_data, 20, seed=11)
    field = build_field(cross_data, 1)
    factors = np.ones(field.coeffs.shape, dtype=complex)
    factors[field.rows[(0, 0)], CROSS_COEFFS.index("v")] = 1 + 1e-3
    perturbed = replace(field, coeffs=field.coeffs.times(factors))
    rep = residual_report(perturbed, psi_grid(cross_data, [(0, 0)], probes))
    assert rep.max_residual >= 1e-4
    assert not rep.passed


def test_forced_zero_measure_reads_a_real_term(hex_data, hex_probes):
    # residue-0 site: b is the unit, c and g are forced to zero.  Copying the
    # c-neighbour's psi over the b-neighbour's leaves e_b - e_c as the only
    # kernel, so the forced-zero term carries half of the equation
    site = HEX_LATTICE.site(0, 0, 0)
    field = build_field(hex_data, 0)
    grid = psi_grid(hex_data, [site], hex_probes)
    clean = oracle_report(field, grid)
    assert clean.passed and clean.max_forced_zero_excess <= 1e-10
    nbs = stencil_offsets("hex", site)
    b_row, c_row = halo_rows(grid, [nbs[HEX_COEFFS.index("b")], nbs[HEX_COEFFS.index("c")]])
    mantissa, log_scale = grid.values.mantissa.copy(), grid.values.log_scale.copy()
    mantissa[b_row], log_scale[b_row] = mantissa[c_row], log_scale[c_row]
    mutated = replace(grid, values=ScaledArray(mantissa, log_scale))
    rep = oracle_report(field, mutated)
    assert rep.entries[0].gap <= 1e-6  # a clean one-dimensional kernel
    assert rep.max_forced_zero_excess >= 0.1
    assert rep.failures == (tuple(site),)


def test_oracle_needs_independent_probes(cross_data, cross_probes):
    field = build_field(cross_data, 0)
    with pytest.raises(RankDeficient):
        oracle_report(field, psi_grid(cross_data, [(0, 0)], [cross_probes[0]] * 8))
    with pytest.raises(ValueError):
        oracle_report(field, psi_grid(cross_data, [(0, 0)], cross_probes[:5]))


# -- documents and CSV ---------------------------------------------------------


def test_field_document_round_trip_exact(cross_data):
    field = build_field(cross_data, 1)
    doc = json.loads(json.dumps(field_to_document(field, seed=0)))
    back = field_from_document(doc)
    assert back.model == field.model and back.radius == field.radius
    for site in field.sites:
        for key in CROSS_COEFFS:
            assert back.stencil(site).as_dict()[key] == field.stencil(site).as_dict()[key]


def test_field_document_validation(cross_data):
    field = build_field(cross_data, 1)
    good = field_to_document(field)

    def broken(**changes):
        doc = json.loads(json.dumps(good))
        doc.update(changes)
        return doc

    def first_site(**changes):
        """The sites list with fields of its first entry replaced."""
        return [{**good["sites"][0], **changes}] + good["sites"][1:]

    coeffs = good["sites"][0]["coeffs"]
    for doc in (
        broken(format="nope"),
        broken(model="tri"),
        broken(model=["cross"]),
        broken(model="hex"),  # two-index sites in a hex document
        broken(window={"radius": "one"}),
        broken(window={"radius": -1}, sites=[]),
        broken(window={"radius": True}),
        broken(sites=good["sites"][1:]),  # a window site is missing
        broken(sites=good["sites"] + good["sites"][:1]),  # a site listed twice
        broken(sites=good["sites"] + [{"site": [2, 0], "coeffs": coeffs}]),  # outside the window
        broken(sites=first_site(site=[0, 0.5])),
        broken(sites=first_site(site=[0, 0, 0])),
        broken(sites=first_site(site=[True, 0])),
        broken(sites=first_site(site=7)),
        broken(sites=first_site(coeffs=list(coeffs))),
        broken(sites=first_site(coeffs={**coeffs, "a": ["1", "2"]})),
        broken(sites=first_site(coeffs={**coeffs, "a": None})),
        broken(sites=first_site(coeffs={**coeffs, "a": [None, None]})),
        broken(sites=first_site(coeffs={**coeffs, "a": [True, False]})),
        broken(sites=first_site(coeffs={**coeffs, "a": [1.0, 0.0, 99]})),
    ):
        with pytest.raises(SchemaError):
            field_from_document(doc)

    missing_coeff = json.loads(json.dumps(good))
    del missing_coeff["sites"][0]["coeffs"]["v"]
    with pytest.raises(SchemaError):
        field_from_document(missing_coeff)


def _entry(doc, i, **changes):
    """``doc`` with entry ``i`` of its sites list updated (a ``coeffs`` dict merges into the entry's)."""
    doc = json.loads(json.dumps(doc))
    entry = doc["sites"][i]
    if isinstance(changes.get("coeffs"), dict):
        changes["coeffs"] = {**entry["coeffs"], **changes["coeffs"]}
    entry.update(changes)
    return doc


def _dropped(doc, i, key):
    """``doc`` without coefficient ``key`` of entry ``i``."""
    doc = json.loads(json.dumps(doc))
    del doc["sites"][i]["coeffs"][key]
    return doc


def _junk(doc, i):
    """``doc`` with entry ``i`` of its sites list replaced by a string."""
    doc = json.loads(json.dumps(doc))
    doc["sites"][i] = "junk"
    return doc


def _pair(doc, i, key, pair):
    """``doc`` with coefficient ``key`` of entry ``i`` replaced by ``pair``."""
    return _entry(doc, i, coeffs={key: pair})


@pytest.fixture(scope="module")
def cross_doc(cross_data):
    """The document of the radius-1 cross field: entry 4 is site (0, 0)."""
    return field_to_document(build_field(cross_data, 1))


def _refusal(doc) -> str:
    with pytest.raises(SchemaError) as refused:
        field_from_document(doc)
    return str(refused.value)


_SITE_MESSAGE = "square-lattice site must be a pair of integers, got "
_KEYS_MESSAGE = "site (0, 0): coefficients must be exactly ('a', 'b', 'c', 'd', 'v'), got "
_PAIR_MESSAGE = "site (0, 0): coefficient a: expected a [re, im] pair of finite numbers, got "
_SHAPE_MESSAGE = "each site entry needs a 'site' list and a 'coeffs' object"

# malformed values of coefficient a at site (0, 0)
BAD_PAIRS = {
    "one-element-pair": [1.0],
    "str-part": ["1", 0.0],
    "bool-part": [0.5, True],
    "null-part": [None, 0.0],
    "nan-part": [0.0, math.nan],
    "infinite-part": [-math.inf, 0.0],
    "integer-beyond-double-range": [10**400, 0],
    "non-list-pair": "1,0",
    "object-pair": {"re": 1.0, "im": 0.0},
}


@pytest.mark.parametrize("case", BAD_PAIRS)
def test_reader_refuses_a_malformed_pair_naming_its_site_and_coefficient(cross_doc, case):
    assert _refusal(_pair(cross_doc, 4, "a", BAD_PAIRS[case])) == _PAIR_MESSAGE + repr(BAD_PAIRS[case])


def _bad_a(doc):
    return _pair(doc, 4, "a", [1.0])


# each malformed entry or window, and the refusal it gets
READER_REFUSALS = {
    "bool-site-index": (lambda d: _entry(d, 4, site=[True, 0]), _SITE_MESSAGE + "(True, 0)"),
    "float-site-index": (lambda d: _entry(d, 4, site=[0.0, 0]), _SITE_MESSAGE + "(0.0, 0)"),
    "duplicate-site": (lambda d: _entry(d, 5, site=[0, 0]), "site (0, 0) is listed twice"),
    "missing-site": (
        lambda d: {**d, "sites": d["sites"][:4] + d["sites"][5:]},
        "field is missing site (0, 0) inside its window",
    ),
    "site-outside-window": (
        lambda d: {**d, "sites": d["sites"] + [{**d["sites"][4], "site": [2, 0]}]},
        "field has sites outside its radius-1 window: [(2, 0)]",
    ),
    "missing-coefficient": (lambda d: _dropped(d, 4, "v"), _KEYS_MESSAGE + "['a', 'b', 'c', 'd']"),
    "extra-coefficient": (
        lambda d: _entry(d, 4, coeffs={"z": [1.0, 0.0]}), _KEYS_MESSAGE + "['a', 'b', 'c', 'd', 'v', 'z']"
    ),
    # two faults: the first in document order is named, and within one
    # entry the site, its repeat, its keys and its values in that order
    "value-before-later-site": (lambda d: _bad_a(_entry(d, 6, site=[0, 0.5])), _PAIR_MESSAGE + "[1.0]"),
    "site-before-later-value": (lambda d: _bad_a(_entry(d, 2, site=[1, True])), _SITE_MESSAGE + "(1, True)"),
    "repeat-before-its-values": (lambda d: _bad_a(_entry(d, 4, site=[-1, 0])), "site (-1, 0) is listed twice"),
    "value-before-later-repeat": (lambda d: _bad_a(_entry(d, 6, site=[-1, 0])), _PAIR_MESSAGE + "[1.0]"),
    "value-before-later-keys": (lambda d: _bad_a(_dropped(d, 6, "b")), _PAIR_MESSAGE + "[1.0]"),
    "repeat-before-its-keys": (
        lambda d: _dropped(_entry(d, 4, site=[-1, 0]), 4, "b"), "site (-1, 0) is listed twice"
    ),
    "keys-before-its-values": (lambda d: _bad_a(_dropped(d, 4, "b")), _KEYS_MESSAGE + "['a', 'c', 'd', 'v']"),
    "coefficient-order-not-key-order": (  # "v" is listed first, "a" comes first
        lambda d: _entry(d, 4, coeffs={"v": [None, 0.0], "a": [1.0]}), _PAIR_MESSAGE + "[1.0]"
    ),
    "value-before-missing-site": (lambda d: _bad_a({**d, "sites": d["sites"][:-1]}), _PAIR_MESSAGE + "[1.0]"),
    "value-before-later-shape": (lambda d: _bad_a(_junk(d, 6)), _PAIR_MESSAGE + "[1.0]"),
    "shape-before-later-value": (lambda d: _bad_a(_junk(d, 2)), _SHAPE_MESSAGE),
}


@pytest.mark.parametrize("case", READER_REFUSALS)
def test_reader_refusals_name_the_first_offending_site(cross_doc, case):
    mutate, message = READER_REFUSALS[case]
    assert _refusal(mutate(cross_doc)) == message


def test_a_hex_site_off_the_plane_is_refused(hex_data):
    doc = _entry(field_to_document(build_field(hex_data, 1)), 3, site=[1, 0, 0])
    assert _refusal(doc) == "triangular-lattice site must satisfy k+l+m=0, got 1+0+0"


def _json_reference(doc) -> str:
    """The field document text as the json encoder writes it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _with_parts(doc, parts):
    """``doc`` with its coefficient parts replaced, site by site and key by key, by ``parts`` cycled."""
    parts = itertools.cycle(parts)
    sites = [
        {"site": e["site"], "coeffs": {k: [next(parts), next(parts)] for k in e["coeffs"]}}
        for e in doc["sites"]
    ]
    return {**doc, "sites": sites}


EDGE_PARTS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
    1.0, -1.0, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.0, 1e16, 1e-7,
]
HOSTILE_REFS = ['say "hi"', "back\\slash\\", "nön-ÄSCII 日本", '"sites": []', '\n  "sites": []', "100%r %s"]


def _reversed_keys(node):
    """``node`` with the members of every object in reverse order."""
    if isinstance(node, dict):
        return {k: _reversed_keys(node[k]) for k in reversed(node)}
    return [_reversed_keys(x) for x in node] if isinstance(node, list) else node


# a coefficient written in a valid but non-canonical way -> as it is exported
NON_CANONICAL_PARTS = {
    "integers": ([3, -2], [3.0, -2.0]),
    "signed-zero-pair": ([-0.0, -0.0], [0.0, 0.0]),  # a zero coefficient is written as 0
    "signed-zero-real": ([-0.0, 2.5], [-0.0, 2.5]),
    "signed-zero-imag": ([2.5, -0.0], [2.5, -0.0]),
    "integers-beyond-2**53": ([2**53 + 1, -(2**70) - 1], [float(2**53 + 1), float(-(2**70) - 1)]),
}


@pytest.mark.parametrize("case", NON_CANONICAL_PARTS)
def test_non_canonical_values_export_as_the_floats_they_read_as(cross_data, case):
    raw, want = NON_CANONICAL_PARTS[case]
    doc = field_to_document(build_field(cross_data, 1), seed=3, spectral_data_ref="s.json")
    read = field_from_document(_pair(doc, 4, "a", raw))
    assert field_document_text(read, **field_metadata(doc)) == _json_reference(_pair(doc, 4, "a", want))


def test_key_order_and_whitespace_do_not_change_the_export(cross_data, hex_data):
    for sd in (cross_data, hex_data):
        doc = field_to_document(build_field(sd, 1), seed=3, spectral_data_ref="s.json")
        again = json.loads(json.dumps(_reversed_keys(doc), separators=(",", ":")))
        text = field_document_text(field_from_document(again), **field_metadata(again))
        assert text == _json_reference(doc)

@pytest.mark.parametrize("radius", [0, 1])
def test_field_document_text_is_the_json_encoding(cross_data, hex_data, radius):
    for sd in (cross_data, hex_data):
        # built fields hold the exact units 1 and the forced zeros 0
        field = build_field(sd, radius)
        edge = field_from_document(_with_parts(field_to_document(field), EDGE_PARTS))
        for case in (field, edge):
            for ref in ("s.json", *HOSTILE_REFS):
                doc = reference_document(case, seed=3, spectral_data_ref=ref)
                assert field_document_text(case, seed=3, spectral_data_ref=ref) == _json_reference(doc)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data(), model=st.sampled_from(["cross", "hex"]))
def test_field_document_text_matches_json_on_any_finite_coefficients(cross_data, hex_data, data, model):
    doc = field_to_document(build_field(cross_data if model == "cross" else hex_data, 1))
    count = 2 * sum(len(e["coeffs"]) for e in doc["sites"])
    finite = st.floats(allow_nan=False, allow_infinity=False)
    field = field_from_document(_with_parts(doc, data.draw(st.lists(finite, min_size=count, max_size=count))))
    assert field_document_text(field) == _json_reference(reference_document(field))


@pytest.mark.parametrize("radius", [0, 3, 12])
@pytest.mark.parametrize("model", ["cross", "hex"])
def test_writers_match_the_per_site_references(model, radius, request):
    # the array writers against the per-site walk they replaced, on built
    # fields and on their document-read copies (log scale 0)
    built = build_field(request.getfixturevalue(f"{model}_data"), radius)
    read = field_from_document(json.loads(field_document_text(built)))
    for field in (built, read):
        doc = reference_document(field, seed=3, spectral_data_ref="s.json")
        assert field_document_text(field, seed=3, spectral_data_ref="s.json") == _json_reference(doc)
        assert repr(field_to_document(field, seed=3, spectral_data_ref="s.json")) == repr(doc)
        assert field_to_csv(field) == reference_csv(field)
        for site in field.sites:
            stencil = field.stencil(site)
            assert repr(stencil.as_dict()) == repr(reference_as_dict(stencil)), site


def test_a_coefficient_beyond_double_range_is_refused_where_it_was(cross_data):
    # the first coefficient beyond double range in site order, then
    # coefficient order, is named, as the per-site walk named it
    field = build_field(cross_data, 1)
    log_scale = field.coeffs.log_scale.copy()
    log_scale[3, 4], log_scale[3, 1], log_scale[5, 0] = 800.0, 900.0, 1000.0
    log_scale[2, 2] = -800.0  # far below range: collapses to 0, no refusal
    huge = replace(field, coeffs=ScaledArray(field.coeffs.mantissa, log_scale))
    with pytest.raises(SingularEvaluation) as want:
        reference_document(huge)
    assert str(want.value).startswith("coefficient b exceeds double range (log magnitude 900.")
    for write in (field_to_document, field_document_text, field_to_csv):
        with pytest.raises(SingularEvaluation) as got:
            write(huge)
        assert str(got.value) == str(want.value), write
    with pytest.raises(SingularEvaluation) as got:
        huge.stencil(huge.sites[3]).as_dict()
    assert str(got.value) == str(want.value)


def test_stencil_views_are_read_only(cross_data):
    field = build_field(cross_data, 1)
    view = field.stencil((0, 0))
    assert view.site == (0, 0) and view.unit == "d"
    with pytest.raises(ValueError, match="read-only"):
        view.values.mantissa[0] = 2.0
    with pytest.raises(KeyError):
        field.stencil((2, 0))


def test_window_completeness_enforced(cross_data):
    field = build_field(cross_data, 1)
    with pytest.raises(ValueError, match=r"field coefficients have shape \(8, 5\), not one row per site"):
        StencilField("cross", 1, field.coeffs[:-1])  # a row short
    # the window is walked one site past the rows given, never to its end
    rows = ScaledArray(np.zeros((3, len(HEX_COEFFS)), dtype=complex), np.zeros((3, len(HEX_COEFFS))))
    with pytest.raises(ValueError, match=r"field coefficients have shape \(3, 6\), not one row per site"):
        StencilField("hex", 2**70, rows)


def test_csv_shape_and_exact_round_trip(cross_data, hex_data):
    cfield = build_field(cross_data, 1)
    lines = field_to_csv(cfield).strip().splitlines()
    assert lines[0] == "n,m,re_a,im_a,re_b,im_b,re_c,im_c,re_d,im_d,re_v,im_v"
    assert len(lines) == 1 + len(cfield.sites)
    for row in lines[1:]:
        cells = row.split(",")
        site = (int(cells[0]), int(cells[1]))
        st = cfield.stencil(site)
        for i, key in enumerate(CROSS_COEFFS):
            want = st.as_dict()[key]
            assert complex(float(cells[2 + 2 * i]), float(cells[3 + 2 * i])) == want

    hfield = build_field(hex_data, 1)
    hlines = field_to_csv(hfield).strip().splitlines()
    assert hlines[0] == "k,l,m,re_a,im_a,re_b,im_b,re_c,im_c,re_d,im_d,re_f,im_f,re_g,im_g"
    for row in hlines[1:]:
        cells = row.split(",")
        site = (int(cells[0]), int(cells[1]), int(cells[2]))
        if (site[0] - site[1]) % 3 == 0:
            ci = 3 + 2 * HEX_COEFFS.index("c")
            gi = 3 + 2 * HEX_COEFFS.index("g")
            assert cells[ci] == "0" and cells[ci + 1] == "0"
            assert cells[gi] == "0" and cells[gi + 1] == "0"


# -- probe sampling -------------------------------------------------------------


def test_sample_probes_deterministic_and_separated(cross_data):
    a = sample_probes(cross_data, 6, seed=3)
    b = sample_probes(cross_data, 6, seed=3)
    assert [p.lift for p in a] == [p.lift for p in b]
    c = sample_probes(cross_data, 6, seed=4)
    assert [p.lift for p in a] != [p.lift for p in c]
    for i, p in enumerate(a):
        for q in list(cross_data.marked.values()) + list(cross_data.divisor):
            assert cross_data.curve.cover_distance(p.lift, q.lift) >= 0.05
        for q in a[i + 1 :]:
            assert cross_data.curve.cover_distance(p.lift, q.lift) >= 0.02


def test_sample_probes_raises_when_separation_impossible(cross_data):
    # each draw places at most one probe
    with pytest.raises(SeparationFailure, match="of 1001 points in 1000 draws"):
        sample_probes(cross_data, 1001, seed=0)


@pytest.mark.parametrize("model", ["cross", "hex"])
def test_the_pole_guard_measures_every_probe_path(model, monkeypatch):
    """Each (pole, base, probe) segment of an integrals call reaches the 1e-8 guard, though the sampler screened it."""
    curve = TorusCurve(-6.0)
    sd = spectral_data(model, curve)
    probes = sample_probes(sd, 12, seed=5)
    measure, guarded = curve._segment_pole_distance, []

    def recording(pole, a, b, below=math.inf):
        if below == surface._POLE_TOL:
            guarded.extend(zip(*(x.ravel().tolist() for x in np.broadcast_arrays(pole, a, b))))
        return measure(pole, a, b, below)

    monkeypatch.setattr(curve, "_segment_pole_distance", recording)
    pairs = [(sd.marked[a], sd.marked[b]) for a, b in sd.basis_pairs]
    # the probe paths, the marked-point integrals, and a hand-built request with a probe and
    # a pole the sampler did not screen: each distinct segment reaches the guard once
    for requests in (
        [(P, *pair) for pair in pairs for P in probes],
        [(sd.marked[endpoint], sd.marked[a], sd.marked[b]) for endpoint, (a, b) in MODELS[model].curve_integrals],
        [(SurfacePoint(curve.base_lift + 2.0 + 1.5j), *pairs[0]), (probes[0], sd.divisor[0], pairs[0][1])],
    ):
        guarded.clear()
        curve.integrals(requests)
        segments = {(pole.lift, curve.base_lift, P.lift) for P, *poles in requests for pole in poles}
        assert len(guarded) == len(segments) and set(guarded) == segments
    # and so do the b-cycles of the basis pairs, though building sd checked them once
    guarded.clear()
    curve.b_periods(pairs)
    assert {pole for pole, _, _ in guarded} == {p.lift for pair in pairs for p in pair}
    assert all(a != curve.base_lift for _, a, _ in guarded)
