"""Table data, fundamental-region sections, and the two theorem drivers.

Dimension arithmetic spot-checked by hand against the algebra formulas:
rank-m symmetric matrices have dim m(m+1)/2, complex hermitian m^2,
quaternionic m(2m-1), the spin factor on an n-ball has dim n+1, and the
octonionic algebra 27.  Every annotated table row must satisfy
isotropy dim = dim - 1 and space rank = rank - 1, e.g. type AII at n=3:
(n-1)(2n+1) = 14 = 15 - 1.  The one printed annotation that cannot
satisfy it is type A_n (its dim n(n+2) matches Herm(n+1,C), not the
printed Herm(n,C)); the consistency check must flag that row and still
pass overall.
"""

import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from jordan_spectra import (
    automorphisms,
    classification,
    exactla,
    geometry,
    operational,
    spectral,
    symmetry,
)
from jordan_spectra.algebra import AlgebraDescriptor, inner, norm, unit, zero
from jordan_spectra.classification import (
    ClassificationError,
    FrSection,
    MrTableRow,
    default_converse_catalog,
    eval_formula,
    fr_polytope,
    fr_section,
    load_tables,
    mr_table_all,
    mr_table_lookup,
    section_sample_check,
    standard_frame,
    table_consistency_check,
    tables_path,
    verify_converse_on_polytopes,
    verify_main_theorem_if_direction,
)
from jordan_spectra.geometry import (
    CapExceeded,
    ball,
    barycenter,
    eja_state_space,
    exposed_faces,
    maximal_flags,
    pentagon,
    polytope,
    simplex,
    square,
)
from jordan_spectra.operational import (
    complement_face,
    enumerate_frames,
    face_of_frame,
    is_spectral,
    rank,
    recheck_counterexample,
)
from jordan_spectra.scalars import Sqrt5
from jordan_spectra.spectral import eigenvalues, is_primitive_idempotent, random_jordan_frame
from jordan_spectra.symmetry import (
    automorphism_group,
    frame_flag_bijection,
    is_regular,
    is_strongly_symmetric,
)

F = Fraction


# -- formula evaluator -----------------------------------------------------------


def test_eval_formula_arithmetic():
    assert eval_formula("(n-1)*(n+2)/2", {"n": 4}) == 9
    assert eval_formula("n*(2*n+1)", {"n": 3}) == 21
    assert eval_formula("n//2", {"n": 5}) == 2
    assert eval_formula("-n+7", {"n": 3}) == 4
    assert eval_formula("26", {}) == 26
    assert eval_formula(13, None) == 13


def test_eval_formula_rejects_unsafe_syntax():
    for bad in ("__import__('os')", "n.bit_length()", "n**2", "1.5", "[1,2]"):
        with pytest.raises(ClassificationError):
            eval_formula(bad, {"n": 2})
    with pytest.raises(ClassificationError):
        eval_formula("m+1", {"n": 2})  # unbound name
    with pytest.raises(ClassificationError):
        eval_formula("n/2", {"n": 5})  # non-integral division


# -- table rows ------------------------------------------------------------------


def test_lookup_ai():
    row = mr_table_lookup("AI")
    assert row.symmetric_space == "SL(n,R)/SO(n)"
    values = row.evaluate({"n": 4})
    assert values["rank"] == 3
    assert values["isotropy_dim"] == 9
    assert values["polytopes"] == ["simplex(3)"]
    assert values["eja"] == {"family": "sym_r", "param": 4}


def test_lookup_eiv():
    row = mr_table_lookup("EIV")
    values = row.evaluate()
    assert values["rank"] == 2
    assert values["isotropy_dim"] == 26
    assert values["root_space"] == "A_2"
    assert values["polytopes"] == ["simplex(2)"]
    assert values["eja"] == {"family": "herm_o", "param": 3}


def test_lookup_table4_an_prints_verbatim():
    row = mr_table_lookup("A_n")
    assert row.eja_printed == "Herm(n,C)"  # stored as printed, never corrected
    values = row.evaluate({"n": 2})
    assert values["isotropy_dim"] == 8
    assert values["polytopes"] == ["simplex(2)"]


def test_lookup_diii_root_cases_verbatim():
    row = mr_table_lookup("DIII")
    assert row.root_space == "C_q (q odd); BC_q (q even)"
    values = row.evaluate({"n": 5})
    assert values["rank"] == 2
    assert values["polytopes"] == ["cube(2)", "crosspolytope(2)"]


def test_lookup_unknown_label():
    with pytest.raises(ClassificationError):
        mr_table_lookup("Z9")


def test_all_rows_present():
    labels = [r.type for r in mr_table_all()]
    assert len(labels) == 22
    for needed in ("AI", "AII", "AIII", "BI", "DI", "DIII", "CI", "CII",
                   "EIII", "EIV", "EVI", "EVII", "EIX", "FI", "FII", "G",
                   "A_n", "B_n", "C_n", "D_n", "F_4", "G_2"):
        assert needed in labels


def test_rows_round_trip_bit_exactly():
    raw = load_tables()
    rebuilt = [MrTableRow.from_dict(doc).to_dict() for doc in raw["rows"]]
    assert rebuilt == raw["rows"]
    assert json.loads(json.dumps(raw)) == raw


def test_consistency_check_passes_and_flags_an():
    report = table_consistency_check()
    assert report["all_pass"]
    assert report["failures"] == []
    assert len(report["flagged"]) == 1
    flag = report["flagged"][0]
    assert flag["type"] == "A_n"
    assert "Herm(n+1,C)" in flag["consistent_with"]
    assert report["rows_checked"] == 27  # 5 families + 22 rows


def test_tables_env_override(tmp_path, monkeypatch):
    data = load_tables()
    data["rows"][0]["isotropy_dim"] = "(n-1)*(n+2)"  # break AI on purpose
    alt = tmp_path / "tables.json"
    alt.write_text(json.dumps(data))
    monkeypatch.setenv("JORDAN_SPECTRA_TABLES", str(alt))
    assert tables_path() == str(alt)
    report = table_consistency_check()
    assert not report["all_pass"]
    assert any(f.get("type") == "AI" for f in report["failures"])
    monkeypatch.delenv("JORDAN_SPECTRA_TABLES")
    assert table_consistency_check()["all_pass"]


# -- sections --------------------------------------------------------------------


def test_standard_frames_sum_to_unit_exactly():
    for family, param in (("sym_r", 3), ("herm_c", 3), ("herm_h", 2),
                          ("spin", 5), ("herm_o", 3)):
        alg = AlgebraDescriptor(family, param)
        frame = standard_frame(alg)
        assert len(frame) == alg.rank
        total = frame[0]
        for c in frame[1:]:
            total = total + c
        assert np.array_equal(total.coeffs, unit(alg).coeffs)
        for c in frame:
            assert is_primitive_idempotent(c)


def test_fr_section_sym_r():
    alg = AlgebraDescriptor("sym_r", 3)
    section = fr_section(alg)
    assert section.kind == "eja"
    assert section.polytope.vertices == simplex(2).vertices
    expected = standard_frame(alg)
    for got, want in zip(section.basis, expected):
        assert norm(got - want) == 0.0


def test_fr_section_accepts_state_space_and_custom_frame():
    alg = AlgebraDescriptor("herm_c", 3)
    section = fr_section(eja_state_space("herm_c", 3))
    assert len(section.basis) == 3
    frame = tuple(random_jordan_frame(alg, 9))
    section = fr_section(alg, frame=frame)
    assert section.basis == frame


def test_fr_polytope_spin_is_segment():
    poly = fr_polytope(AlgebraDescriptor("spin", 7))
    assert poly.vertices == simplex(1).vertices


def test_fr_polytope_simplex_is_itself():
    body = simplex(3)
    assert fr_polytope(body).vertices == body.vertices


def test_fr_section_ball_diameter():
    section = fr_section(ball(3))
    assert section.kind == "ball"
    assert section.polytope.vertices == (
        (F(1), F(0), F(0)),
        (F(-1), F(0), F(0)),
    )


def test_fr_section_refuses_square():
    with pytest.raises(ClassificationError, match="strongly symmetric"):
        fr_section(square())


def test_section_sampling_eja():
    section = fr_section(AlgebraDescriptor("sym_r", 3))
    report = section_sample_check(section, samples=400, seed=2)
    assert report["pass"]
    assert report["hits"] > 0
    assert report["min_coordinate"] >= -1e-10


def test_section_sampling_polytope():
    report = section_sample_check(fr_section(simplex(2)), samples=100, seed=0)
    assert report["pass"]


def test_exact_section_is_decided_without_per_sample_solves(monkeypatch):
    section = fr_section(simplex(3))

    def refuse(*args):
        raise AssertionError("an exact section needs no linear solve per sample")

    monkeypatch.setattr(exactla, "solve_any", refuse)
    report = section_sample_check(section, samples=10**4)
    assert report == {"samples": 10**4, "hits": 10**4, "min_coordinate": 0.0, "pass": True}


@pytest.mark.parametrize("seed", range(5))
def test_section_sampling_refuses_a_dependent_vertex_set(seed):
    body = square()
    section = FrSection("polytope", body.vertices, body)
    report = section_sample_check(section, samples=200, seed=seed)
    assert report["pass"] is False
    assert report["min_coordinate"] == -1.0


def test_section_sampling_random_frame():
    alg = AlgebraDescriptor("herm_c", 3)
    section = fr_section(alg, frame=tuple(random_jordan_frame(alg, 31)))
    report = section_sample_check(section, samples=400, seed=4)
    assert report["pass"]


def oracle_section_sample_check(section, samples, seed, tol=1e-10):
    """One draw, one element and one eigenvalue call per sample."""
    frame = section.basis
    rng = np.random.default_rng(seed)
    hits = 0
    worst = math.inf
    for t in range(samples):
        a = rng.standard_normal(len(frame))
        if t % 2 == 0:
            a = np.abs(a)
        x = zero(frame[0].algebra)
        for ai, ci in zip(a, frame):
            x = x + float(ai) * ci
        if eigenvalues(x)[-1] >= -1e-12 * (1.0 + float(np.max(np.abs(a)))):
            worst = min(worst, min(inner(x, c) for c in frame))
            hits += 1
    return {"samples": samples, "hits": hits, "min_coordinate": worst, "pass": worst >= -tol}


SECTION_ALGEBRAS = [
    AlgebraDescriptor("sym_r", 3),
    AlgebraDescriptor("herm_c", 3),
    AlgebraDescriptor("herm_h", 3),
    AlgebraDescriptor("spin", 5),
    AlgebraDescriptor("herm_o", 3),
]


@pytest.mark.parametrize("alg", SECTION_ALGEBRAS, ids=lambda a: a.family)
def test_blocked_section_sampling_matches_per_sample_oracle(alg):
    section = fr_section(alg)
    for seed in range(5):
        for samples in (401, 2001):
            report = section_sample_check(section, samples=samples, seed=seed)
            assert report == oracle_section_sample_check(section, samples, seed)


@pytest.mark.parametrize("alg", SECTION_ALGEBRAS, ids=lambda a: a.family)
def test_blocked_section_sampling_on_a_random_frame(alg):
    section = fr_section(alg, frame=tuple(random_jordan_frame(alg, 17)))
    for seed in range(3):
        report = section_sample_check(section, samples=401, seed=seed)
        want = oracle_section_sample_check(section, 401, seed)
        assert (report["hits"], report["pass"]) == (want["hits"], want["pass"])
        assert abs(report["min_coordinate"] - want["min_coordinate"]) <= 1e-12


def test_eja_section_is_decided_without_per_element_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("an EJA section is decided block by block")

    monkeypatch.setattr(spectral, "eigenvalues", refuse)
    # classification imports no per-element trace form; the stub still
    # catches one that comes back
    monkeypatch.setattr(classification, "inner", refuse, raising=False)
    for alg in SECTION_ALGEBRAS:
        report = section_sample_check(fr_section(alg), samples=1001, seed=3)
        assert report["pass"] and report["hits"] > 0


@pytest.mark.parametrize("family", ["sym_r", "herm_c", "herm_o"])
def test_eja_section_reports_do_not_depend_on_the_block(monkeypatch, family):
    # one eigenvalue_rows call per block, and the same report at any block
    # size: the stream is one draw per sample whatever the block
    calls = []
    real = spectral.eigenvalue_rows

    def counted(alg, rows):
        calls.append(len(rows))
        return real(alg, rows)

    monkeypatch.setattr(spectral, "eigenvalue_rows", counted)
    section = fr_section(AlgebraDescriptor(family, 3))
    reports = []
    # the default block decides 2000 samples in 2 calls
    for block, sizes in ((classification._SECTION_BLOCK, [1024, 976]), (2, [2] * 1000)):
        monkeypatch.setattr(classification, "_SECTION_BLOCK", block)
        for seed in range(3):
            calls.clear()
            reports.append(section_sample_check(section, samples=2000, seed=seed))
            assert calls == sizes
    assert reports[:3] == reports[3:]
    assert all(report["pass"] for report in reports)


def test_eja_section_memory_is_bounded_by_the_block():
    section = fr_section(AlgebraDescriptor("herm_o", 3))
    section_sample_check(section, samples=300, seed=0)  # builds the constants
    tracemalloc.start()
    try:
        report = section_sample_check(section, samples=10**5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < 4 * 2**20, peak


# -- theorem drivers -------------------------------------------------------------


def test_if_direction_herm_c():
    report = verify_main_theorem_if_direction(
        AlgebraDescriptor("herm_c", 3), trials=10, seed=1
    )
    assert report["all_pass"]
    names = [c["name"] for c in report["checks"]]
    assert "transporters" in names and "fr_polytope" in names


def test_if_direction_herm_o_transporters_unsupported():
    report = verify_main_theorem_if_direction(
        AlgebraDescriptor("herm_o", 3), trials=5, seed=1
    )
    assert report["all_pass"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["transporters"]["status"] == "unsupported"
    assert by_name["spectral_decomposition"]["status"] == "pass"


def test_if_direction_simplex():
    report = verify_main_theorem_if_direction(2, trials=5, seed=0)
    assert report["all_pass"]
    assert report["target"] == "simplex(2)"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_if_direction_rejects_bad_target():
    with pytest.raises(ClassificationError):
        verify_main_theorem_if_direction("pentagon")
    with pytest.raises(ClassificationError):
        verify_main_theorem_if_direction(0)


def test_converse_small_catalog():
    catalog = (
        ("simplex(2)", simplex(2)),
        ("square", square()),
        ("pentagon", pentagon()),
    )
    report = verify_converse_on_polytopes(catalog)
    assert report["equivalence_holds"]
    entries = {b["body"]: b for b in report["bodies"]}
    assert entries["simplex(2)"]["sss"]
    assert entries["square"]["witness"]["recheck"] is True
    assert "orbit_pair" in entries["square"]["witness"]
    pent = entries["pentagon"]
    assert pent["strongly_symmetric"] and not pent["spectral"]
    assert pent["witness"]["recheck"] is True


def test_converse_catalog_reports_frame_cap_refusal():
    # 15 vertices on a parabola: the driver's cap reaches the spectral
    # check, so at cap 14 the refusal is that body's error entry, not an
    # exception escaping the driver, and at cap 15 the body is decided
    body = polytope([(x, x * x) for x in range(15)])
    report = verify_converse_on_polytopes([("15-gon", body)], cap=14)
    assert report["equivalence_holds"] is False
    (entry,) = report["bodies"]
    assert entry["body"] == "15-gon"
    assert "15 vertices exceeds the vertex cap 14" in entry["error"]
    report = verify_converse_on_polytopes([("15-gon", body)], cap=15)
    (entry,) = report["bodies"]
    assert "error" not in entry
    assert entry["matches"] is True and not entry["spectral"]
    assert entry["witness"]["recheck"] is True


def test_simplex_battery_lists_no_group(monkeypatch):
    # the barycenter check averages the orbit of a vertex, walked along
    # the generators, and the frame counts come from the spectral verdict
    def refuse(*args, **kwargs):
        raise AssertionError("the simplex battery listed the group")

    for module in (automorphisms, symmetry):
        monkeypatch.setattr(module, "polytope_group", refuse)
    report = verify_main_theorem_if_direction(4)
    assert report["all_pass"]
    assert {c["name"] for c in report["checks"]} >= {
        "frames_are_ordered_subsets",
        "barycenter_invariance",
    }


def test_bodies_built_again_hit_their_record_by_identity(monkeypatch):
    # polytope() hands back the body the analysis cache holds, so the
    # battery's look-ups compare vertex tuples at most once per body built
    default_converse_catalog()
    built, compared = [], []
    build, equal = geometry.polytope, geometry.Polytope.__eq__

    def counted_build(vertices):
        built.append(vertices)
        return build(vertices)

    def counted_equal(self, other):
        compared.append(self)
        return equal(self, other)

    for module in list(sys.modules.values()):
        if getattr(module, "polytope", None) is build:
            monkeypatch.setattr(module, "polytope", counted_build)
    monkeypatch.setattr(geometry.Polytope, "__eq__", counted_equal)
    assert verify_main_theorem_if_direction(4)["all_pass"]
    assert built and len(compared) <= len(built)


def test_an_equal_body_is_handed_back_only_with_the_input_types():
    points = [(3, 0), (0, 5), (-3, 1)]  # a body no other test builds
    body = polytope(points)
    again = polytope(points)
    assert again is body
    assert again.vertices == tuple(tuple(map(Fraction, p)) for p in points)
    assert {type(x) for v in again.vertices for x in v} == {Fraction}
    # equal in value but not in type: the input's own body, same record
    other = polytope([(Sqrt5(x), Sqrt5(y)) for x, y in points])
    assert other == body and other is not body
    assert {type(x) for v in other.vertices for x in v} == {Sqrt5}
    assert geometry._analysis(other) is geometry._analysis(body)
    rebuilt = simplex(4)
    assert rebuilt.vertices == tuple(
        tuple(Fraction(int(i == j)) for j in range(5)) for i in range(5)
    )
    assert {type(x) for v in rebuilt.vertices for x in v} == {Fraction}


@pytest.mark.parametrize(
    "call",
    [
        lambda body: face_of_frame(body, (0, 2), cap=7),
        lambda body: complement_face(body, exposed_faces(body, 7).atoms[0], cap=7),
        lambda body: frame_flag_bijection(body, cap=7),
    ],
    ids=["face_of_frame", "complement_face", "frame_flag_bijection"],
)
def test_the_callers_cap_reaches_every_layer(monkeypatch, call):
    # every layer reads the record through the cap check: each one must
    # be handed the caller's cap, not the default
    body = simplex(3)
    caps = []
    check = geometry._capped_analysis

    def recorded(poly, cap):
        caps.append(cap)
        return check(poly, cap)

    for module in (geometry, operational, symmetry):
        monkeypatch.setattr(module, "_capped_analysis", recorded)
    call(body)
    assert caps and set(caps) == {7}


CAPPED_ENTRY_POINTS = {
    "exposed_faces": lambda body: exposed_faces(body, cap=3),
    "maximal_flags": lambda body: maximal_flags(body, cap=3),
    "enumerate_frames": lambda body: enumerate_frames(body, 2, cap=3),
    "rank": lambda body: rank(body, cap=3),
    "is_spectral": lambda body: is_spectral(body, cap=3),
    "recheck_counterexample": lambda body: recheck_counterexample(
        body, barycenter(body), cap=3
    ),
    "automorphism_group": lambda body: automorphism_group(body, cap=3),
    "is_strongly_symmetric": lambda body: is_strongly_symmetric(body, cap=3),
    "is_regular": lambda body: is_regular(body, cap=3),
    "fr_section": lambda body: fr_section(body, cap=3),
    "face_of_frame": lambda body: face_of_frame(body, (0,), cap=3),
    "complement_face": lambda body: complement_face(
        body, exposed_faces(body).atoms[0], cap=3
    ),
    "frame_flag_bijection": lambda body: frame_flag_bijection(body, cap=3),
}


@pytest.mark.parametrize("call", CAPPED_ENTRY_POINTS.values(), ids=CAPPED_ENTRY_POINTS)
def test_every_capped_entry_point_refuses_past_the_vertex_cap(call):
    # the record is filled first: the cap is checked on every call
    body = square()
    for fill in (exposed_faces, rank, automorphism_group):
        fill(body)
    with pytest.raises(CapExceeded, match="^4 vertices exceeds the vertex cap 3$"):
        call(body)


@pytest.mark.parametrize("family,param", [("sym_r", 5), ("herm_c", 4), ("herm_h", 3)])
def test_battery_eigh_calls_do_not_grow_with_the_trials(monkeypatch, family, param):
    # the decompositions, random frames, extensions and transporters of a
    # battery run in stacks: the number of LAPACK eigh calls is a property
    # of the battery, not of its trial count
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    counts = []
    for trials in (5, 20):
        calls.clear()
        report = verify_main_theorem_if_direction(AlgebraDescriptor(family, param), trials=trials)
        assert report["all_pass"]
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
