"""End-to-end acceptance checks, one block per advertised guarantee.

The oracles here are deliberately independent of the code paths under
test.  Effect certificates for frame verdicts come from an integer-normal
grid search and from exact interpolation (Gaussian elimination over
Fractions), not from the package's simplex solver; table arithmetic is
recomputed from the shipped formula strings; lattice identities are
checked against set algebra on index subsets; CLI determinism is judged
on raw subprocess bytes.  Tolerances are pinned in the constants below.
"""

import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from jordan_spectra.algebra import (
    algebra,
    EjaElement,
    inner,
    jordan_product,
    norm,
    trace,
    unit,
)
from jordan_spectra.classification import (
    eval_formula,
    fr_polytope,
    fr_section,
    load_tables,
    mr_table_lookup,
    section_sample_check,
    standard_frame,
    table_consistency_check,
    verify_converse_on_polytopes,
    verify_main_theorem_if_direction,
)
from jordan_spectra.geometry import (
    cube,
    eja_state_space,
    hexagon,
    octahedron,
    pentagon,
    simplex,
    square,
)
from jordan_spectra.operational import (
    complement_face,
    enumerate_frames,
    face_of_frame,
    rank,
    recheck_counterexample,
)
from jordan_spectra.scalars import parse_scalar
from jordan_spectra.spectral import spectral_decompose
from jordan_spectra.symmetry import automorphism_group, frame_flag_bijection

DECOMP_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-9
BARYCENTER_TOL = 1e-12
TRANSPORTER_TOL = 1e-8
SECTION_COORD_TOL = 1e-10
ANTIPODE_TOL = 1e-9

# (param, count) spreads; each family totals 200 elements
SPECTRAL_SPREADS = {
    "sym_r": ((1, 40), (2, 40), (3, 40), (4, 40), (5, 40)),
    "herm_c": ((1, 50), (2, 50), (3, 50), (4, 50)),
    "herm_h": ((1, 66), (2, 67), (3, 67)),
    "spin": ((2, 40), (3, 40), (5, 40), (7, 40), (10, 40)),
    "herm_o": ((3, 200),),
}


# -- independent effect oracles ------------------------------------------------


def _dot(normal, point):
    out = 0
    for a, c in zip(normal, point):
        out = out + a * c
    return out


def _grid_pair_effect(poly, i, j, radius):
    """Exact effect with f(v_i)=1, f(v_j)=0 found by integer-normal search.

    Any hit is a verified certificate; scaling is fixed by the two pinned
    values, so searching normals up to the radius covers every direction
    with small rational slope.
    """
    vi, vj = poly.vertices[i], poly.vertices[j]
    for normal in itertools.product(range(-radius, radius + 1), repeat=len(vi)):
        if all(c == 0 for c in normal):
            continue
        den = _dot(normal, vi) - _dot(normal, vj)
        if den == 0:
            continue
        ok = True
        for v in poly.vertices:
            val = (_dot(normal, v) - _dot(normal, vj)) / den
            if val < 0 or val > 1:
                ok = False
                break
        if ok:
            return normal
    return None


def _grid_pair_frames(poly, radius):
    n = len(poly.vertices)
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and _grid_pair_effect(poly, i, j, radius) is not None
    }


def _solve_exact(mat, rhs):
    """Gaussian elimination over Fractions; None for a singular system."""
    n = len(mat)
    a = [[Fraction(mat[r][c]) for c in range(n)] + [Fraction(rhs[r])] for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        scale = 1 / a[col][col]
        a[col] = [x * scale for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _interpolation_frame(poly, idx):
    """Frame certificate for k = dim+1 vertices of a full-dimensional polytope.

    With affinely independent points each effect is the unique affine
    interpolant of its delta pattern, so the verdict is decisive in both
    directions: either the interpolants satisfy every effect and sum
    condition, or no measurement can exist.
    """
    pts = [poly.vertices[t] for t in idx]
    d = len(pts[0])
    if len(idx) != d + 1:
        raise ValueError("interpolation oracle needs k == dim + 1")
    effects = []
    for i in range(len(idx)):
        mat = [list(p) + [1] for p in pts]
        sol = _solve_exact(mat, [1 if r == i else 0 for r in range(len(idx))])
        if sol is None:
            return None  # affinely dependent states are never distinguishable
        effects.append(sol)
    for v in poly.vertices:
        total = Fraction(0)
        for e in effects:
            val = _dot(e[:d], v) + e[d]
            if val < 0 or val > 1:
                return None
            total += val
        if total > 1:
            return None
    return effects


# -- 1: spectral engine residuals ------------------------------------------------


@pytest.mark.parametrize("family", sorted(SPECTRAL_SPREADS))
def test_spectral_engine_residuals(family):
    worst = {"reconstruction": 0.0, "idempotency": 0.0, "orthogonality": 0.0, "completeness": 0.0}
    for param, count in SPECTRAL_SPREADS[family]:
        alg = algebra(family, param)
        u = unit(alg)
        rng = np.random.default_rng([0xACC, *family.encode(), param])
        for _ in range(count):
            x = EjaElement(alg, rng.standard_normal(alg.dim))
            dec = spectral_decompose(x)
            worst["reconstruction"] = max(
                worst["reconstruction"], norm(dec.reconstruct() - x)
            )
            total = None
            for i, w in enumerate(dec.frame):
                worst["idempotency"] = max(
                    worst["idempotency"], norm(jordan_product(w, w) - w)
                )
                total = w if total is None else total + w
                for v in dec.frame[i + 1 :]:
                    worst["orthogonality"] = max(
                        worst["orthogonality"], norm(jordan_product(w, v))
                    )
            worst["completeness"] = max(worst["completeness"], norm(total - u))
    assert all(value <= DECOMP_TOL for value in worst.values()), worst


# -- 2: rank conformance with the families table ----------------------------------


def test_rank_matches_families_table():
    families = {f["package_family"]: f for f in load_tables()["families"]}
    for family, spread in sorted(SPECTRAL_SPREADS.items()):
        entry = families[family]
        for param, _ in spread:
            var = eval_formula(entry["table_var_from_param"], {"param": param})
            expected = eval_formula(entry["rank"], {"m": var, "n": var})
            body = eja_state_space(family, param)
            assert rank(body) == expected
            # a generic element realizes the rank as its eigenvalue count
            alg = algebra(family, param)
            rng = np.random.default_rng([0xA12, *family.encode(), param])
            x = EjaElement(alg, rng.standard_normal(alg.dim))
            assert len(spectral_decompose(x).eigenvalues) == expected


# -- 3: operational verdicts against independent certificates ---------------------

PENTAGON_NONADJACENT = {
    (0, 2), (2, 0), (0, 3), (3, 0), (1, 3),
    (3, 1), (1, 4), (4, 1), (2, 4), (4, 2),
}


def test_pentagon_two_frames_are_the_nonadjacent_pairs():
    poly = pentagon()
    lp = {f.indices for f in enumerate_frames(poly, 2)}
    grid = _grid_pair_frames(poly, radius=4)
    assert lp == PENTAGON_NONADJACENT
    assert grid == PENTAGON_NONADJACENT


def test_square_has_no_three_frames():
    poly = square()
    assert enumerate_frames(poly, 3) == ()
    for idx in itertools.permutations(range(4), 3):
        assert _interpolation_frame(poly, idx) is None
    # pairwise the four pure states are fully distinguishable
    lp = {f.indices for f in enumerate_frames(poly, 2)}
    assert lp == _grid_pair_frames(poly, radius=3)
    assert len(lp) == 12


@pytest.mark.parametrize(
    "factory,radius,count",
    [(hexagon, 3, 18), (cube, 2, 56), (octahedron, 2, 30)],
    ids=["hexagon", "cube", "octahedron"],
)
def test_pair_frames_match_grid_certificates(factory, radius, count):
    poly = factory()
    lp = {f.indices for f in enumerate_frames(poly, 2)}
    assert lp == _grid_pair_frames(poly, radius)
    assert len(lp) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplex_rank_with_coordinate_certificates(n):
    body = simplex(n)
    assert rank(body) == n + 1
    # the coordinate functionals certify the full vertex set exactly
    verts = body.vertices
    for i in range(n + 1):
        for j, v in enumerate(verts):
            assert v[i] == (1 if i == j else 0)
    for v in verts:
        assert sum(v) == 1 and all(0 <= c <= 1 for c in v)


# -- 4: forward direction of the main equivalence ----------------------------------

PINNED_CHECK_TOLS = {
    "spectral_decomposition": DECOMP_TOL,
    "frame_orthonormality": ORTHONORMALITY_TOL,
    "maximal_frame_sum": ORTHONORMALITY_TOL,
    "frame_barycenter": BARYCENTER_TOL,
    "transporters": TRANSPORTER_TOL,
}


@pytest.mark.parametrize(
    "family,param",
    [("sym_r", 3), ("herm_c", 3), ("herm_h", 3), ("spin", 5), ("herm_o", 3)],
)
def test_forward_direction_eja_families(family, param):
    report = verify_main_theorem_if_direction(
        eja_state_space(family, param), trials=100, seed=0
    )
    assert report["all_pass"], report
    for check in report["checks"]:
        if family == "herm_o" and check["name"] == "transporters":
            assert check["status"] == "unsupported"
            continue
        assert check["status"] == "pass", check
        pin = PINNED_CHECK_TOLS.get(check["name"])
        if pin is not None:
            assert check["tolerance"] == pin
            assert check["residual"] <= pin


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_forward_direction_simplices(n):
    report = verify_main_theorem_if_direction(n, trials=100, seed=0)
    assert report["all_pass"], report
    assert all(check["status"] == "pass" for check in report["checks"])


# -- 5: converse classification over the polytope catalog --------------------------


def test_converse_catalog_classifies_exactly_the_simplices():
    result = verify_converse_on_polytopes()
    assert result["equivalence_holds"]
    entries = {e["body"]: e for e in result["bodies"]}
    assert all(e["matches"] for e in entries.values())

    sss = {name for name, e in entries.items() if e["sss"]}
    assert sss == {"simplex(1)", "simplex(2)", "simplex(3)", "simplex(4)"}

    pent = entries["pentagon"]
    assert pent["strongly_symmetric"] and not pent["spectral"]
    assert pent["witness"]["recheck"] is True
    point = tuple(parse_scalar(s) for s in pent["witness"]["counterexample"])
    assert recheck_counterexample(pentagon(), point)

    sq = entries["square"]
    assert not sq["strongly_symmetric"] and not sq["spectral"]
    assert sq["witness"]["recheck"] is True
    point = tuple(parse_scalar(s) for s in sq["witness"]["counterexample"])
    assert recheck_counterexample(square(), point)

    # the orbit pair really is split: both are frames, no symmetry joins them
    pair = sq["witness"]["orbit_pair"]
    frame_a, frame_b = (tuple(f) for f in pair["frames"])
    body = square()
    lp = {f.indices for f in enumerate_frames(body, pair["k"])}
    assert frame_a in lp and frame_b in lp
    index_of = {v: i for i, v in enumerate(body.vertices)}
    images = {
        tuple(index_of[g.apply(body.vertices[i])] for i in frame_a)
        for g in automorphism_group(body)
    }
    assert frame_b not in images


# -- 6: frame/flag counts on small simplices ---------------------------------------


@pytest.mark.parametrize("n,count", [(2, 6), (3, 24), (4, 120)])
def test_frame_flag_counts_on_simplices(n, count):
    report = frame_flag_bijection(simplex(n))
    assert report.bijective
    assert report.frames == count
    assert report.flags == count
    assert count == math.factorial(n + 1)


# -- 7: sub-frame lattices are boolean ---------------------------------------------


@pytest.mark.parametrize("family", ["sym_r", "herm_c", "herm_o"])
def test_subframe_lattice_is_boolean_and_orthomodular(family):
    alg = algebra(family, 3)
    body = eja_state_space(family, 3)
    frame = standard_frame(alg)
    u = unit(alg)
    indices = (0, 1, 2)
    subsets = [
        s for r in range(4) for s in itertools.combinations(indices, r)
    ]

    faces = {s: face_of_frame(body, [frame[i] for i in s]) for s in subsets}
    proj = {s: faces[s].idempotent for s in subsets}

    def same(x, y):
        return np.array_equal(x.coeffs, y.coeffs)

    def meet(p, q):
        return jordan_product(p, q)

    def join(p, q):
        return u - jordan_product(u - p, u - q)

    for s in subsets:
        assert faces[s].rank == len(s)
        comp = complement_face(body, faces[s])
        expected = tuple(i for i in indices if i not in s)
        assert same(comp.idempotent, proj[expected])
        assert same(complement_face(body, comp).idempotent, proj[s])  # F'' = F
        assert same(meet(proj[s], comp.idempotent), proj[()])
        assert same(join(proj[s], comp.idempotent), proj[indices])

    for a in subsets:
        for b in subsets:
            pa, pb = proj[a], proj[b]
            assert same(meet(pa, pb), proj[tuple(i for i in indices if i in a and i in b)])
            assert same(join(pa, pb), proj[tuple(i for i in indices if i in a or i in b)])
            below = same(meet(pa, pb), pa)
            assert below == set(a).issubset(b)
            if below:
                # order reversal and the orthomodular law
                ca = u - pa
                cb = u - pb
                assert same(meet(cb, ca), cb)
                assert same(join(pa, meet(pb, ca)), pb)


# -- 8: section extraction ----------------------------------------------------------


@pytest.mark.parametrize("family", ["sym_r", "herm_c"])
def test_section_of_rank_three_algebras_is_the_triangle(family):
    body = eja_state_space(family, 3)
    section = fr_section(body)
    assert section.polytope.vertices == simplex(2).vertices
    frame = section.basis
    worst = 0.0
    total = None
    for i, w in enumerate(frame):
        assert abs(trace(w) - 1.0) <= ORTHONORMALITY_TOL
        total = w if total is None else total + w
        for j, v in enumerate(frame):
            target = w if i == j else None
            prod = jordan_product(w, v)
            resid = norm(prod - target) if target is not None else norm(prod)
            worst = max(worst, resid)
    worst = max(worst, norm(total - unit(algebra(family, 3))))
    assert worst <= ORTHONORMALITY_TOL


def test_section_of_spin_and_simplex_bodies():
    for n in (2, 5, 9):
        assert fr_polytope(eja_state_space("spin", n)).vertices == simplex(1).vertices
    assert fr_polytope(simplex(3)).vertices == simplex(3).vertices


@pytest.mark.parametrize(
    "target", ["sym_r", "herm_c", "spin", "simplex"], ids=str
)
def test_section_samples_have_nonnegative_frame_coordinates(target):
    if target == "simplex":
        section = fr_section(simplex(3))
        result = section_sample_check(section, samples=10**4, seed=0xF0)
        assert result["hits"] >= 9990
    else:
        param = 5 if target == "spin" else 3
        section = fr_section(eja_state_space(target, param))
        result = section_sample_check(section, samples=2 * 10**4, seed=0xF0)
        assert result["hits"] >= 10**4
    assert result["pass"]
    assert result["min_coordinate"] >= -SECTION_COORD_TOL


# -- 9: spin decompositions are antipodal pairs ------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_spin_frames_are_antipodal_pairs(n):
    alg = algebra("spin", n)
    rng = np.random.default_rng([0xB1B, n])
    worst = 0.0
    for _ in range(500):
        x = EjaElement(alg, rng.standard_normal(alg.dim))
        frame = spectral_decompose(x).frame
        assert len(frame) <= 2
        if len(frame) == 2:
            a, b = frame
            worst = max(
                worst,
                float(np.linalg.norm(a.coeffs[:-1] + b.coeffs[:-1])),
                abs(float(a.coeffs[-1]) - 0.5),
                abs(float(b.coeffs[-1]) - 0.5),
            )
    assert worst <= ANTIPODE_TOL


# -- 10: table data integrity --------------------------------------------------------


def test_table_arithmetic_is_consistent_and_flags_the_known_row():
    report = table_consistency_check()
    assert report["all_pass"]
    assert report["failures"] == []
    assert report["rows_checked"] == 27
    assert len(report["flagged"]) == 1
    flagged = report["flagged"][0]
    assert flagged["type"] == "A_n" and flagged["table"] == 4
    assert "Herm(n+1,C)" in flagged["consistent_with"]

    # worked instances of the dim/rank arithmetic
    ai = mr_table_lookup("AI")
    params = dict(ai.check_params)
    assert eval_formula(ai.isotropy_dim, params) == eval_formula("n*(n+1)/2", params) - 1
    eiv = mr_table_lookup("EIV")
    assert eval_formula(eiv.isotropy_dim, dict(eiv.check_params)) == 27 - 1
    assert eval_formula(eiv.rank, dict(eiv.check_params)) == 3 - 1


# -- 11: CLI byte-for-byte determinism ------------------------------------------------


def _cli(args, cwd, env):
    # The child runs in another working directory, so ``env`` (the
    # ``cli_env`` fixture) carries the package's absolute location.
    return subprocess.run(
        [sys.executable, "-m", "jordan_spectra.cli", *args],
        capture_output=True,
        cwd=str(cwd),
        env=env,
        timeout=300,
    )


def test_cli_reruns_are_byte_identical(tmp_path, cli_env):
    bodies = {}
    for name in ("pentagon", "square", "hexagon"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"type": "named", "name": name}))
        bodies[name] = str(path)
    element = tmp_path / "element.json"
    element.write_text(
        json.dumps({"algebra": {"family": "sym_r", "m": 2}, "coeffs": [0.7, 0.3, 0.1]})
    )

    first = _cli(["check", bodies["pentagon"], "--property", "spectral"], tmp_path, cli_env)
    assert first.returncode == 1, first.stderr[-500:]
    try:  # a child that crashed also exits with 1, so read the verdict
        verdict = json.loads(first.stdout)
    except ValueError:
        pytest.fail(f"no JSON verdict on stdout; stderr: {first.stderr[-500:]!r}")
    assert verdict["spectral"] is False, (verdict, first.stderr[-500:])
    assert verdict.get("counterexample"), (verdict, first.stderr[-500:])
    witness = tmp_path / "witness.json"
    witness.write_bytes(first.stdout)

    commands = [
        ["decompose", "--input", str(element)],
        ["decompose", "--eja", "spin", "--n", "4", "--seed", "5"],
        ["check", bodies["pentagon"], "--property", "spectral"],
        ["check", bodies["square"], "--property", "strong-symmetry"],
        ["check", bodies["hexagon"], "--property", "regular"],
        ["check", bodies["pentagon"], "--property", "rank"],
        ["frames", bodies["pentagon"], "--k", "2"],
        ["fr-polytope", "--eja", "herm_c", "--m", "3"],
        ["tables"],
        ["tables", "--type", "EIV"],
        ["verify-theorem", "--eja", "spin", "--n", "3", "--trials", "10"],
        ["verify-theorem", "--simplex", "2"],
        ["plot-data", bodies["square"]],
        ["recheck", str(witness)],
    ]
    for args in commands:
        runs = [_cli(args, tmp_path, cli_env) for _ in range(2)]
        context = (args, runs[0].stderr[-500:], runs[1].stderr[-500:])
        assert runs[0].returncode == runs[1].returncode, context
        assert runs[0].stdout == runs[1].stdout, context
        assert runs[0].stdout, context
        json.loads(runs[0].stdout)  # every command emits one JSON document
