import warnings

import numpy as np
import pytest

from jordan_spectra.algebra import (
    EjaElement,
    algebra,
    coefficient_rows,
    from_matrix,
    gram_rows,
    herm_o_product_rows,
    inner,
    jordan_product,
    norm,
    to_matrix,
    trace,
    unit,
    zero,
)
from jordan_spectra import spectral
from jordan_spectra.spectral import (
    HERM_O_GRAM_TOL,
    SpectralError,
    eigenvalue_rows,
    eigenvalues,
    idempotent_rows,
    is_idempotent,
    is_primitive_idempotent,
    primitive_rows,
    random_element,
    random_jordan_frame,
    random_state,
    spectral_decompose,
)

FAMILIES_SMALL = [
    algebra("sym_r", 4),
    algebra("herm_c", 3),
    algebra("herm_h", 3),
    algebra("spin", 6),
    algebra("herm_o", 3),
]


def frame_residuals(x, dec):
    """(reconstruction, idempotency, orthogonality, completeness) residuals."""
    rec = norm(dec.reconstruct() - x)
    idem = orth = 0.0
    for i, ci in enumerate(dec.frame):
        idem = max(idem, norm(jordan_product(ci, ci) - ci))
        for cj in dec.frame[i + 1 :]:
            orth = max(orth, norm(jordan_product(ci, cj)))
    total = dec.frame[0]
    for c in dec.frame[1:]:
        total = total + c
    comp = norm(total - unit(x.algebra))
    return rec, idem, orth, comp


# -- pinned decomposition fixtures ------------------------------------------------


def test_sym_r_already_diagonal():
    alg = algebra("sym_r", 2)
    x = from_matrix(alg, np.diag([2.0, -1.0]))
    dec = spectral_decompose(x)
    assert np.allclose(dec.eigenvalues, [2.0, -1.0])
    assert np.allclose(to_matrix(dec.frame[0]), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(to_matrix(dec.frame[1]), np.diag([0.0, 1.0]), atol=1e-12)


def test_spin_closed_form_pinned():
    alg = algebra("spin", 2)
    x = EjaElement(alg, [3.0, 4.0, 1.0])
    dec = spectral_decompose(x)
    assert np.allclose(dec.eigenvalues, [6.0, -4.0])
    assert np.allclose(dec.frame[0].coeffs, [0.3, 0.4, 0.5])
    assert np.allclose(dec.frame[1].coeffs, [-0.3, -0.4, 0.5])
    for c in dec.frame:
        assert is_idempotent(c, 1e-12)
    assert frame_residuals(x, dec)[0] < 1e-12


def test_unit_decomposes_to_single_coarse_term():
    for alg in FAMILIES_SMALL:
        dec = spectral_decompose(unit(alg))
        assert len(dec.coarse) == 1
        lam, idem = dec.coarse[0]
        assert lam == pytest.approx(1.0)
        assert norm(idem - unit(alg)) < 1e-9
        assert len(dec.frame) == alg.rank
        rec, idm, orth, comp = frame_residuals(unit(alg), dec)
        assert max(rec, idm, orth, comp) < 1e-8


def test_spin_zero_ball_part_coarse():
    alg = algebra("spin", 3)
    x = EjaElement(alg, [0.0, 0.0, 0.0, 2.5])
    dec = spectral_decompose(x)
    assert len(dec.coarse) == 1
    assert dec.coarse[0][0] == pytest.approx(2.5)
    assert np.allclose(dec.eigenvalues, [2.5, 2.5])
    assert frame_residuals(x, dec)[0] < 1e-12


# -- random battery ---------------------------------------------------------------


@pytest.mark.parametrize("alg", FAMILIES_SMALL, ids=lambda a: a.family)
def test_random_decomposition_battery(alg):
    for seed in range(25):
        x = random_element(alg, 1000 + seed)
        dec = spectral_decompose(x)
        rec, idem, orth, comp = frame_residuals(x, dec)
        assert rec <= 1e-8 * (1.0 + norm(x))
        assert idem <= 1e-8
        assert orth <= 1e-8
        assert comp <= 1e-8
        assert len(dec.frame) == alg.rank
        w = dec.eigenvalues
        assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def test_degenerate_spectrum_coarse_sym_r():
    alg = algebra("sym_r", 3)
    x = from_matrix(alg, np.diag([2.0, 2.0, 1.0]))
    dec = spectral_decompose(x)
    assert len(dec.coarse) == 2
    (l1, c1), (l2, c2) = dec.coarse
    assert l1 == pytest.approx(2.0) and l2 == pytest.approx(1.0)
    assert trace(c1) == pytest.approx(2.0)
    assert trace(c2) == pytest.approx(1.0)
    assert len(dec.frame) == 3


def test_degenerate_spectrum_herm_o_refinement():
    alg = algebra("herm_o", 3)
    coeffs = np.zeros(27)
    coeffs[:3] = [2.0, 2.0, 1.0]
    x = EjaElement(alg, coeffs)
    dec = spectral_decompose(x)
    assert len(dec.coarse) == 2
    assert trace(dec.coarse[0][1]) == pytest.approx(2.0, abs=1e-8)
    rec, idem, orth, comp = frame_residuals(x, dec)
    assert max(rec, idem, orth, comp) < 1e-7


def test_degenerate_spectrum_herm_h():
    alg = algebra("herm_h", 3)
    # build 3*c1 + 3*c2 + 1*c3 from a random frame, then re-decompose
    frame = random_jordan_frame(alg, 5)
    x = 3.0 * frame[0] + 3.0 * frame[1] + 1.0 * frame[2]
    dec = spectral_decompose(x, tol=1e-8)
    assert len(dec.coarse) == 2
    assert trace(dec.coarse[0][1]) == pytest.approx(2.0, abs=1e-6)
    rec, idem, orth, comp = frame_residuals(x, dec)
    assert max(rec, idem, orth, comp) < 1e-6


def test_coarse_idempotents_of_a_diagonal_herm_o_element_are_exact():
    alg = algebra("herm_o", 3)
    coeffs = np.zeros(27)
    coeffs[:3] = [3.0, 3.0, -1.0]
    x = EjaElement(alg, coeffs)
    dec = spectral_decompose(x)
    (l1, q1), (l2, q2) = dec.coarse
    assert l1 == pytest.approx(3.0, abs=1e-12) and l2 == pytest.approx(-1.0, abs=1e-12)
    want = np.zeros((2, 27))
    want[0, :2] = 1.0  # diag(1, 1, 0)
    want[1, 2] = 1.0  # diag(0, 0, 1)
    assert np.max(np.abs(q1.coeffs - want[0])) <= 1e-12
    assert np.max(np.abs(q2.coeffs - want[1])) <= 1e-12
    # the fine frame is a function of x alone
    again = spectral_decompose(x)
    for a, b in zip(dec.frame, again.frame):
        assert np.array_equal(a.coeffs, b.coeffs)


def _on_frame(alg, lams, seed):
    """(x, frame): sum lam_i c_i over a random Jordan frame c."""
    frame = random_jordan_frame(alg, seed)
    x = zero(alg)
    for w, c in zip(lams, frame):
        x = x + w * c
    return x, frame


@pytest.mark.parametrize(
    "alg,lams",
    [
        (algebra("herm_h", 4), (2.0, 2.0, -1.0, -1.0)),
        (algebra("herm_h", 4), (2.0, 2.0, 2.0, -1.0)),
        (algebra("herm_h", 4), (1.5, 1.5, 1.5, 1.5)),
        (algebra("herm_o", 3), (3.0, 3.0, -1.0)),
        (algebra("herm_o", 3), (3.0, -1.0, -1.0)),
        (algebra("herm_o", 3), (1.5, 1.5, 1.5)),
    ],
    ids=["herm_h-aabb", "herm_h-aaab", "herm_h-unit", "herm_o-top", "herm_o-bottom", "herm_o-unit"],
)
def test_fine_pieces_sum_to_each_cluster_idempotent(alg, lams):
    # a repeated eigenvalue is split into primitives that add up to its
    # coarse idempotent, here the sum of the frame members it was built on
    for seed in range(5):
        x, frame = _on_frame(alg, lams, seed)
        dec = spectral_decompose(x)
        assert len(dec.coarse) == len(set(lams))
        for lam, q in dec.coarse:
            want = sum(
                (c.coeffs for w, c in zip(lams, frame) if abs(w - lam) < 1e-6),
                np.zeros(alg.dim),
            )
            pieces = [c for w, c in zip(dec.eigenvalues, dec.frame) if abs(w - lam) < 1e-6]
            assert len(pieces) == sum(abs(w - lam) < 1e-6 for w in lams)
            assert norm(EjaElement(alg, want) - q) <= 1e-12
            total = sum((c.coeffs for c in pieces), np.zeros(alg.dim))
            assert np.max(np.abs(total - want)) <= 1e-12
        rec, idem, orth, comp = frame_residuals(x, dec)
        assert max(idem, orth, comp) <= 1e-12
        assert rec <= 1e-12 * (1.0 + norm(x))


def test_herm_o_near_double_eigenvalue_decomposes():
    # on most frames, eigenvalues 1 + 1e-7 and 1 lie inside the cubic's
    # cluster floor, so they form one coarse idempotent, which is peeled
    # into two primitives; every frame must decompose
    alg = algebra("herm_o", 3)
    clustered = 0
    for seed in range(30):
        x, _ = _on_frame(alg, (3.0, 1.0 + 1e-7, 1.0), seed)
        dec = spectral_decompose(x)
        assert norm(dec.reconstruct() - x) <= 1e-9 * (1.0 + norm(x))
        if len(dec.coarse) == 2:
            clustered += 1
            assert dec.eigenvalues[1] == dec.eigenvalues[2]
            rec, idem, orth, comp = frame_residuals(x, dec)
            assert max(idem, orth, comp) <= 1e-6
    assert clustered >= 25


def _gram_error(dec):
    alg = dec.frame[0].algebra
    return float(np.max(np.abs(gram_rows(alg, coefficient_rows(dec.frame)) - np.eye(alg.rank))))


def test_herm_o_frames_are_orthonormal_or_refused():
    # eigenvalues (3, 1 + 1e-7, 1): a frame that rebuilds x exactly but is
    # far from orthonormal must not come back
    alg = algebra("herm_o", 3)
    lams = np.array([3.0, 1.0 + 1e-7, 1.0])
    decomposed = 0
    for seed in range(30):
        x = EjaElement(alg, lams @ coefficient_rows(random_jordan_frame(alg, seed)))
        try:
            dec = spectral_decompose(x)
        except SpectralError as exc:
            assert exc.residual > HERM_O_GRAM_TOL
            continue
        decomposed += 1
        assert _gram_error(dec) <= HERM_O_GRAM_TOL
    assert decomposed == 30


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 3e-7])
def test_herm_o_near_pair_is_split_without_its_gap(gap):
    # the cubic keeps these pairs apart but resolves them only to ~3e-8;
    # the pair is split in the rank-2 algebra under its idempotent, so
    # no idempotent divides by the gap
    alg = algebra("herm_o", 3)
    lams = np.array([3.0, 1.0 + gap, 1.0])
    for seed in range(30):
        x = EjaElement(alg, lams @ coefficient_rows(random_jordan_frame(alg, seed)))
        dec = spectral_decompose(x)
        assert len(dec.coarse) == 3
        assert np.max(np.abs(dec.eigenvalues - lams)) <= 1e-12
        assert _gram_error(dec) <= 1e-12


def test_herm_o_near_double_at_large_scale_decomposes():
    # (1, 1 + 1e-9, 3) * 1e6: the cubic's roots are off by ~0.06 here, so
    # the pair is merged or split depending on the frame; either way the
    # frame is orthonormal and x is rebuilt within the bound
    alg = algebra("herm_o", 3)
    lams = np.array([1.0, 1.0 + 1e-9, 3.0]) * 1e6
    for seed in range(200):
        x = EjaElement(alg, lams @ coefficient_rows(random_jordan_frame(alg, seed)))
        dec = spectral_decompose(x)
        assert norm(dec.reconstruct() - x) <= 1e-9 * (1.0 + norm(x))
        assert _gram_error(dec) <= HERM_O_GRAM_TOL


def test_herm_o_frame_far_from_orthonormal_is_refused(monkeypatch):
    alg = algebra("herm_o", 3)
    rows = coefficient_rows(random_jordan_frame(alg, 0))
    lams = np.array([3.0, 2.0, 1.0])
    x = EjaElement(alg, lams @ rows)
    # skewed along the null space of lams, the frame still rebuilds x
    skew = rows.copy()
    skew[0] += lams[1] * 1e-3 * rows[2]
    skew[1] -= lams[0] * 1e-3 * rows[2]
    monkeypatch.setattr(spectral, "_fine_rows", lambda alg, x, tol: (lams[None], skew[None]))
    with pytest.raises(SpectralError, match="not orthonormal") as info:
        spectral_decompose(x)
    # the largest Gram entry off I is (skewed c_1, c_3) = -3e-3
    assert info.value.residual == pytest.approx(3e-3, rel=1e-6)


FAMILIES_BENCH = [
    algebra("sym_r", 5),
    algebra("herm_c", 4),
    algebra("herm_h", 3),
    algebra("spin", 10),
    algebra("herm_o", 3),
]


@pytest.mark.parametrize("alg", FAMILIES_BENCH, ids=lambda a: a.family)
def test_stacked_rows_decompose_as_each_row_alone(alg):
    # generic rows, rows with spectrum (1.5, ..., 1.5, -0.5) on a random
    # frame and one row whose norm overflows, decomposed in one stack
    lams = np.array([1.5] * (alg.rank - 1) + [-0.5])
    rows = [random_element(alg, 3000 + seed).coeffs for seed in range(4)]
    rows += [lams @ coefficient_rows(random_jordan_frame(alg, 3000 + seed)) for seed in range(4)]
    rows.insert(3, random_element(alg, 3100).coeffs * 1e200)
    stacked = spectral.spectral_decompose_rows(alg, np.array(rows))
    assert stacked.frames.shape == (len(rows), alg.rank, alg.dim)
    for i, row in enumerate(rows):
        want, got = spectral_decompose(EjaElement(alg, row)), stacked[i]
        bound = 1e-12 * (1.0 + np.abs(want.eigenvalues).max())
        assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= bound
        assert np.max(np.abs(coefficient_rows(got.frame) - coefficient_rows(want.frame))) <= 1e-12
        assert len(got.coarse) == len(want.coarse)
        for (lam, idem), (want_lam, want_idem) in zip(got.coarse, want.coarse):
            assert abs(lam - want_lam) <= bound
            assert np.max(np.abs(idem.coeffs - want_idem.coeffs)) <= 1e-12
    assert [len(stacked[i].coarse) for i in range(5, 9)] == [2] * 4
    for bad in (np.nan, np.inf):
        broken = np.array(rows)
        broken[6, -1] = bad
        with pytest.raises(SpectralError) as alone:
            spectral_decompose(EjaElement(alg, broken[6]))
        with pytest.raises(SpectralError) as together:
            spectral.spectral_decompose_rows(alg, broken)
        assert str(together.value) == str(alone.value)


def test_eigenvalues_match_numpy_for_matrix_families():
    for alg in (algebra("sym_r", 5), algebra("herm_c", 4)):
        x = random_element(alg, 9)
        w = spectral_decompose(x).eigenvalues
        ref = np.linalg.eigvalsh(to_matrix(x))[::-1]
        assert np.allclose(w, ref, atol=1e-9)


def test_herm_h_eigenvalues_doubled_in_embedding():
    alg = algebra("herm_h", 3)
    x = random_element(alg, 10)
    w = spectral_decompose(x).eigenvalues
    emb = np.linalg.eigvalsh(to_matrix(x))[::-1]
    assert np.allclose(np.repeat(w, 2), emb, atol=1e-8)


def _repeated_top(alg, seed):
    """An element whose top eigenvalue is double, on a random Jordan frame.

    herm_h(3) gets a repeated quaternionic eigenvalue (a fourfold eigenvalue
    of the embedding), herm_o a double root of the cubic and spin a multiple
    of the unit.
    """
    lam = [1.5, 1.5] + [-0.5 - i for i in range(alg.rank - 2)]
    return _on_frame(alg, lam, seed)[0]


@pytest.mark.parametrize("kind", ["generic", "repeated", "stacked"])
@pytest.mark.parametrize("alg", FAMILIES_SMALL, ids=lambda a: a.family)
def test_eigenvalues_match_decomposition(alg, kind):
    if kind == "stacked":
        # one call over generic rows, rows with a repeated eigenvalue and
        # multiples of the unit (a triple root of the herm_o cubic, p = 0)
        elements = [random_element(alg, 2000 + seed) for seed in range(5)]
        elements += [_repeated_top(alg, 2000 + seed) for seed in range(5)]
        elements += [unit(alg) * 2.5, -unit(alg), zero(alg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = eigenvalue_rows(alg, np.stack([x.coeffs for x in elements]))
        assert rows.shape == (len(elements), alg.rank)
        for x, got in zip(elements, rows):
            want = spectral_decompose(x).eigenvalues
            assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + norm(x))
        assert np.array_equal(rows[-3], np.full(alg.rank, 2.5))
        return
    for seed in range(5):
        if kind == "generic":
            x = random_element(alg, 2000 + seed)
        else:
            x = _repeated_top(alg, 2000 + seed)
        want = spectral_decompose(x).eigenvalues
        got = eigenvalues(x)
        assert got.shape == (alg.rank,)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + norm(x))
        if kind == "repeated":
            assert got[0] == pytest.approx(1.5, abs=1e-9)
            assert got[1] == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("alg", FAMILIES_SMALL, ids=lambda a: a.family)
def test_non_finite_input_refused(alg, bad):
    for pos in (0, alg.dim - 1):
        coeffs = random_element(alg, 3).coeffs.copy()
        coeffs[pos] = bad
        x = EjaElement(alg, coeffs)
        with pytest.raises(SpectralError, match="non-finite"):
            spectral_decompose(x)
        with pytest.raises(SpectralError, match="non-finite"):
            eigenvalues(x)


def _assert_refused_or_exact(y, want):
    # both entry points refuse with SpectralError, or both return the true
    # eigenvalues; never one of the two, an infinite eigenvalue or a bare
    # OverflowError
    results = []
    for solve in (eigenvalues, lambda z: spectral_decompose(z).eigenvalues):
        try:
            results.append(solve(y))
        except SpectralError:
            results.append(None)
    refused = [got is None for got in results]
    assert refused[0] == refused[1], refused
    for got in results:
        if got is not None:
            assert np.isfinite(got).all()
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("scale", [1e105, 1e160, 1e300])
@pytest.mark.parametrize("alg", FAMILIES_SMALL, ids=lambda a: a.family)
def test_overflow_refused_or_exact(alg, scale):
    x = random_element(alg, 3)
    _assert_refused_or_exact(EjaElement(alg, x.coeffs * scale), eigenvalues(x) * scale)


def test_herm_o_cubic_overflow_refused_or_exact():
    # the power traces of 3e102 * e are finite, but e1**3 = (9e102)**3 is not
    x = unit(algebra("herm_o", 3)) * 3e102
    _assert_refused_or_exact(x, np.full(3, 3e102))


@pytest.mark.parametrize("alg", FAMILIES_SMALL, ids=lambda a: a.family)
def test_mixed_stack_shifts_only_its_overflowing_rows(alg):
    # one stack holding a row near the largest float (its values overflow
    # when scaled back for herm_h, spin and herm_o), a row whose norm
    # overflows and ordinary rows: each row that spectral_decompose solves
    # on its own gets the same values here, and the stack is refused
    # exactly when one of its rows is
    y = random_element(alg, 3).coeffs
    rows = np.stack([y * 5e307, y, y * 1e160, y * -2.5, unit(alg).coeffs * 0.5])
    want = []
    for row in rows:
        try:
            want.append(spectral_decompose(EjaElement(alg, row)).eigenvalues)
        except SpectralError:
            want.append(None)
    solved = [i for i, w in enumerate(want) if w is not None]
    assert solved[-4:] == [1, 2, 3, 4]
    if len(solved) < len(rows):
        with pytest.raises(SpectralError, match="eigenvalues overflow"):
            eigenvalue_rows(alg, rows)
    got = eigenvalue_rows(alg, rows[solved])
    for i, vals in zip(solved, got):
        assert np.isfinite(vals).all()
        assert np.max(np.abs(vals - want[i])) <= 1e-12 * np.max(np.abs(want[i]))


def test_herm_o_eigenvalues_take_one_jordan_product(monkeypatch):
    # tr x^2 and tr x^3 come from the trace form, so only x * x is formed:
    # one row-wise Jordan square per call, one row per element
    squared = []

    def counted(x, y=None):
        assert y is None
        squared.append(len(x))
        return herm_o_product_rows(x)

    def refuse(a, b):
        raise AssertionError("the square is formed over rows, not per element")

    monkeypatch.setattr(spectral, "herm_o_product_rows", counted)
    monkeypatch.setattr(spectral, "jordan_product", refuse)
    alg = algebra("herm_o", 3)
    for seed in range(5):
        x = random_element(alg, seed)
        squared.clear()
        vals = eigenvalues(x)
        assert squared == [1]
        assert abs(sum(vals) - trace(x)) <= 1e-12 * (1.0 + norm(x))
    rows = np.stack([random_element(alg, seed).coeffs for seed in range(7)])
    squared.clear()
    vals = eigenvalue_rows(alg, rows)
    assert squared == [7]
    assert np.max(np.abs(vals.sum(axis=1) - rows[:, :3].sum(axis=1))) <= 1e-11


# -- predicates --------------------------------------------------------------------


def test_idempotent_predicates_pinned():
    herm3 = algebra("herm_c", 3)
    e11 = EjaElement(herm3, np.eye(9, dtype=float)[0] * 0 + np.array([1.0] + [0.0] * 8))
    assert is_primitive_idempotent(e11, 1e-12)
    sym3 = algebra("sym_r", 3)
    c = np.zeros(6)
    c[0] = c[1] = 1.0
    e1122 = EjaElement(sym3, c)
    assert is_idempotent(e1122, 1e-12)
    assert not is_primitive_idempotent(e1122, 1e-12)
    spin2 = algebra("spin", 2)
    assert is_primitive_idempotent(EjaElement(spin2, [0.3, 0.4, 0.5]), 1e-12)
    assert not is_idempotent(EjaElement(spin2, [0.3, 0.3, 0.5]), 1e-6)


@pytest.mark.parametrize("alg", FAMILIES_SMALL, ids=lambda a: a.family)
def test_idempotent_rows_flag_each_row_as_the_element_tests_do(alg):
    # a primitive, the unit (an idempotent of trace rank >= 2), a
    # non-idempotent, a slightly perturbed primitive and a NaN row
    c = random_jordan_frame(alg, 3)[0]
    bump = np.zeros(alg.dim)
    bump[-1] = 1e-6
    rows = np.array(
        [c.coeffs, unit(alg).coeffs, random_element(alg, 4).coeffs,
         c.coeffs + bump, np.full(alg.dim, np.nan)]
    )
    for tol in (1e-10, 1e-4):
        idem, prim = idempotent_rows(alg, rows, tol), primitive_rows(alg, rows, tol)
        for k, row in enumerate(rows):
            x = EjaElement(alg, row)
            assert idem[k] == (norm(jordan_product(x, x) - x) <= tol) == is_idempotent(x, tol)
            assert prim[k] == (idem[k] and abs(trace(x) - 1.0) <= tol)
            assert prim[k] == is_primitive_idempotent(x, tol)
        assert list(prim) == [True, False, False, tol > 1e-6, False]
        assert list(idem) == [True, True, False, tol > 1e-6, False]


def test_random_state_unit_trace():
    alg = algebra("spin", 3)
    for seed in range(5):
        s = random_state(alg, seed)
        assert abs(trace(s) - 1.0) < 1e-12
        w = spectral_decompose(s).eigenvalues
        assert float(np.min(w)) >= -1e-12


def test_random_frame_sym_r4_completeness():
    frame = random_jordan_frame(algebra("sym_r", 4), 3)
    assert len(frame) == 4
    total = frame[0]
    for c in frame[1:]:
        total = total + c
    assert norm(total - unit(algebra("sym_r", 4))) < 1e-10


def test_random_frame_herm_o_seed42():
    frame = random_jordan_frame(algebra("herm_o", 3), 42)
    for i, ci in enumerate(frame):
        for j, cj in enumerate(frame):
            want = ci if i == j else None
            prod = jordan_product(ci, cj)
            if want is None:
                assert norm(prod) <= 1e-8
            else:
                assert norm(prod - want) <= 1e-8


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError):
        spectral_decompose(random_element(algebra("sym_r", 2), 0), tol=0.0)


def test_frame_orthonormal_under_trace_form():
    for alg in FAMILIES_SMALL:
        frame = random_jordan_frame(alg, 17)
        for i, ci in enumerate(frame):
            for j, cj in enumerate(frame):
                assert inner(ci, cj) == pytest.approx(float(i == j), abs=1e-9)
