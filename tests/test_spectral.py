import warnings

import numpy as np
import pytest

from jordan_spectra.algebra import (
    EjaElement,
    algebra,
    from_matrix,
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


def test_coarse_eigenvalues_independent_of_fine_seed():
    alg = algebra("herm_o", 3)
    coeffs = np.zeros(27)
    coeffs[:3] = [3.0, 3.0, -1.0]
    x = EjaElement(alg, coeffs)
    d1 = spectral_decompose(x, seed=1)
    d2 = spectral_decompose(x, seed=2)
    v1 = [lam for lam, _ in d1.coarse]
    v2 = [lam for lam, _ in d2.coarse]
    assert np.allclose(v1, v2, atol=1e-9)
    for (_, q1), (_, q2) in zip(d1.coarse, d2.coarse):
        assert norm(q1 - q2) < 1e-7  # coarse idempotents are unique


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
    frame = random_jordan_frame(alg, seed)
    lam = [1.5, 1.5] + [-0.5 - i for i in range(alg.rank - 2)]
    x = zero(alg)
    for w, c in zip(lam, frame):
        x = x + w * c
    return x


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
