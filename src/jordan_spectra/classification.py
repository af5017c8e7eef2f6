"""Fundamental-region sections, symmetric-space tables, and theorem drivers.

The table data (noncompact symmetric spaces with their isotropy
representations, invariant polytopes, and Euclidean Jordan algebra
annotations, following Madden-Robertson; algebra dimensions and ranks
following Faraut-Koranyi) ships as a JSON resource.  Formulas are stored
as strings like ``"(n-1)*(n+2)/2"`` and evaluated by a tiny whitelist
evaluator over exact integers, so the rows stay auditable and diffable.

``fr_polytope`` realizes the section construction: for a state space the
span of a Jordan frame meets the body in the simplex on that frame, and
for a polytope the affine span of the barycenters of a maximal flag meets
the body in the body itself exactly when the body is a simplex.  Both
drivers at the bottom aggregate per-check reports rather than raising, so
a partial failure is visible instead of fatal.

One printed annotation does not pass the dimension arithmetic: the
complex special linear row (type A_n) annotates Herm(n,C) while its
isotropy dimension matches Herm(n+1,C).  The consistency check flags this
as an open question instead of silently correcting the stored row.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .automorphisms import SymmetryError, group_generators, orbit_tree
from .exactla import affine_basis_indices
from .geometry import (
    VERTEX_CAP,
    AlgebraDescriptor,
    Ball,
    EjaStateSpace,
    GeometryError,
    Polytope,
    barycenter,
    cube,
    hexagon,
    maximal_flags,
    octahedron,
    pentagon,
    polytope,
    rectangle,
    simplex,
    square,
)
from .operational import is_spectral, recheck_counterexample
from .symmetry import frame_flag_bijection, is_regular, is_strongly_symmetric

TABLES_ENV = "JORDAN_SPECTRA_TABLES"

_SAMPLE_PARAMS = {"sym_r": 4, "herm_c": 3, "herm_h": 3, "spin": 5, "herm_o": 3}

# Section samples decided per block; even, so that a sample's parity is its
# row's parity within the block.  The herm_o eigenvalues read the cubic off
# the rows with no Jordan square, so a 1024-row block is cheap in memory:
# the 10**5-sample herm_o check peaks at 0.8 MB under tracemalloc (0.3 MB
# with 32 rows), and 2000 samples take 2 eigenvalue calls instead of 63
_SECTION_BLOCK = 1024

# A sampled EJA section point inside the cone may have frame coordinates
# down to -SECTION_TOL.
SECTION_TOL = 1e-10


class ClassificationError(ValueError):
    pass


# -- table resource --------------------------------------------------------------


def tables_path() -> str:
    """Path of the active table resource (env override wins)."""
    override = os.environ.get(TABLES_ENV)
    if override:
        return override
    return str(resources.files("jordan_spectra") / "tables" / "symmetric_spaces.json")


@lru_cache(maxsize=8)
def _load_tables_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_tables(path: str | None = None) -> dict:
    """Parsed table resource; a fresh dict each call so callers may mutate."""
    return json.loads(_load_tables_file(path or tables_path()))


# -- formula evaluation ----------------------------------------------------------


def eval_formula(expr, params: dict | None = None) -> int:
    """Evaluate an integer arithmetic formula such as ``(n-1)*(n+2)/2``.

    Only +, -, *, //, /, unary minus, integer literals, and names bound in
    params are accepted; true division must come out exact.
    """
    if isinstance(expr, int):
        return expr
    bound = params or {}
    try:
        tree = ast.parse(str(expr), mode="eval")
    except SyntaxError as exc:
        raise ClassificationError("bad formula %r: %s" % (expr, exc)) from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            if node.id not in bound:
                raise ClassificationError(
                    "formula %r needs a value for %r" % (expr, node.id)
                )
            return Fraction(int(bound[node.id]))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return Fraction(left // right)
            if isinstance(node.op, ast.Div):
                return left / right
        raise ClassificationError("disallowed syntax in formula %r" % (expr,))

    value = ev(tree)
    if value.denominator != 1:
        raise ClassificationError("formula %r is not integral" % (expr,))
    return int(value)


_POLY_LABEL = re.compile(r"^([A-Za-z0-9-]+)(?:\((.+)\))?$")


def _parse_polytope_label(label: str, params: dict):
    """Split "simplex(n-1)" into ("simplex", value); bare labels get None."""
    match = _POLY_LABEL.match(label)
    if not match:
        raise ClassificationError("bad polytope label %r" % label)
    name, expr = match.groups()
    return name, (eval_formula(expr, params) if expr is not None else None)


# -- table rows ------------------------------------------------------------------


@dataclass(frozen=True)
class MrTableRow:
    """One symmetric-space row: formulas stay strings until evaluated."""

    table: int
    type: str
    symmetric_space: str
    rank: str
    isotropy_dim: str
    root_space: str
    polytopes: tuple
    eja_printed: str | None
    eja: tuple | None  # (family, parameter formula)
    check_params: tuple  # ((name, value), ...)
    note: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "MrTableRow":
        eja = doc.get("eja")
        return cls(
            table=doc["table"],
            type=doc["type"],
            symmetric_space=doc["symmetric_space"],
            rank=str(doc["rank"]),
            isotropy_dim=str(doc["isotropy_dim"]),
            root_space=doc["root_space"],
            polytopes=tuple(doc["polytopes"]),
            eja_printed=doc.get("eja_printed"),
            eja=(eja["family"], str(eja["param"])) if eja else None,
            check_params=tuple(doc.get("check_params", {}).items()),
            note=doc.get("note"),
        )

    def to_dict(self) -> dict:
        out = {
            "table": self.table,
            "type": self.type,
            "symmetric_space": self.symmetric_space,
            "rank": self.rank,
            "isotropy_dim": self.isotropy_dim,
            "root_space": self.root_space,
            "polytopes": list(self.polytopes),
            "eja_printed": self.eja_printed,
            "eja": {"family": self.eja[0], "param": self.eja[1]} if self.eja else None,
            "check_params": dict(self.check_params),
        }
        if self.note is not None:
            out["note"] = self.note
        return out

    def evaluate(self, params: dict | None = None) -> dict:
        """Numeric rank/dimension/polytopes at params (default: check params)."""
        vals = dict(params) if params is not None else dict(self.check_params)
        polys = []
        for label in self.polytopes:
            name, value = _parse_polytope_label(label, vals)
            polys.append(name if value is None else "%s(%d)" % (name, value))
        out = {
            "type": self.type,
            "params": vals,
            "rank": eval_formula(self.rank, vals),
            "isotropy_dim": eval_formula(self.isotropy_dim, vals),
            "root_space": self.root_space,
            "polytopes": polys,
        }
        if self.eja is not None:
            family, param_expr = self.eja
            out["eja"] = {"family": family, "param": eval_formula(param_expr, vals)}
        else:
            out["eja"] = None
        return out


def mr_table_all(path: str | None = None) -> tuple:
    return tuple(MrTableRow.from_dict(doc) for doc in load_tables(path)["rows"])


def mr_table_lookup(type_label: str, path: str | None = None) -> MrTableRow:
    for row in mr_table_all(path):
        if row.type == type_label:
            return row
    known = ", ".join(r.type for r in mr_table_all(path))
    raise ClassificationError(
        "unknown symmetric-space type %r (known: %s)" % (type_label, known)
    )


def table_consistency_check(path: str | None = None) -> dict:
    """Cross-check table formulas against the implemented algebras.

    Every EJA-annotated row must satisfy isotropy dim = dim(V) - 1 and
    symmetric-space rank = rank(V) - 1 at its check parameters, and every
    simplicial row with a simplex of dimension >= 2 must carry an EJA
    annotation.  The one printed annotation that fails the arithmetic
    (type A_n) is reported under "flagged", not as a failure, together
    with the shifted reading that does satisfy it.
    """
    data = load_tables(path)
    failures: list = []
    flagged: list = []
    checked = 0

    for fam in data["families"]:
        checked += 1
        family = fam["package_family"]
        sample = _SAMPLE_PARAMS[family]
        desc = AlgebraDescriptor(family, sample)
        var = eval_formula(fam["table_var_from_param"], {"param": sample})
        binding = {"m": var, "n": var}
        dim_val = eval_formula(fam["dim"], binding)
        rank_val = eval_formula(fam["rank"], binding)
        if dim_val != desc.dim or rank_val != desc.rank:
            failures.append(
                {
                    "entry": fam["algebra"],
                    "problem": "family formulas give dim %d rank %d; package has dim %d rank %d"
                    % (dim_val, rank_val, desc.dim, desc.rank),
                }
            )

    for row in mr_table_all(path):
        checked += 1
        params = dict(row.check_params)
        rank_val = eval_formula(row.rank, params)
        dim_val = eval_formula(row.isotropy_dim, params)
        if row.eja is not None:
            family, param_expr = row.eja
            desc = AlgebraDescriptor(family, eval_formula(param_expr, params))
            if dim_val == desc.dim - 1 and rank_val == desc.rank - 1:
                pass
            elif row.table == 4 and row.type == "A_n":
                shifted = AlgebraDescriptor(family, desc.param + 1)
                entry = {
                    "type": row.type,
                    "table": row.table,
                    "question": (
                        "printed annotation %s has dim %d and rank %d, but the row "
                        "needs isotropy dim %d = dim - 1 and rank %d = rank - 1"
                        % (row.eja_printed, desc.dim, desc.rank, dim_val, rank_val)
                    ),
                }
                if dim_val == shifted.dim - 1 and rank_val == shifted.rank - 1:
                    entry["consistent_with"] = (
                        "Herm(n+1,C): dim %d - 1 = %d, rank %d - 1 = %d"
                        % (shifted.dim, dim_val, shifted.rank, rank_val)
                    )
                    flagged.append(entry)
                else:
                    failures.append(entry)
            else:
                failures.append(
                    {
                        "type": row.type,
                        "table": row.table,
                        "problem": (
                            "annotation %s has dim %d rank %d; row has isotropy %d rank %d"
                            % (row.eja_printed, desc.dim, desc.rank, dim_val, rank_val)
                        ),
                    }
                )
        for label in row.polytopes:
            name, value = _parse_polytope_label(label, params)
            if name == "simplex" and value is not None and value >= 2 and row.eja is None:
                failures.append(
                    {
                        "type": row.type,
                        "table": row.table,
                        "problem": "simplicial row %s lacks an EJA annotation" % label,
                    }
                )

    return {
        "rows_checked": checked,
        "failures": failures,
        "flagged": flagged,
        "all_pass": not failures,
    }


# -- fundamental-region sections ---------------------------------------------------


@dataclass(frozen=True)
class FrSection:
    """A section subspace basis together with its slice of the body.

    For a state space the basis is a maximal Jordan frame and the slice is
    the simplex on it (in frame coordinates); for a polytope the basis
    holds the barycenters of a maximal flag and the slice is the body.
    """

    kind: str  # "eja", "ball", or "polytope"
    basis: tuple
    polytope: Polytope


# One diagonal frame per algebra, as `algebra.unit` keeps one unit (and with
# the same bound): the split costs 0.1 ms, and each EJA battery and section
# asks for it.
@lru_cache(maxsize=16)
def standard_frame(alg: AlgebraDescriptor) -> tuple:
    """The diagonal Jordan frame, the unit split by `spectral._peel`; its
    sum is the unit exactly.  Its members are immutable, so one frame per
    algebra serves every caller."""
    from .algebra import EjaElement, unit
    from .spectral import _peel

    return tuple(EjaElement(alg, row) for row in _peel(alg, unit(alg).coeffs[None], alg.rank)[0])


def _coerce_descriptor(body):
    """The algebra descriptor of an EJA target; None for any other target."""
    if isinstance(body, EjaStateSpace):
        return body.descriptor
    if isinstance(body, (Polytope, Ball)):
        return None
    return body if isinstance(body, AlgebraDescriptor) else None


def fr_section(body, frame=None, cap: int = VERTEX_CAP) -> FrSection:
    """Section through a maximal frame (EJA/ball) or flag barycenters (polytope)."""
    desc = _coerce_descriptor(body)
    if desc is not None:
        from .spectral import _check_jordan_frame

        chosen = tuple(frame) if frame is not None else standard_frame(desc)
        _check_jordan_frame(desc, chosen)
        return FrSection("eja", chosen, simplex(desc.rank - 1))
    if isinstance(body, Ball):
        e1 = tuple(
            [Fraction(1 if i == 0 else 0) for i in range(body.n)]
        )
        minus = tuple(-c for c in e1)
        return FrSection("ball", (e1, minus), polytope([e1, minus]))
    if not isinstance(body, Polytope):
        raise ClassificationError("unsupported body %r" % (body,))
    report = is_strongly_symmetric(body, cap)
    verdict = is_spectral(body, cap)
    if not (report.strongly_symmetric and verdict.spectral is True):
        raise ClassificationError(
            "fundamental-region section needs a strongly symmetric spectral "
            "body; got strongly_symmetric=%s spectral=%s"
            % (report.strongly_symmetric, verdict.spectral)
        )
    basis = []
    for face in maximal_flags(body, cap)[0]:
        pts = [body.vertices[i] for i in face.indices]
        center = tuple(sum(col) / Fraction(len(pts)) for col in zip(*pts))
        basis.append(center)
    if len(affine_basis_indices(basis)) != body.dim + 1:
        raise ClassificationError("flag barycenters do not span the body")
    return FrSection("polytope", tuple(basis), body)


def fr_polytope(body, frame=None, cap: int = VERTEX_CAP) -> Polytope:
    """The section polytope: the simplex on a maximal frame."""
    return fr_section(body, frame=frame, cap=cap).polytope


def section_sample_check(section: FrSection, samples: int = 1000, seed: int = 0) -> dict:
    """Points of the section span inside the cone must have frame
    coordinates >= -SECTION_TOL.

    A frame of EJA elements is sampled: frame coordinates are recovered
    through the trace inner product, and cone membership is decided from
    the element's eigenvalues, so the two sides of the comparison are
    computed independently.  Samples are drawn and decided in blocks of
    _SECTION_BLOCK (1024) coefficient rows, one eigenvalue call and one
    product with the frame per block; the stream, and so the report, is
    that of one draw per sample, whatever the block.  An exact section
    (a polytope, or the diameter of a ball) is decided for every point at
    once: the weights of a convex combination of affinely independent
    vertices are its barycentric coordinates, so it passes iff its vertices
    are affinely independent.
    """
    if section.kind == "eja":
        import numpy as np

        from .algebra import coefficient_rows, gram_rows
        from .spectral import eigenvalue_rows

        alg = section.basis[0].algebra
        frame = coefficient_rows(section.basis)
        rng = np.random.default_rng(seed)
        hits = 0
        worst = math.inf
        for start in range(0, samples, _SECTION_BLOCK):
            a = rng.standard_normal((min(_SECTION_BLOCK, samples - start), len(frame)))
            a[::2] = np.abs(a[::2])  # even samples; the block size is even
            x = a @ frame
            inside = eigenvalue_rows(alg, x)[:, -1] >= -1e-12 * (
                1.0 + np.abs(a).max(axis=1)
            )
            if inside.any():
                worst = min(worst, float(gram_rows(alg, x[inside], frame).min()))
                hits += int(inside.sum())
        if hits == 0:
            raise ClassificationError("no cone hits; widen the sampler")
        return {
            "samples": samples,
            "hits": hits,
            "min_coordinate": worst,
            "pass": worst >= -SECTION_TOL,
        }
    verts = section.polytope.vertices
    ok = len(affine_basis_indices(verts)) == len(verts)
    return {
        "samples": samples,
        "hits": samples,
        "min_coordinate": 0.0 if ok else -1.0,
        "pass": ok,
    }


# -- theorem drivers ---------------------------------------------------------------


def _check(name, status, residual=0.0, tolerance=None, detail=None) -> dict:
    out = {"name": name, "status": status, "residual": float(residual)}
    if tolerance is not None:
        out["tolerance"] = tolerance
    if detail is not None:
        out["detail"] = detail
    return out


def _passed(name, ok, detail=None) -> dict:
    """A yes/no check: residual 0 when it passes, 1 when it fails."""
    return _check(name, "pass" if ok else "fail", 0.0 if ok else 1.0, detail=detail)


def _bounded(name, residual, bound, detail=None) -> dict:
    """A check that passes iff its residual is within its bound; NaN fails."""
    return _check(name, "pass" if residual <= bound else "fail", residual, bound, detail)


def _eja_battery(desc: AlgebraDescriptor, trials: int, seed: int) -> list:
    import numpy as np

    from .algebra import gram_rows, norm, norm_rows, unit
    from .spectral import (
        TRANSPORTER_TOL,
        random_element,
        spectral_decompose_rows,
        verify_strong_symmetry_eja,
    )

    u = unit(desc)
    r = desc.rank
    checks = []

    # one stacked decomposition of the trials' elements, one seed each
    x = np.array(
        [random_element(desc, seed * 100003 + t).coeffs for t in range(trials)]
    ).reshape(trials, desc.dim)
    dec = spectral_decompose_rows(desc, x)
    frames = dec.frames
    rank_consistent = frames.shape[1] == r
    recon = norm_rows(desc, dec.reconstruct() - x) / (1.0 + norm_rows(desc, x))
    orth = np.abs(gram_rows(desc, frames) - np.eye(frames.shape[1])).max(axis=(1, 2))
    sums = norm_rows(desc, frames.sum(axis=1) - u.coeffs)
    worst_recon, worst_orth, worst_sum = (
        float(v.max(initial=0.0)) for v in (recon, orth, sums)
    )
    checks.append(
        _bounded(
            "spectral_decomposition",
            worst_recon,
            1e-8,
            "%d random elements reconstructed" % trials,
        )
    )
    checks.append(_bounded("frame_orthonormality", worst_orth, 1e-9))
    checks.append(_bounded("maximal_frame_sum", worst_sum, 1e-9))

    data = load_tables()
    fam = next(f for f in data["families"] if f["package_family"] == desc.family)
    var = eval_formula(fam["table_var_from_param"], {"param": desc.param})
    table_rank = eval_formula(fam["rank"], {"m": var, "n": var})
    rank_ok = rank_consistent and table_rank == r
    checks.append(
        _passed("rank", rank_ok, "table rank %d, descriptor rank %d" % (table_rank, r))
    )

    section = fr_section(desc)
    bary = None
    for c in section.basis:
        bary = c if bary is None else bary + c
    bary_resid = norm((1.0 / r) * bary - (1.0 / r) * u)
    checks.append(
        _bounded(
            "frame_barycenter",
            bary_resid,
            1e-12,
            "barycenter of the section simplex is e/rank",
        )
    )

    if desc.family == "herm_o":
        checks.append(
            _check(
                "transporters",
                "unsupported",
                detail="no constructive transporter for the octonionic family",
            )
        )
    else:
        rep = verify_strong_symmetry_eja(desc, trials=trials, seed=seed)
        checks.append(
            _check(
                "transporters",
                "pass" if rep["strongly_symmetric"] else "fail",
                rep["max_residual"],
                TRANSPORTER_TOL,
                rep["method"],
            )
        )

    sample = section_sample_check(section, samples=max(200, 10 * trials), seed=seed)
    fr_ok = sample["pass"] and section.polytope.vertices == simplex(r - 1).vertices
    checks.append(
        _check(
            "fr_polytope",
            "pass" if fr_ok else "fail",
            max(0.0, -sample["min_coordinate"]),
            SECTION_TOL,
            "simplex on a maximal frame; %d cone hits among %d span samples"
            % (sample["hits"], sample["samples"]),
        )
    )
    return checks


def _simplex_battery(n: int, trials: int, seed: int) -> list:
    body = simplex(n)
    checks = []

    verdict = is_spectral(body)
    covered = (
        verdict.spectral is True
        and verdict.covering_frame is not None
        and sorted(verdict.covering_frame) == list(range(n + 1))
    )
    checks.append(_passed("spectral", covered, "vertices covered by one maximal frame"))

    # the verdict counts k! ordered frames per frame subset, up to the rank
    counts_ok = dict(verdict.frames_by_k) == {
        k: math.perm(n + 1, k) for k in range(1, n + 2)
    }
    checks.append(_passed("frames_are_ordered_subsets", counts_ok))

    report = is_strongly_symmetric(body)
    checks.append(
        _passed("strong_symmetry", report.strongly_symmetric, "group order %d" % report.group_order)
    )
    checks.append(_passed("regularity", is_regular(body)))

    bij = frame_flag_bijection(body)
    bij_ok = bij.bijective and bij.frames == bij.flags
    checks.append(
        _passed("frame_flag_bijection", bij_ok, "%d frames, %d flags" % (bij.frames, bij.flags))
    )

    # g(v0) takes each orbit point |G_v0| times, so the group average of
    # v0 is the average of its orbit, walked along the generators
    perms = group_generators(body).permutations
    orbit = [0] + [j for j, _, _ in orbit_tree(0, perms, lambda p, x: p[x])]
    avg = [Fraction(0)] * (n + 1)
    for j in orbit:
        avg = [a + c for a, c in zip(avg, body.vertices[j])]
    avg = tuple(a / len(orbit) for a in avg)
    bary_ok = avg == tuple(barycenter(body))
    checks.append(
        _passed(
            "barycenter_invariance",
            bary_ok,
            "group average of a vertex orbit equals the barycenter exactly",
        )
    )

    section = fr_section(body)
    sec_ok = section.polytope.vertices == body.vertices
    sample = section_sample_check(section, samples=max(200, 10 * trials), seed=seed)
    checks.append(
        _passed("fr_polytope", sec_ok and sample["pass"], "section is the body itself")
    )
    return checks


def verify_main_theorem_if_direction(target, trials: int = 100, seed: int = 0) -> dict:
    """Per-family verification battery for the forward direction.

    target is an algebra descriptor (or state space) for the Jordan side,
    or an integer n for the simplex of dimension n.  Checks that come out
    "unsupported" (octonionic transporters) do not count as failures.
    """
    desc = _coerce_descriptor(target)
    if desc is not None:
        label = "%s(%d)" % (desc.family, desc.param)
        checks = _eja_battery(desc, trials, seed)
    elif isinstance(target, int):
        if target < 1:
            raise ClassificationError("simplex dimension must be >= 1")
        label = "simplex(%d)" % target
        checks = _simplex_battery(target, trials, seed)
    else:
        raise ClassificationError(
            "target must be an algebra descriptor, state space, or simplex dimension"
        )
    return {
        "target": label,
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["status"] != "fail" for c in checks),
    }


def default_converse_catalog() -> tuple:
    return (
        ("simplex(1)", simplex(1)),
        ("simplex(2)", simplex(2)),
        ("simplex(3)", simplex(3)),
        ("simplex(4)", simplex(4)),
        ("square", square()),
        ("rectangle", rectangle()),
        ("pentagon", pentagon()),
        ("hexagon", hexagon()),
        ("cube", cube()),
        ("octahedron", octahedron()),
    )


def verify_converse_on_polytopes(catalog=None, cap: int = VERTEX_CAP) -> dict:
    """Check sss(P) <=> P is a simplex across a polytope catalog.

    Every non-simplex entry carries an explicit witness: an orbit pair of
    same-size frames for broken strong symmetry, and a rechecked interior
    counterexample point for broken spectrality.
    """
    if catalog is None:
        catalog = default_converse_catalog()
    bodies = []
    equivalence = True
    for name, body in catalog:
        entry: dict = {"body": name}
        try:
            is_simplex = len(body.vertices) == body.dim + 1
            # spectrality first: its cap refuses before any frame LP
            verdict = is_spectral(body, cap)
            report = is_strongly_symmetric(body, cap)
        except (GeometryError, SymmetryError) as exc:
            entry["error"] = str(exc)
            bodies.append(entry)
            equivalence = False
            continue
        spectral = verdict.spectral is True
        sss = report.strongly_symmetric and spectral
        entry.update(
            {
                "is_simplex": is_simplex,
                "strongly_symmetric": report.strongly_symmetric,
                "spectral": spectral,
                "sss": sss,
                "matches": sss == is_simplex,
            }
        )
        witness: dict = {}
        if is_simplex:
            witness["covering_frame"] = list(verdict.covering_frame)
        if not report.strongly_symmetric:
            witness["orbit_pair"] = report.to_dict()["witness_pair"]
        if not spectral:
            witness["counterexample"] = verdict.to_dict()["counterexample"]
            witness["recheck"] = recheck_counterexample(body, verdict.counterexample, cap)
        entry["witness"] = witness
        if not entry["matches"]:
            equivalence = False
        bodies.append(entry)
    return {"bodies": bodies, "equivalence_holds": equivalence}
