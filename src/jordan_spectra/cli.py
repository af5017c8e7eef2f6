"""JSON command-line front end.

Every command prints one schema-versioned JSON document to stdout (and to
--out when given).  Exit codes: 0 success or property holds, 1 property
refuted (the payload carries a witness), 2 malformed input or internal
error.  All randomness is seeded through --seed, and dictionaries are
serialized with sorted keys, so identical configurations produce
byte-identical output.

Bodies are read either from a JSON file (--input or a positional path)
in the body_from_dict schema, or inline as --eja FAMILY with --m/--n.
The JORDAN_SPECTRA_TABLES environment variable redirects the table
resource used by the tables and verify-theorem commands.
"""

from __future__ import annotations

import json
import math
import sys

import click

# Module level holds only the exact body layer; each command imports the
# rest where it reaches it, so the exact commands never load numpy.
from .geometry import (
    FAMILIES,
    VERTEX_CAP,
    AlgebraDescriptor,
    Ball,
    EjaStateSpace,
    Polytope,
    body_from_dict,
    body_to_dict,
    eja_state_space,
    exposed_faces,
)
from .scalars import format_scalar, parse_scalar

SCHEMA_VERSION = 1

DEFAULT_SEED = 0
DEFAULT_TRIALS = 100
DEFAULT_TOL = 1e-10


def _finish(doc: dict, out: str | None, code: int):
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    click.echo(text, nl=False)
    sys.exit(code)


def _fail(message: str, out: str | None = None):
    _finish({"error": message}, out, 2)


def _body_options(fn):
    for opt in (
        click.option("--input", "input_path", default=None, help="body JSON file"),
        click.option("--eja", type=click.Choice(FAMILIES), default=None),
        click.option("--m", type=int, default=None, help="matrix size parameter"),
        click.option("--n", type=int, default=None, help="spin ball dimension"),
    ):
        fn = opt(fn)
    return fn


_COMMON_OPTIONS = {
    "seed": click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True),
    "trials": click.option("--trials", type=int, default=DEFAULT_TRIALS, show_default=True),
    "tol": click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True),
    "cap": click.option("--cap", type=int, default=VERTEX_CAP, show_default=True),
}


def _common_options(*names):
    """The named options a command reads, plus --out."""

    def decorate(fn):
        for name in names:
            fn = _COMMON_OPTIONS[name](fn)
        return click.option("--out", default=None, help="also write the JSON here")(fn)

    return decorate


def _load_body(input_path, eja, m, n, positional=None):
    if eja is not None:
        param = m if m is not None else n
        return eja_state_space(eja, param)
    path = input_path or positional
    if path is None:
        raise ValueError("provide --input FILE (or a positional path) or --eja FAMILY")
    with open(path, "r", encoding="utf-8") as fh:
        return body_from_dict(json.load(fh))


@click.group()
def main():
    """Spectral convex bodies: decompositions, frames, symmetry, tables."""


# -- decompose ---------------------------------------------------------------------


@main.command()
@_body_options
@_common_options("seed", "tol")
def decompose(input_path, eja, m, n, seed, tol, out):
    """Spectral decomposition of an element (from file) or a seeded random state."""
    try:
        from .algebra import EjaElement, norm
        from .spectral import random_state, spectral_decompose

        if eja is not None:
            desc = _load_body(None, eja, m, n).descriptor
            x = random_state(desc, seed)
            source = {"kind": "random-state", "seed": seed}
        else:
            if input_path is None:
                raise ValueError("provide --input with an element file or --eja")
            with open(input_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            desc = AlgebraDescriptor.from_dict(doc["algebra"])
            x = EjaElement(desc, [float(c) for c in doc["coeffs"]])
            source = {"kind": "file", "path": input_path}
        dec = spectral_decompose(x, tol=tol)
        residual = norm(dec.reconstruct() - x)
        _finish(
            {
                "algebra": desc.to_dict(),
                "source": source,
                "eigenvalues": [float(v) for v in dec.eigenvalues],
                "frame": [[float(c) for c in idem.coeffs] for idem in dec.frame],
                "residual": residual,
            },
            out,
            0,
        )
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail(str(exc), out)


# -- check -------------------------------------------------------------------------


@main.command()
@click.argument("positional", required=False)
@click.option(
    "--property",
    "prop",
    type=click.Choice(["spectral", "strong-symmetry", "regular", "rank"]),
    required=True,
)
@_body_options
@_common_options("seed", "trials", "cap")
def check(positional, prop, input_path, eja, m, n, seed, trials, cap, out):
    """Check a property of a body; exit 1 with a witness when refuted."""
    try:
        body = _load_body(input_path, eja, m, n, positional)
        doc: dict = {"property": prop, "body": body_to_dict(body)}
        if prop == "spectral":
            from .operational import is_spectral

            verdict = is_spectral(body, cap=cap, seed=seed)
            doc.update(verdict.to_dict())
            _finish(doc, out, 0 if verdict.spectral is True else 1)
        elif prop == "strong-symmetry":
            if isinstance(body, Polytope):
                from .symmetry import is_strongly_symmetric

                report = is_strongly_symmetric(body, cap)
                doc.update(report.to_dict())
                _finish(doc, out, 0 if report.strongly_symmetric else 1)
            elif isinstance(body, EjaStateSpace):
                from .spectral import verify_strong_symmetry_eja

                rep = verify_strong_symmetry_eja(
                    body.descriptor, trials=trials, seed=seed
                )
                doc.update(rep)
                _finish(doc, out, 0 if rep["strongly_symmetric"] else 1)
            else:
                raise ValueError("strong-symmetry check needs a polytope or EJA body")
        elif prop == "regular":
            if not isinstance(body, Polytope):
                raise ValueError("regularity is a polytope property")
            from .symmetry import is_regular

            regular = is_regular(body, cap)
            doc["regular"] = regular
            _finish(doc, out, 0 if regular else 1)
        else:  # rank
            from .operational import rank as body_rank

            doc["rank"] = body_rank(body, cap)
            _finish(doc, out, 0)
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc), out)


# -- frames ------------------------------------------------------------------------


@main.command()
@click.argument("positional", required=False)
@click.option("--k", type=int, default=None, help="frame size; all sizes if omitted")
@_body_options
@_common_options("cap")
def frames(positional, k, input_path, eja, m, n, cap, out):
    """Enumerate ordered frames of a polytope."""
    try:
        body = _load_body(input_path, eja, m, n, positional)
        if not isinstance(body, Polytope):
            raise ValueError("frame enumeration is exact only for polytopes")
        from .operational import count_frames, enumerate_frames, rank as body_rank

        doc: dict = {"body": body_to_dict(body), "rank": body_rank(body, cap)}
        if k is not None:
            found = enumerate_frames(body, k, cap=cap)
            doc["k"] = k
            doc["count"] = len(found)
            doc["frames"] = [list(f.indices) for f in found]
        else:
            doc["frames_by_k"] = {
                str(kk): count_frames(body, kk, cap) for kk in range(1, doc["rank"] + 1)
            }
        _finish(doc, out, 0)
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc), out)


# -- fr-polytope ---------------------------------------------------------------------


@main.command("fr-polytope")
@click.argument("positional", required=False)
@_body_options
@_common_options("seed", "trials", "cap")
def fr_polytope_cmd(positional, input_path, eja, m, n, seed, trials, cap, out):
    """Fundamental-region section: the simplex on a maximal frame."""
    try:
        if trials < 1:
            raise ValueError("trials must be >= 1, got %d" % trials)
        from .classification import fr_section, section_sample_check

        body = _load_body(input_path, eja, m, n, positional)
        section = fr_section(body, cap=cap)
        if section.kind == "eja":
            basis = [[float(c) for c in e.coeffs] for e in section.basis]
        else:
            basis = [[format_scalar(c) for c in p] for p in section.basis]
        sample = section_sample_check(section, samples=max(10 * trials, 100), seed=seed)
        _finish(
            {
                "body": body_to_dict(body),
                "kind": section.kind,
                "basis": basis,
                "polytope": body_to_dict(section.polytope),
                "sample_check": sample,
            },
            out,
            0,
        )
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc), out)


# -- tables ------------------------------------------------------------------------


@main.command()
@click.option("--type", "type_label", default=None, help="row label, e.g. EIV")
@click.option("--out", default=None)
def tables(type_label, out):
    """Symmetric-space table rows and the consistency report."""
    try:
        from .classification import load_tables, mr_table_lookup, table_consistency_check

        if type_label is not None:
            row = mr_table_lookup(type_label)
            _finish({"row": row.to_dict(), "evaluated": row.evaluate()}, out, 0)
        data = load_tables()
        _finish(
            {
                "families": data["families"],
                "rows": data["rows"],
                "consistency": table_consistency_check(),
            },
            out,
            0,
        )
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc), out)


# -- verify-theorem -------------------------------------------------------------------


@main.command("verify-theorem")
@click.option("--simplex", "simplex_dim", type=int, default=None)
@_body_options
@_common_options("seed", "trials")
def verify_theorem(simplex_dim, input_path, eja, m, n, seed, trials, out):
    """Run the forward-direction verification battery; exit 1 on any failure."""
    try:
        if simplex_dim is not None:
            target: object = simplex_dim
        elif eja is not None or input_path is not None:
            body = _load_body(input_path, eja, m, n)
            if isinstance(body, EjaStateSpace):
                target = body.descriptor
            elif isinstance(body, Polytope) and len(body.vertices) == body.dim + 1:
                target = body.dim
            else:
                raise ValueError("theorem target must be an EJA or a simplex")
        else:
            raise ValueError("provide --eja, --simplex, or --input")
        from .classification import verify_main_theorem_if_direction

        report = verify_main_theorem_if_direction(target, trials=trials, seed=seed)
        _finish(report, out, 0 if report["all_pass"] else 1)
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc), out)


# -- plot-data ---------------------------------------------------------------------


@main.command("plot-data")
@click.argument("positional", required=False)
@_body_options
@_common_options("cap")
def plot_data(positional, input_path, eja, m, n, cap, out):
    """Raw point/segment data for external plotting (no rendering)."""
    try:
        body = _load_body(input_path, eja, m, n, positional)
        if isinstance(body, Polytope):
            lat = exposed_faces(body, cap=cap)
            edges = sorted(
                list(f.indices) for f in lat.faces if f.dim == 1 and len(f.indices) == 2
            )
            doc = {
                "kind": "polytope",
                "dim": body.dim,
                "vertices": [[float(c) for c in v] for v in body.vertices],
                "edges": edges,
            }
        elif isinstance(body, Ball):
            points = [
                [math.cos(2 * math.pi * i / 64), math.sin(2 * math.pi * i / 64)]
                for i in range(64)
            ]
            doc = {"kind": "ball", "n": body.n, "equator": points}
        else:
            from .classification import fr_section

            section = fr_section(body)
            verts = [[float(c) for c in v] for v in section.polytope.vertices]
            r = len(verts)
            doc = {
                "kind": "eja-section",
                "algebra": body.descriptor.to_dict(),
                "vertices": verts,
                "edges": sorted([i, j] for i in range(r) for j in range(i + 1, r)),
            }
        doc["body"] = body_to_dict(body)
        _finish(doc, out, 0)
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc), out)


# -- recheck -----------------------------------------------------------------------


@main.command()
@click.argument("positional", required=False)
@click.option("--input", "input_path", default=None, help="witness JSON from `check`")
@_common_options("cap")
def recheck(positional, input_path, cap, out):
    """Re-verify a witness emitted by a refuting check run."""
    try:
        path = input_path or positional
        if path is None:
            raise ValueError("provide the witness JSON path")
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        body = body_from_dict(doc["body"])
        from .automorphisms import ordered_orbit
        from .operational import _frame_sets, recheck_counterexample

        prop = doc.get("property")
        if prop == "spectral":
            if doc.get("counterexample") is None:
                raise ValueError("witness carries no counterexample")
            point = [parse_scalar(s) for s in doc["counterexample"]]
            valid = recheck_counterexample(body, point, cap)
            detail = "counterexample lies inside the body and off every frame hull"
        elif prop == "strong-symmetry":
            pair = doc.get("witness_pair")
            if pair is None:
                raise ValueError("witness carries no orbit pair")
            k = int(pair["k"])
            fa, fb = (tuple(f) for f in pair["frames"])
            sets = _frame_sets(body, k, cap)
            valid = all(tuple(sorted(f)) in sets for f in (fa, fb))
            if valid:  # a frame is affinely independent, as ordered_orbit needs
                _, linked = ordered_orbit(body, fa)
                valid = not linked(fb)
            detail = "both tuples are frames and no automorphism links them"
        else:
            raise ValueError("recheck supports spectral and strong-symmetry witnesses")
        _finish(
            {"property": prop, "witness_valid": valid, "detail": detail},
            out,
            0 if valid else 1,
        )
    except Exception as exc:  # noqa: BLE001
        _fail(str(exc), out)


if __name__ == "__main__":
    main()
