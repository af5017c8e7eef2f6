"""Per-layer metrics computed from the spans of a traced run.

Every traced run reports every name in ``PER_LAYER``; a layer that the
workload never reaches reports 0.  Counts and yields come from the
program's own calls and repeat exactly at a fixed seed; times do not.
"""

from __future__ import annotations

import math

FAMILY_NAMES = ("sym_r", "herm_c", "herm_h", "spin", "herm_o")
VERIFY_TARGETS = (
    "sym_r5", "herm_c4", "herm_h3", "spin10", "herm_o3",
    "simplex1", "simplex2", "simplex3", "simplex4",
)
CLI_SUBCOMMANDS = (
    "decompose", "check", "frames", "fr-polytope", "tables", "verify-theorem",
    "plot-data", "recheck",
)
SELF_TIMED = frozenset((
    "geometry.polytope",
    "geometry.exposed_faces",
    "operational.rank",
    "operational.is_spectral",
    "operational.recheck_counterexample",
    "operational.enumerate_frames",
    "symmetry.automorphism_group",
    "symmetry.is_strongly_symmetric",
    "classification.section_sample_check",
))
EXACTLA_FUNCTIONS = (
    "exactla.barycentric_coordinates",
    "exactla.affine_map_from_correspondence",
    "exactla.solve_any",
    "exactla.affine_rank",
)


def _per_layer():
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("exactlp.lp_feasible.calls", "count"),
        ("exactlp.lp_feasible.self_s", "s"),
        ("exactlp.lp_feasible.self_s.fraction", "s"),
        ("exactlp.lp_feasible.self_s.sqrt5", "s"),
        ("exactlp.feasible_ratio", "ratio"),
        ("exactlp.rows_mean", "rows"),
        ("exactlp.vars_mean", "vars"),
        ("exactla.calls", "count"),
        ("exactla.self_s", "s"),
        ("geometry.polytope.self_s", "s"),
        ("geometry.exposed_faces.self_s", "s"),
        ("geometry.exposed_faces.lps", "count"),
        ("geometry.face_yield", "ratio"),
        ("geometry.membership.calls", "count"),
        ("operational.rank.self_s", "s"),
        ("operational.frame_lps", "count"),
        ("operational.frame_yield", "ratio"),
        ("operational.is_spectral.self_s", "s"),
        ("operational.recheck_counterexample.self_s", "s"),
        ("operational.enumerate_frames.self_s", "s"),
        ("symmetry.automorphism_group.self_s", "s"),
        ("symmetry.aut_candidates", "count"),
        ("symmetry.aut_yield", "ratio"),
        ("symmetry.is_strongly_symmetric.self_s", "s"),
        ("symmetry.jordan_frame_transporter.calls", "count"),
        ("symmetry.jordan_frame_transporter.self_s", "s"),
        ("hypercomplex.oct_mat_mul.calls", "count"),
        ("hypercomplex.oct_mat_mul.self_s", "s"),
    ]
    for f in FAMILY_NAMES:
        out.append((f"algebra.jordan_product.calls.{f}", "count"))
        out.append((f"algebra.jordan_product.self_us.{f}", "us"))
    for f in FAMILY_NAMES:
        out.append((f"spectral.spectral_decompose.calls.{f}", "count"))
        out.append((f"spectral.spectral_decompose.self_us.{f}.generic", "us"))
        out.append((f"spectral.spectral_decompose.self_us.{f}.degenerate", "us"))
        out.append((f"spectral.products_per_decompose.{f}", "count"))
    out.append(("spectral.max_residual", "ratio"))
    for t in VERIFY_TARGETS:
        out.append((f"classification.verify_s.{t}", "s"))
    out.append(("classification.section_sample_check.self_s", "s"))
    out.append(("classification.table_consistency_check.s", "s"))
    out.append(("cli.interpreter_s", "s"))
    out.append(("cli.import_s", "s"))
    for sub in CLI_SUBCOMMANDS:
        out.append((f"cli.{sub}.p50_s", "s"))
    return tuple(out)


def better(name: str) -> str:
    """Yields and the feasible share rise when less work is wasted."""
    return "higher" if name.endswith(("_yield", "feasible_ratio")) else "lower"


PER_LAYER = _per_layer()


# -- hooks: read the arguments and result of a call, after its span closed --


def _lp_hook(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    sqrt5 = any(
        type(c).__name__ == "Sqrt5"
        for row, _, rhs in lp.constraints
        for c in (*row, rhs)
    )
    return {
        "field": "sqrt5" if sqrt5 else "fraction",
        "rows": len(lp.constraints),
        "vars": lp.n_vars,
        "feasible": type(result).__name__ == "Feasible",
    }


def _aut_hook(args, kwargs, result):
    poly = args[0] if args else kwargs["poly"]
    d = result[0].chart.dim
    return {"candidates": math.perm(len(poly.vertices), d + 1), "order": len(result)}


def _family_hook(args, kwargs, result):
    x = args[0] if args else next(iter(kwargs.values()))
    return {"family": x.algebra.family}


def _verify_hook(args, kwargs, result):
    return {"target": result["target"].replace("(", "").replace(")", "")}


HOOKS = {
    "exactlp.lp_feasible": _lp_hook,
    "symmetry.automorphism_group": _aut_hook,
    "algebra.jordan_product": _family_hook,
    "spectral.spectral_decompose": _family_hook,
    "classification.verify_main_theorem_if_direction": _verify_hook,
}


def _ratio(num, den):
    return num / den if den else 0.0


def compute(tracer, extra) -> dict:
    """All PER_LAYER values from the recorded spans plus workload facts."""
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    n = tracer.count
    st = tracer.self_times()
    dur = tracer.durations()
    kids = tracer.has_children()
    attrs = tracer.attrs
    names = [tracer.name_of(i) for i in range(n)]

    def nearest(i, name):
        for a in tracer.ancestors(i):
            if names[a] == name:
                return a
        return None

    lp = {"calls": 0, "self": 0.0, "feasible": 0, "rows": 0, "vars": 0}
    faces_lp = faces_ok = frame_lp = frame_ok = 0
    aut_cand = aut_order = 0
    jp_calls = {f: 0 for f in FAMILY_NAMES}
    jp_self = {f: 0.0 for f in FAMILY_NAMES}
    dec_calls = {f: 0 for f in FAMILY_NAMES}
    dec_self = {(f, k): [0.0, 0] for f in FAMILY_NAMES for k in ("generic", "degenerate")}
    dec_products = {f: 0 for f in FAMILY_NAMES}
    exla_calls = 0
    exla_self = 0.0

    for i in range(n):
        name = names[i]
        a = attrs.get(i)
        if name in HOOKS and a is None:
            continue  # the call raised, so its hook never ran
        if name == "exactlp.lp_feasible":
            lp["calls"] += 1
            lp["self"] += st[i]
            lp["feasible"] += a["feasible"]
            lp["rows"] += a["rows"]
            lp["vars"] += a["vars"]
            values[f"exactlp.lp_feasible.self_s.{a['field']}"] += st[i]
            if nearest(i, "geometry.exposed_faces") is not None:
                faces_lp += 1
                faces_ok += a["feasible"]
            if tracer.via_of(i) == "operational":
                frame_lp += 1
                frame_ok += a["feasible"]
        elif name in EXACTLA_FUNCTIONS:
            exla_calls += 1
            exla_self += st[i]
        elif name == "symmetry.automorphism_group":
            if kids[i]:  # a cache miss does the work; a hit has no children
                aut_cand += a["candidates"]
                aut_order += a["order"]
        elif name == "algebra.jordan_product":
            fam = a["family"]
            jp_calls[fam] += 1
            jp_self[fam] += st[i]
            d = nearest(i, "spectral.spectral_decompose")
            if d is not None and d in attrs:
                dec_products[attrs[d]["family"]] += 1
        elif name == "spectral.spectral_decompose":
            fam = a["family"]
            dec_calls[fam] += 1
            p = tracer.parent[i]
            degenerate = p >= 0 and names[p] == "bench.op" and tracer.via_of(p) == "degenerate"
            kind = "degenerate" if degenerate else "generic"
            acc = dec_self[(fam, kind)]
            acc[0] += st[i]
            acc[1] += 1
        elif name == "classification.verify_main_theorem_if_direction":
            key = f"classification.verify_s.{a['target']}"
            if key in values:
                values[key] += dur[i]
        elif name == "classification.table_consistency_check":
            values["classification.table_consistency_check.s"] += dur[i]
        elif name == "geometry.membership":
            values["geometry.membership.calls"] += 1
        elif name == "symmetry.jordan_frame_transporter":
            values["symmetry.jordan_frame_transporter.calls"] += 1
            values["symmetry.jordan_frame_transporter.self_s"] += st[i]
        elif name == "hypercomplex.oct_mat_mul":
            values["hypercomplex.oct_mat_mul.calls"] += 1
            values["hypercomplex.oct_mat_mul.self_s"] += st[i]
        if name in SELF_TIMED:
            values[f"{name}.self_s"] += st[i]

    values["exactlp.lp_feasible.calls"] = lp["calls"]
    values["exactlp.lp_feasible.self_s"] = lp["self"]
    values["exactlp.feasible_ratio"] = _ratio(lp["feasible"], lp["calls"])
    values["exactlp.rows_mean"] = _ratio(lp["rows"], lp["calls"])
    values["exactlp.vars_mean"] = _ratio(lp["vars"], lp["calls"])
    values["exactla.calls"] = exla_calls
    values["exactla.self_s"] = exla_self
    values["geometry.exposed_faces.lps"] = faces_lp
    values["geometry.face_yield"] = _ratio(faces_ok, faces_lp)
    values["operational.frame_lps"] = frame_lp
    values["operational.frame_yield"] = _ratio(frame_ok, frame_lp)
    values["symmetry.aut_candidates"] = aut_cand
    values["symmetry.aut_yield"] = _ratio(aut_order, aut_cand)
    for f in FAMILY_NAMES:
        values[f"algebra.jordan_product.calls.{f}"] = jp_calls[f]
        values[f"algebra.jordan_product.self_us.{f}"] = 1e6 * _ratio(jp_self[f], jp_calls[f])
        values[f"spectral.spectral_decompose.calls.{f}"] = dec_calls[f]
        values[f"spectral.products_per_decompose.{f}"] = _ratio(dec_products[f], dec_calls[f])
        for kind in ("generic", "degenerate"):
            s, c = dec_self[(f, kind)]
            values[f"spectral.spectral_decompose.self_us.{f}.{kind}"] = 1e6 * _ratio(s, c)
    values["spectral.max_residual"] = extra.get("max_residual", 0.0)
    values["cli.interpreter_s"] = extra.get("interpreter_s", 0.0)
    values["cli.import_s"] = extra.get("import_s", 0.0)
    for sub, p50 in extra.get("cli_p50", {}).items():
        values[f"cli.{sub}.p50_s"] = p50
    return values
