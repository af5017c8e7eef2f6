"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload has ``setup(seed, ctx)`` and ``run(inputs, seconds, ctx)``.
``run`` times every operation and checks every output against pinned
values or numerical bounds; a failed check marks its operation failed.

Every workload also times a host-speed reference next to each operation
(``reference.py``), by which ``run.py`` scales it.

Measured calls go through the ``jordan_spectra`` package namespace (``js``),
which the tracer wraps.  Checks call the functions imported by name below,
which stay unwrapped, so checking adds no spans to the trace.

``polytope-catalog`` does one pass per process, because a second pass in
the same process would hit the library's body caches; ``run.py`` repeats
it in fresh processes.  The other three repeat their operations on the
same inputs until ``seconds`` have passed.  Traced runs do a fixed amount
instead, so that traced counts repeat exactly.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import jordan_spectra as js
import reference
from jordan_spectra.algebra import EjaElement, inner, norm
from jordan_spectra.classification import default_converse_catalog
from jordan_spectra.geometry import body_to_dict
from jordan_spectra.scalars import format_scalar
from jordan_spectra.spectral import random_element, random_jordan_frame

FAMILIES = (("sym_r", 5), ("herm_c", 4), ("herm_h", 3), ("spin", 10), ("herm_o", 3))
RECON_TOL = 1e-8  # times (1 + |x|), the acceptance bound
ORTH_TOL = 1e-9


class Context:
    """What a workload needs from its surroundings: tracing and paths."""

    def __init__(self, trace: bool, root: str, src: str, tracer=None):
        self.trace = trace
        self.root = root
        self.src = src
        self.tracer = tracer
        self.extra = {}  # per-layer facts that spans cannot give

    def op(self, kind: str):
        """Open a benchmark span around one operation (no-op untraced)."""
        return self.tracer.open("bench.op", kind) if self.tracer else None

    def done(self, span):
        if span is not None:
            self.tracer.close(span)


class Outcome:
    def __init__(self):
        self.ops = []  # (label, input index, seconds) per timed operation
        self.passes = []  # seconds per full pass over the inputs
        self.reference = []  # per op, the host-speed reference timed next to it
        self.reference_s = None  # that reference's nominal seconds
        self.failures = []  # (op index, message)
        self.worst_residual = 0.0  # of the batteries' spectral decompositions
        self.detail = {}

    def fail(self, message: str):
        self.failures.append((len(self.ops), message))

    @property
    def failed_ops(self) -> int:
        return len({i for i, _ in self.failures})


# ---------------------------------------------------------------------------
# polytope-catalog


def _frames_by_k(counts):
    return {str(k): c for k, c in counts}


def expected_catalog() -> dict:
    """Verdict fingerprints, independent of the seeded transform.

    Simplices follow the acceptance oracles (group (n+1)!, rank n+1,
    P(n+1, k) ordered k-frames, 2^(n+1) exposed faces with the empty one);
    the other values are pinned from the library at the benchmark's
    introduction.  Bodies in ``PARTIAL`` skip frame enumeration.
    """
    out = {}
    for n in range(1, 5):
        out[f"simplex({n})"] = {
            "strongly_symmetric": True,
            "group_order": math.factorial(n + 1),
            "spectral": True,
            "rank": n + 1,
            "frames_by_k": {str(k): math.perm(n + 1, k) for k in range(1, n + 2)},
            "faces": 2 ** (n + 1),
            "recheck": None,
        }

    def refuted(order, frames, faces, ss=False):
        return {
            "strongly_symmetric": ss,
            "group_order": order,
            "spectral": False,
            "rank": 2,
            "frames_by_k": {"1": frames[0], "2": frames[1]},
            "faces": faces,
            "recheck": True,
        }

    out["square"] = refuted(8, (4, 12), 10)
    out["rectangle"] = refuted(8, (4, 12), 10)
    out["pentagon"] = {"group_order": 10, "faces": 12}
    out["hexagon"] = {"group_order": 12, "faces": 14}
    out["cube"] = {"group_order": 48, "faces": 28}
    out["octahedron"] = {"group_order": 48, "faces": 28}
    return out


# Frame enumeration (rank, frames, spectrality, recheck) of these bodies
# takes 4-25 s each on a 2-vCPU VM (cube 18-25 s, pentagon 10-19 s over
# Q(sqrt 5), hexagon and octahedron 4-6 s), too long to repeat within a run:
# run once, the catalog's pass time spread by a third from run to run on
# that host.  They still go through vertex validation, their automorphism
# group and their face lattice (the pentagon's over Q(sqrt 5)).
PARTIAL = ("pentagon", "hexagon", "cube", "octahedron")


def _transform(vertices, rng):
    """Shuffle the vertices and apply a signed coordinate permutation.

    Verdicts are invariant under both, while the LPs see new row and
    column orders.  The shuffle is never the identity order.
    """
    d = len(vertices[0])
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    moved = [tuple(signs[j] * v[perm[j]] for j in range(d)) for v in vertices]
    order = list(range(len(moved)))
    while order == sorted(order):
        rng.shuffle(order)
    return [moved[i] for i in order]


SIMPLEX_BATTERIES = tuple(f"battery.simplex{n}" for n in range(1, 5))


def catalog_setup(seed: int, ctx: Context, names=None):
    """Seeded images of the catalog, plus the simplex theorem batteries.

    ``names`` restricts both to the given labels (for the self-tests).
    """
    rng = random.Random(seed)
    bodies = []
    for name, body in default_converse_catalog():
        if names is None or name in names:
            bodies.append((name, _transform(list(body.vertices), rng)))
    batteries = [b for b in SIMPLEX_BATTERIES if names is None or b in names]
    return {"seed": seed, "bodies": bodies, "batteries": batteries}


def catalog_fingerprint(name, vertices, seed, steps) -> dict:
    """Certify one body; returns its fingerprint, timing each call in ``steps``."""

    def timed(label, fn, *args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        steps[label] = time.perf_counter() - t
        return out

    body = timed("polytope", js.polytope, vertices)
    if name in PARTIAL:
        group = timed("automorphism_group", js.automorphism_group, body, 12)
        faces = timed("exposed_faces", js.exposed_faces, body)
        return {"group_order": len(group), "faces": len(faces.faces)}
    report = timed("is_strongly_symmetric", js.is_strongly_symmetric, body, 12)
    verdict = timed("is_spectral", js.is_spectral, body, seed=seed)
    recheck = None
    if verdict.spectral is not True:
        recheck = timed(
            "recheck_counterexample",
            js.recheck_counterexample,
            body,
            verdict.counterexample,
        )
    faces = timed("exposed_faces", js.exposed_faces, body)
    return {
        "strongly_symmetric": report.strongly_symmetric,
        "group_order": report.group_order,
        "spectral": verdict.spectral,
        "rank": verdict.rank,
        "frames_by_k": _frames_by_k(verdict.frames_by_k),
        "faces": len(faces.faces),
        "recheck": recheck,
    }


def catalog_run(inputs, seconds, ctx: Context, expected=None) -> Outcome:
    """Certify every body, then run the simplex batteries; one pass.

    The simplex batteries (``verify_main_theorem_if_direction(n)``) solve
    feasible LPs on degenerate simplex charts, the mirror of the catalog's
    mostly infeasible ones.  They run here because the library caches their
    fixed bodies, so they repeat only in a fresh process.
    """
    expected = expected or expected_catalog()
    out = Outcome()
    out.reference_s = reference.FRACTION_S
    prints = {}
    steps_by_body = {}
    t_pass = time.perf_counter()
    for name, vertices in inputs["bodies"]:
        steps = {}
        ref = reference.fraction_elimination()
        span = ctx.op(name)
        t = time.perf_counter()
        try:
            got = catalog_fingerprint(name, vertices, inputs["seed"], steps)
        except Exception as exc:  # a crash is a failed operation, not a stop
            got = {"error": repr(exc)}
        dt = time.perf_counter() - t
        ctx.done(span)
        if got != expected[name]:
            out.fail(f"{name}: got {got}, expected {expected[name]}")
        out.ops.append((name, 0, dt))
        out.reference.append(ref)
        prints[name] = got
        steps_by_body[name] = {k: round(v, 6) for k, v in steps.items()}
    for label in inputs["batteries"]:
        n = int(label[len("battery.simplex"):])
        ref = reference.fraction_elimination()
        _timed_report(out, ctx, label, lambda: js.verify_main_theorem_if_direction(
            n, trials=100, seed=inputs["seed"]
        ))
        out.reference.append(ref)
    out.passes.append(time.perf_counter() - t_pass)
    ctx.extra["max_residual"] = out.worst_residual
    out.detail = {"fingerprints": prints, "steps_s": steps_by_body}
    return out


def _timed_report(out: Outcome, ctx: Context, label, call):
    """Time one battery-style call and check its report; returns the report."""
    span = ctx.op(label)
    t = time.perf_counter()
    try:
        report = call()
    except Exception as exc:
        report = {"error": repr(exc)}
    dt = time.perf_counter() - t
    ctx.done(span)
    if "samples" in report:
        ok = report.get("pass") is True and report["samples"] == SECTION_SAMPLES
    else:
        ok = report.get("all_pass") is True
    if not ok:
        out.fail(f"{label}: {json.dumps(report, default=str)[:300]}")
    for check in report.get("checks", ()):
        if check["name"] == "spectral_decomposition":
            out.worst_residual = max(out.worst_residual, check["residual"])
    out.ops.append((label, 0, dt))
    return report


# ---------------------------------------------------------------------------
# spectral-stream

POOL = 24  # elements per family and kind; decompositions keep no cache
TRACE_ROUNDS = 200


def spectral_setup(seed: int, ctx: Context):
    rng = np.random.default_rng(seed)
    pool = {}
    for fam, m in FAMILIES:
        alg = js.algebra(fam, m)
        r = alg.rank
        lam = [1.5] * (r - 1) + [-0.5]
        generic, degenerate = [], []
        for _ in range(POOL):
            generic.append(random_element(alg, rng))
            frame = random_jordan_frame(alg, rng)
            x = frame[0] * lam[0]
            for w, c in zip(lam[1:], frame[1:]):
                x = x + c * w
            degenerate.append(x)
        pool[fam] = {"generic": generic, "degenerate": degenerate, "lam": lam}
    return pool


def check_decomposition(dec, x: EjaElement, lam=None):
    """Residuals of one decomposition: (reconstruction, orthonormality, ok)."""
    recon = norm(dec.reconstruct() - x) / (1.0 + norm(x))
    frame = dec.frame
    orth = 0.0
    for i, ci in enumerate(frame):
        for j in range(i, len(frame)):
            orth = max(orth, abs(inner(ci, frame[j]) - (1.0 if i == j else 0.0)))
    ok = recon <= RECON_TOL and orth <= ORTH_TOL and len(frame) == x.algebra.rank
    if lam is not None:
        err = np.max(np.abs(np.asarray(dec.eigenvalues) - np.asarray(lam)))
        ok = ok and err <= RECON_TOL * (1.0 + norm(x))
    return recon, orth, ok


def spectral_run(pool, seconds, ctx: Context) -> Outcome:
    """Rounds of one decomposition per family and kind, until ``seconds``.

    A round (10 calls, 6-15 ms) is too short to time a reference next to
    each call; each call takes the mean of the references before and after
    its round.
    """
    out = Outcome()
    out.reference_s = reference.LINEAR_ALGEBRA_S
    worst = [0.0, 0.0]
    t_end = time.perf_counter() + seconds
    rnd = 0
    before = reference.linear_algebra()
    while (rnd < TRACE_ROUNDS) if ctx.trace else (rnd == 0 or time.perf_counter() < t_end):
        round_s = 0.0
        for fam, _ in FAMILIES:
            for kind in ("generic", "degenerate"):
                x = pool[fam][kind][rnd % POOL]
                span = ctx.op(kind)
                t = time.perf_counter()
                try:
                    dec = js.spectral_decompose(x)
                except Exception as exc:
                    dec, err = None, exc
                dt = time.perf_counter() - t
                ctx.done(span)
                round_s += dt
                if dec is None:
                    out.fail(f"{fam} {kind}: {err!r}")
                else:
                    lam = pool[fam]["lam"] if kind == "degenerate" else None
                    recon, orth, ok = check_decomposition(dec, x, lam)
                    worst = [max(worst[0], recon), max(worst[1], orth)]
                    if not ok:
                        out.fail(f"{fam} {kind}: residuals {recon:.3e} {orth:.3e}")
                out.ops.append((f"{fam}.{kind}", rnd % POOL, dt))
        after = reference.linear_algebra()
        out.reference.extend([(before + after) / 2] * (len(out.ops) - len(out.reference)))
        before = after
        out.passes.append(round_s)
        rnd += 1
    ctx.extra["max_residual"] = worst[0]
    out.detail = {"rounds": rnd, "max_reconstruction": worst[0], "max_orthonormality": worst[1]}
    return out


# ---------------------------------------------------------------------------
# theorem-battery

SECTION_FAMILIES = ("sym_r", "herm_c", "herm_o")
# A fifth of the sizes a user would run (trials=100, 10**4 samples): each
# operation then takes well under a second and repeats several times in a
# run, so its median repeat is steady on a noisy host (see run.py).  The
# per-sample loops are still thousands of tiny spectral calls.
BATTERY_TRIALS = 20
SECTION_SAMPLES = 2000


def battery_setup(seed: int, ctx: Context):
    return {"seed": seed}


def _battery_ops(seed):
    """(label, call) of one pass: nothing here keeps a cache between calls."""
    for fam, m in FAMILIES:
        yield f"{fam}{m}", lambda fam=fam, m=m: js.verify_main_theorem_if_direction(
            js.algebra(fam, m), trials=BATTERY_TRIALS, seed=seed
        )
    for fam in SECTION_FAMILIES:
        yield f"section.{fam}3", lambda fam=fam: js.section_sample_check(
            js.fr_section(js.algebra(fam, 3)), samples=SECTION_SAMPLES, seed=seed
        )
    yield "tables", js.table_consistency_check


def battery_run(inputs, seconds, ctx: Context) -> Outcome:
    """Passes over the battery until ``seconds`` (traced: one pass).

    Each operation takes the mean of the references before and after it.
    """
    out = Outcome()
    out.reference_s = reference.LINEAR_ALGEBRA_S
    t_end = time.perf_counter() + seconds
    before = reference.linear_algebra()
    while not out.passes or (not ctx.trace and time.perf_counter() < t_end):
        t_pass = time.perf_counter()
        for label, call in _battery_ops(inputs["seed"]):
            _timed_report(out, ctx, label, call)
            after = reference.linear_algebra()
            out.reference.append((before + after) / 2)
            before = after
        out.passes.append(time.perf_counter() - t_pass)
    ctx.extra["max_residual"] = out.worst_residual
    return out


# ---------------------------------------------------------------------------
# cli-cold

CLI_TRACE_ROUNDS = 2
CLI_TIMEOUT_S = 60
# Commands per host-speed reference (``reference.interpreter``, which costs
# half a command).  It uses less memory than any CLI child, so it never sets
# ``peak_rss_mb``.
REFERENCE_EVERY = 2


def _cli_commands():
    """(label, subcommand key, argv, expected exit code, content check)."""
    return (
        ("decompose-input", "decompose", ["decompose", "--input", "element.json"], 0,
         lambda d: d["residual"] <= RECON_TOL * 10),
        ("decompose-herm_o", "decompose",
         ["decompose", "--eja", "herm_o", "--m", "3", "--seed", "{seed}"], 0,
         lambda d: d["residual"] <= RECON_TOL * 10 and len(d["eigenvalues"]) == 3),
        ("check-spectral", "check", ["check", "square.json", "--property", "spectral"], 1,
         lambda d: d["spectral"] is False and d["counterexample"] and d["rank"] == 2),
        ("check-strong-symmetry", "check",
         ["check", "square.json", "--property", "strong-symmetry"], 1,
         lambda d: d["strongly_symmetric"] is False and d["witness_pair"]["k"] == 2),
        ("frames", "frames", ["frames", "square.json", "--k", "2"], 0,
         lambda d: d["count"] == 12 and d["rank"] == 2),
        ("fr-polytope", "fr-polytope", ["fr-polytope", "--eja", "herm_c", "--m", "3"], 0,
         lambda d: d["sample_check"]["pass"] is True and len(d["basis"]) == 3),
        ("tables", "tables", ["tables", "--type", "EIV"], 0,
         lambda d: d["row"]["type"] == "EIV"),
        ("verify-theorem", "verify-theorem", ["verify-theorem", "--simplex", "2"], 0,
         lambda d: d["all_pass"] is True),
        ("plot-data", "plot-data", ["plot-data", "square.json"], 0,
         lambda d: len(d["edges"]) == 4 and d["dim"] == 2),
        ("recheck", "recheck", ["recheck", "witness.json"], 0,
         lambda d: d["witness_valid"] is True),
    )


def cli_setup(seed: int, ctx: Context):
    rng = random.Random(seed)
    square = js.square()
    vertices = _transform(list(square.vertices), rng)
    body = js.polytope(vertices)
    workdir = os.path.join(ctx.root, ".perfbench", f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    alg = js.algebra("herm_c", 3)
    coeffs = np.random.default_rng(seed).standard_normal(alg.dim)
    verdict = js.is_spectral(body, seed=seed)
    files = {
        "square.json": body_to_dict(body),
        "element.json": {"algebra": alg.to_dict(), "coeffs": [float(c) for c in coeffs]},
        "witness.json": {
            "property": "spectral",
            "body": body_to_dict(body),
            "counterexample": [format_scalar(c) for c in verdict.counterexample],
        },
    }
    for name, doc in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return {"seed": seed, "workdir": workdir, "env": env}


def cli_teardown(inputs):
    for name in os.listdir(inputs["workdir"]):
        os.remove(os.path.join(inputs["workdir"], name))
    os.rmdir(inputs["workdir"])


def _spawn(argv, inputs):
    t = time.perf_counter()
    proc = subprocess.run(
        argv,
        cwd=inputs["workdir"],
        env=inputs["env"],
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - t, proc


def cli_run(inputs, seconds, ctx: Context) -> Outcome:
    out = Outcome()
    out.reference_s = reference.INTERPRETER_S
    cmds = _cli_commands()
    first = {}
    by_sub = {}
    t_end = time.perf_counter() + seconds
    rnd = 0
    try:
        while (rnd < CLI_TRACE_ROUNDS) if ctx.trace else (rnd == 0 or time.perf_counter() < t_end):
            round_s = 0.0
            for i, (label, sub, argv, code, content_ok) in enumerate(cmds):
                argv = [a.replace("{seed}", str(inputs["seed"])) for a in argv]
                if i % REFERENCE_EVERY == 0:
                    ref = reference.interpreter(cwd=inputs["workdir"], env=inputs["env"])
                dt, proc = _spawn([sys.executable, "-m", "jordan_spectra.cli", *argv], inputs)
                round_s += dt
                # parse before trusting the exit code: a crash also exits 1
                try:
                    doc = json.loads(proc.stdout)
                    ok = doc.get("schema_version") == 1 and "error" not in doc
                    ok = ok and bool(content_ok(doc))
                except (ValueError, KeyError, TypeError):
                    ok = False
                if proc.returncode != code:
                    ok = False
                if first.setdefault(label, proc.stdout) != proc.stdout:
                    ok = False
                if not ok:
                    out.fail(
                        f"{label}: exit {proc.returncode}, stdout {proc.stdout[:200]!r}, "
                        f"stderr {proc.stderr[-300:]!r}"
                    )
                out.ops.append((label, 0, dt))
                out.reference.append(ref)
                by_sub.setdefault(sub, []).append(dt)
            out.passes.append(round_s)
            rnd += 1
        if ctx.trace:
            bare = [_spawn([sys.executable, "-c", "pass"], inputs)[0] for _ in range(5)]
            imp = [
                _spawn([sys.executable, "-c", "import jordan_spectra.cli"], inputs)[0]
                for _ in range(5)
            ]
            ctx.extra["interpreter_s"] = statistics.median(bare)
            ctx.extra["import_s"] = statistics.median(imp) - statistics.median(bare)
    finally:
        cli_teardown(inputs)
    ctx.extra["cli_p50"] = {sub: statistics.median(v) for sub, v in by_sub.items()}
    out.detail = {"rounds": rnd}
    return out


# name -> (setup, run, teardown of set-up that is never run)
WORKLOADS = {
    "polytope-catalog": (catalog_setup, catalog_run, None),
    "spectral-stream": (spectral_setup, spectral_run, None),
    "theorem-battery": (battery_setup, battery_run, None),
    "cli-cold": (cli_setup, cli_run, cli_teardown),
}
