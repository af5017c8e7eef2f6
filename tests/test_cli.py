"""CLI contract: exit codes, witness round trips, determinism.

Exit code 0 means the property holds or the command succeeded, 1 means
the property was refuted (payload carries a witness that `recheck`
accepts), 2 means bad input.  A tampered witness must be rejected: a
point moved onto a frame-hull segment stops being a spectrality
counterexample, and an orbit pair inside one orbit stops witnessing
broken strong symmetry.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from jordan_spectra.cli import main
from jordan_spectra.geometry import pentagon, square
from jordan_spectra.symmetry import automorphism_group


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args))
    return result.exit_code, result.output


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_schema_version_everywhere(runner, tmp_path):
    path = write_json(tmp_path, "p.json", {"type": "named", "name": "pentagon"})
    for args in (
        ("check", "--property", "rank", path),
        ("frames", path, "--k", "2"),
        ("tables", "--type", "AI"),
        ("plot-data", path),
    ):
        code, outp = invoke(runner, *args)
        assert code == 0
        assert json.loads(outp)["schema_version"] == 1


def test_check_spectral_pentagon_refuted(runner, tmp_path):
    path = write_json(tmp_path, "p.json", {"type": "named", "name": "pentagon"})
    code, outp = invoke(runner, "check", "--property", "spectral", path)
    assert code == 1
    doc = json.loads(outp)
    assert doc["spectral"] is False
    assert doc["counterexample"] is not None
    assert doc["frames_by_k"]["2"] == 10


def test_check_spectral_eja_and_simplex(runner, tmp_path):
    code, outp = invoke(
        runner, "check", "--property", "spectral", "--eja", "sym_r", "--m", "3"
    )
    assert code == 0 and json.loads(outp)["spectral"] is True
    path = write_json(
        tmp_path, "s.json", {"type": "named", "name": "simplex", "n": 2}
    )
    code, outp = invoke(runner, "check", "--property", "spectral", path)
    assert code == 0


def test_spectral_witness_recheck_and_tamper(runner, tmp_path):
    path = write_json(tmp_path, "p.json", {"type": "named", "name": "pentagon"})
    code, outp = invoke(runner, "check", "--property", "spectral", path)
    assert code == 1
    wit = tmp_path / "wit.json"
    wit.write_text(outp)
    code, outp2 = invoke(runner, "recheck", str(wit))
    assert code == 0 and json.loads(outp2)["witness_valid"] is True

    # move the point onto the v0-v2 diagonal: no longer a counterexample
    doc = json.loads(outp)
    verts = pentagon().vertices
    mid = [(a + b) / 2 for a, b in zip(verts[0], verts[2])]
    from jordan_spectra.scalars import format_scalar

    doc["counterexample"] = [format_scalar(c) for c in mid]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, outp3 = invoke(runner, "recheck", str(bad))
    assert code == 1 and json.loads(outp3)["witness_valid"] is False


def test_strong_symmetry_witness_recheck_and_tamper(runner, tmp_path):
    path = write_json(tmp_path, "sq.json", {"type": "named", "name": "square"})
    code, outp = invoke(runner, "check", "--property", "strong-symmetry", path)
    assert code == 1
    doc = json.loads(outp)
    wit = tmp_path / "wit.json"
    wit.write_text(outp)
    code, outp2 = invoke(runner, "recheck", str(wit))
    assert code == 0 and json.loads(outp2)["witness_valid"] is True

    # replace the pair with two frames in the same orbit
    fa = tuple(doc["witness_pair"]["frames"][0])
    group = automorphism_group(square())
    moved = next(
        tuple(g.permutation[i] for i in fa)
        for g in group
        if tuple(g.permutation[i] for i in fa) != fa
    )
    doc["witness_pair"]["frames"] = [list(fa), list(moved)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, outp3 = invoke(runner, "recheck", str(bad))
    assert code == 1 and json.loads(outp3)["witness_valid"] is False


def test_strong_symmetry_witness_with_frame_size_zero_is_refused(runner, tmp_path):
    path = write_json(tmp_path, "sq.json", {"type": "named", "name": "square"})
    code, outp = invoke(runner, "check", "--property", "strong-symmetry", path)
    doc = json.loads(outp)
    doc["witness_pair"] = {"k": 0, "frames": [[], []]}
    bad = write_json(tmp_path, "k0.json", doc)
    code, outp2 = invoke(runner, "recheck", bad)
    assert code == 2
    assert "frame size must be >= 1" in json.loads(outp2)["error"]


def test_check_strong_symmetry_eja(runner):
    code, outp = invoke(
        runner,
        "check", "--property", "strong-symmetry",
        "--eja", "spin", "--n", "5", "--trials", "6", "--seed", "2",
    )
    assert code == 0
    assert json.loads(outp)["strongly_symmetric"] is True


def test_check_regular_and_rank(runner, tmp_path):
    path = write_json(tmp_path, "p.json", {"type": "named", "name": "pentagon"})
    code, outp = invoke(runner, "check", "--property", "regular", path)
    assert code == 0 and json.loads(outp)["regular"] is True
    code, outp = invoke(runner, "check", "--property", "rank", path)
    assert code == 0 and json.loads(outp)["rank"] == 2
    code, outp = invoke(
        runner, "check", "--property", "rank", "--eja", "herm_o", "--m", "3"
    )
    assert code == 0 and json.loads(outp)["rank"] == 3


def test_frames_counts(runner, tmp_path):
    sq = write_json(tmp_path, "sq.json", {"type": "named", "name": "square"})
    code, outp = invoke(runner, "frames", sq, "--k", "3")
    assert code == 0 and json.loads(outp)["count"] == 0
    code, outp = invoke(runner, "frames", sq)
    assert json.loads(outp)["frames_by_k"] == {"1": 4, "2": 12}


def test_frames_cap_is_honoured(runner, tmp_path):
    # --cap goes to rank and frame enumeration as given: the square's four
    # vertices exceed a cap of 3, which is a refusal, not an answer.
    sq = write_json(tmp_path, "sq.json", {"type": "named", "name": "square"})
    code, outp = invoke(runner, "frames", sq, "--k", "2", "--cap", "3")
    assert code == 2
    assert "cap 3" in json.loads(outp)["error"]


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("decompose", "--trials", "5"),
        ("decompose", "--cap", "5"),
        ("check", "--tol", "1e-9"),
        ("frames", "--seed", "1"),
        ("frames", "--trials", "5"),
        ("frames", "--tol", "1e-9"),
        ("fr-polytope", "--tol", "1e-9"),
        ("verify-theorem", "--tol", "1e-9"),
        ("verify-theorem", "--cap", "5"),
        ("plot-data", "--seed", "1"),
        ("plot-data", "--trials", "5"),
        ("plot-data", "--tol", "1e-9"),
    ],
)
def test_unread_option_is_a_usage_error(runner, tmp_path, command, option, value):
    # a command declares only the options it reads; any other is refused
    sq = write_json(tmp_path, "sq.json", {"type": "named", "name": "square"})
    result = runner.invoke(main, [command, sq, option, value])
    assert result.exit_code == 2
    assert "No such option" in result.output and option in result.output


def test_decompose_from_file(runner, tmp_path):
    doc = {
        "algebra": {"family": "sym_r", "m": 2},
        "coeffs": [0.7, 0.3, 0.0],
    }
    path = write_json(tmp_path, "x.json", doc)
    code, outp = invoke(runner, "decompose", "--input", path)
    assert code == 0
    got = json.loads(outp)
    assert got["eigenvalues"] == [0.7, 0.3]
    assert got["residual"] <= 1e-12


def test_decompose_non_finite_input_exits_2(runner, tmp_path):
    doc = {"algebra": {"family": "spin", "n": 2}, "coeffs": [float("nan"), 0.0, 1.0]}
    path = write_json(tmp_path, "x.json", doc)
    code, outp = invoke(runner, "decompose", "--input", path)
    assert code == 2

    def refuse(token):
        raise ValueError("non-JSON constant %s in output" % token)

    got = json.loads(outp, parse_constant=refuse)
    assert "non-finite" in got["error"]


def test_fr_polytope_command(runner, tmp_path):
    code, outp = invoke(runner, "fr-polytope", "--eja", "herm_c", "--m", "3")
    assert code == 0
    doc = json.loads(outp)
    assert doc["kind"] == "eja"
    assert len(doc["basis"]) == 3
    assert doc["sample_check"]["pass"] is True
    sq = write_json(tmp_path, "sq.json", {"type": "named", "name": "square"})
    code, outp = invoke(runner, "fr-polytope", sq)
    assert code == 2  # refused: not strongly symmetric spectral


def test_fr_polytope_spin_prints_json(runner):
    # the spin trace form returns a Python float, so the sample check's
    # verdict is a JSON boolean
    code, outp = invoke(runner, "fr-polytope", "--eja", "spin", "--n", "4")
    assert code == 0, outp
    doc = json.loads(outp)
    assert doc["kind"] == "eja"
    assert len(doc["basis"]) == 2
    assert doc["sample_check"]["pass"] is True


def test_tables_command(runner):
    code, outp = invoke(runner, "tables", "--type", "EIV")
    assert code == 0
    doc = json.loads(outp)
    assert doc["row"]["root_space"] == "A_2"
    assert doc["evaluated"]["isotropy_dim"] == 26
    code, outp = invoke(runner, "tables")
    doc = json.loads(outp)
    assert len(doc["rows"]) == 22
    assert doc["consistency"]["all_pass"] is True
    code, _ = invoke(runner, "tables", "--type", "NOPE")
    assert code == 2


def test_verify_theorem_command(runner):
    code, outp = invoke(
        runner,
        "verify-theorem", "--eja", "sym_r", "--m", "3", "--trials", "8", "--seed", "7",
    )
    assert code == 0 and json.loads(outp)["all_pass"] is True
    code, outp = invoke(runner, "verify-theorem", "--simplex", "2", "--trials", "4")
    assert code == 0
    code, outp = invoke(
        runner,
        "verify-theorem", "--eja", "herm_o", "--m", "3", "--trials", "4",
    )
    assert code == 0  # unsupported transporters do not fail the battery


def test_herm_o_defaults_to_size_3_everywhere(runner):
    code, outp = invoke(runner, "decompose", "--eja", "herm_o")
    assert code == 0, outp
    assert json.loads(outp)["algebra"] == {"family": "herm_o", "m": 3}
    code, outp = invoke(runner, "verify-theorem", "--eja", "herm_o", "--trials", "2")
    assert code == 0, outp


def test_plot_data(runner, tmp_path):
    sq = write_json(tmp_path, "sq.json", {"type": "named", "name": "square"})
    code, outp = invoke(runner, "plot-data", sq)
    doc = json.loads(outp)
    assert code == 0
    assert len(doc["vertices"]) == 4
    assert len(doc["edges"]) == 4
    ballpath = write_json(tmp_path, "b.json", {"type": "ball", "n": 2})
    code, outp = invoke(runner, "plot-data", ballpath)
    assert code == 0 and len(json.loads(outp)["equator"]) == 64
    code, outp = invoke(runner, "plot-data", "--eja", "spin", "--n", "4")
    assert code == 0 and json.loads(outp)["kind"] == "eja-section"


def test_bad_input_exits_2(runner, tmp_path):
    code, outp = invoke(runner, "check", "--property", "spectral", "/nope/missing.json")
    assert code == 2 and "error" in json.loads(outp)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, outp = invoke(runner, "check", "--property", "spectral", str(bad))
    assert code == 2
    code, outp = invoke(runner, "check", "--property", "regular", "--eja", "sym_r", "--m", "2")
    assert code == 2


def test_out_flag_mirrors_stdout(runner, tmp_path):
    target = tmp_path / "o.json"
    code, outp = invoke(
        runner, "tables", "--type", "AI", "--out", str(target)
    )
    assert code == 0
    assert target.read_text() == outp


def test_runner_determinism(runner):
    args = ("decompose", "--eja", "herm_h", "--m", "3", "--seed", "11")
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first == second


def test_subprocess_byte_identity(tmp_path, cli_env):
    path = write_json(tmp_path, "p.json", {"type": "named", "name": "pentagon"})
    cmd = [
        sys.executable, "-m", "jordan_spectra.cli",
        "check", "--property", "spectral", str(path), "--seed", "3",
    ]
    runs = [subprocess.run(cmd, capture_output=True, env=cli_env) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 1
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.strip().endswith(b"}")
