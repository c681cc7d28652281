"""Keep the shipped sample documents honest: every one must run clean."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from crmoser.cli import main
from crmoser.jets import JetMap

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
EXPECTED = pathlib.Path(__file__).resolve().parent / "expected"

# explicit_2_1: an explicit form whose u(H) basis has denominators 2, 2, 2, 1;
# explicit_2_1_mixed: on that form, a kernel vector mixing a denominator-2 basis matrix
# with a denominator-1 one, so its basis bytes pin the denominators
SURFACES = ("corollary2_2_1", "umbilic_q4", "theorem1_n3", "explicit_2_1", "explicit_2_1_mixed")
MAPS = (("corollary2_2_1", "map_scaled_mu2"),
        ("umbilic_q4", "map_linear_rotation"),
        ("umbilic_q4", "map_jet_rotation"),
        ("quadric_2_1", "map_jet_quadric"),
        # n = 4 with nonzero x and A: the top block of the S matrix is built
        ("theorem2_4_2", "map_scaled_4_2"))
# (expected file stem, argv with paths relative to the repository root, exit code)
GOLDEN = (
    *((f"{cmd}-{s}", [cmd, "--surface", f"samples/{s}.json"], 0)
      for s in SURFACES for cmd in ("check", "stabdim", "classify")),
    *((f"stabdim_basis-{s}", ["stabdim", "--surface", f"samples/{s}.json", "--basis"], 0)
      for s in SURFACES),
    # F = 0, so the kernel is the identity and the basis bytes are u(H) itself and rho:
    # a standard form, and the explicit form of explicit_2_1 (u(H) denominators 2, 2, 2, 1)
    *((f"stabdim_basis-{stem}", ["stabdim", "--surface", path, "--basis"], 0)
      for stem, path in (("quadric_2_1", "samples/quadric_2_1.json"),
                         ("quadric_explicit_2_1", "tests/fixtures/quadric_explicit_2_1.json"))),
    *((f"verify-{s}-{m}", ["verify", "--surface", f"samples/{s}.json",
                           "--map", f"samples/{m}.json"], 0) for s, m in MAPS),
    *((f"model-{s}", ["model", "--spec", f"samples/{s}.json"], 0)
      for s in ("model_theorem2_s0", "model_umbilic_n3", "model_theorem1_n3")),
    # the quadric jet perturbed at weight 4: not a sample, which must run clean
    ("verify-quadric_2_1-map_jet_quadric_perturbed",
     ["verify", "--surface", "samples/quadric_2_1.json",
      "--map", "tests/fixtures/map_jet_quadric_perturbed.json"], 3),
    # violates all three trace conditions, with complex residuals: not a sample, which must run clean
    ("check-non_normal_form", ["check", "--surface", "tests/fixtures/non_normal_form.json"], 3),
    ("census", ["census", "--n", "2,3", "--m", "0,1", "--samples", "200",
                "--seed", "20240604"], 0),
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_surface_samples_pass_all_surface_commands(capsys):
    for name, dim in (("corollary2_2_1.json", 3),
                      ("umbilic_q4.json", 4),
                      ("theorem1_n3.json", 5)):
        path = str(SAMPLES / name)
        code, report = run(capsys, "check", "--surface", path)
        assert code == 0 and report["passed"], name
        code, report = run(capsys, "stabdim", "--surface", path)
        assert code == 0 and report["dim"] == dim, name
        code, report = run(capsys, "classify", "--surface", path)
        assert code == 0 and report["gap_ok"], name


def test_map_samples_verify(capsys):
    code, report = run(capsys, "verify",
                       "--surface", str(SAMPLES / "corollary2_2_1.json"),
                       "--map", str(SAMPLES / "map_scaled_mu2.json"))
    assert code == 0 and report["verified"]
    code, report = run(capsys, "verify",
                       "--surface", str(SAMPLES / "umbilic_q4.json"),
                       "--map", str(SAMPLES / "map_linear_rotation.json"))
    assert code == 0 and report["verified"]


def test_model_sample_builds_and_checks(tmp_path, capsys):
    out = str(tmp_path / "surface.json")
    code, report = run(capsys, "model",
                       "--spec", str(SAMPLES / "model_theorem2_s0.json"),
                       "--surface-out", out)
    assert code == 0
    code, report = run(capsys, "classify", "--surface", out)
    assert code == 0 and report["case"] == "T2_CASE" and report["dim"] == 3


def test_jet_sample_verifies_and_round_trips(capsys):
    path = SAMPLES / "map_jet_rotation.json"
    code, report = run(capsys, "verify",
                       "--surface", str(SAMPLES / "umbilic_q4.json"),
                       "--map", str(path))
    assert code == 0 and report["verified"] and report["checked_weight"] == 9
    doc = json.loads(path.read_text())
    assert doc.pop("type") == "jet"
    assert JetMap.from_json(doc).to_json() == doc


@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[name for name, *_ in GOLDEN])
def test_sample_reports_match_golden_bytes(name, argv, code, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == code
    assert capsys.readouterr().out == (EXPECTED / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[name for name, *_ in GOLDEN])
def test_reports_do_not_depend_on_the_hash_seed(name, argv, code):
    """Each golden command in its own process under two hash seeds prints its golden bytes."""
    procs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        procs.append(subprocess.Popen([sys.executable, "-m", "crmoser.cli", *argv], cwd=ROOT,
                                      env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    (out0, err0), (out1, err1) = (p.communicate(timeout=300) for p in procs)
    assert [p.returncode for p in procs] == [code, code], (err0, err1)
    assert out0 == out1 == (EXPECTED / f"{name}.json").read_bytes()
