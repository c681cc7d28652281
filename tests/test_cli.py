import json
import pathlib
import time

from crmoser.cli import main
from crmoser.forms import MAX_N, HermitianForm
from crmoser.poly import Poly

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_pass_and_fail(tmp_path, capsys):
    good = write(tmp_path, "good.json",
                 {"n": 2, "m": 1, "kind": "antidiagonal", "F": "|z2|^4"})
    code, report = run(capsys, "check", "--surface", good)
    assert code == 0 and report["passed"] is True
    assert report["schema"] == "cr-moser-report/1"
    assert report["inputs"][0]["sha256"]
    from crmoser import __version__
    assert report["library_version"] == __version__
    bad = write(tmp_path, "bad.json",
                {"n": 2, "m": 0, "kind": "diagonal", "F": "Q^2"})
    code, report = run(capsys, "check", "--surface", bad)
    assert code == 3 and report["passed"] is False
    assert report["violations"][0]["condition"] == "trF22"


def test_stabdim(tmp_path, capsys):
    surf = write(tmp_path, "q4.json",
                 {"n": 2, "m": 0, "kind": "diagonal", "F": "Q^4"})
    code, report = run(capsys, "stabdim", "--surface", surf)
    assert code == 0 and report["dim"] == 4 and report["spherical"] is False


def test_classify(tmp_path, capsys):
    surf = write(tmp_path, "c2.json",
                 {"n": 2, "m": 1, "kind": "antidiagonal", "F": "|z2|^4"})
    code, report = run(capsys, "classify", "--surface", surf)
    assert code == 0
    assert report["case"] == "T2_CASE" and report["dim"] == 3
    assert report["gap_ok"] is True


def test_verify_linear_and_scaled(tmp_path, capsys):
    surf = write(tmp_path, "c2.json",
                 {"n": 2, "m": 1, "kind": "antidiagonal", "F": "|z2|^4"})
    linear = write(tmp_path, "lin.json", {
        "type": "linear",
        "U": [[{"re": "2", "im": "0"}, {"re": "0", "im": "0"}],
              [{"re": "0", "im": "0"}, {"re": "1/2", "im": "0"}]],
        "lambda": "4", "sigma": 1,
    })
    code, report = run(capsys, "verify", "--surface", surf, "--map", linear)
    assert code == 0 and report["verified"] is True
    scaled = write(tmp_path, "scaled.json", {
        "type": "scaled", "s": "-1/2",
        "element": {"n": 2, "m": 1, "mu": {"re": "2", "im": "0"},
                    "c": {"re": "0", "im": "0"}, "x": [], "A": []},
    })
    code, report = run(capsys, "verify", "--surface", surf, "--map", scaled)
    assert code == 0 and report["verified"] is True
    # a genuinely non-invariant linear map must exit 3
    wrong = write(tmp_path, "wrong.json", {
        "type": "linear",
        "U": [[{"re": "0", "im": "0"}, {"re": "1", "im": "0"}],
              [{"re": "1", "im": "0"}, {"re": "0", "im": "0"}]],
        "lambda": "1", "sigma": 1,
    })
    code, report = run(capsys, "verify", "--surface", surf, "--map", wrong)
    assert code == 3 and report["verified"] is False


def test_verify_jet(tmp_path, capsys):
    surf = write(tmp_path, "sph.json",
                 {"n": 2, "m": 0, "kind": "diagonal", "terms": [],
                  "maxWeight": 8})
    jet = write(tmp_path, "jet.json", {
        "type": "jet", "D": 6,
        "f": [[{"z": [1, 0], "w": 0, "re": "1", "im": "0"}],
              [{"z": [0, 1], "w": 0, "re": "1", "im": "0"}]],
        "g": [{"z": [0, 0], "w": 1, "re": "1", "im": "0"}],
    })
    code, report = run(capsys, "verify", "--surface", surf, "--map", jet)
    assert code == 0 and report["verified"] is True
    assert report["checked_weight"] == 5


def test_verify_jet_with_singular_linear_part_fails(tmp_path, capsys):
    # both jets preserve the defining equation but are no local biholomorphism
    zero = write(tmp_path, "zero.json", {"type": "jet", "D": 6, "f": [[], []], "g": []})
    code, report = run(capsys, "verify", "--surface", str(SAMPLES / "umbilic_q4.json"),
                       "--map", zero)
    assert code == 3 and report["verified"] is False
    quadric = write(tmp_path, "quadric.json",
                    {"n": 2, "m": 1, "kind": "antidiagonal", "terms": [], "maxWeight": 6})
    z1 = write(tmp_path, "z1.json", {"type": "jet", "D": 6, "g": [],
                                     "f": [[{"z": [1, 0], "w": 0, "re": "1"}], []]})
    code, report = run(capsys, "verify", "--surface", quadric, "--map", z1)
    assert code == 3 and report["verified"] is False


def test_verify_jet_rejects_a_negative_weight(tmp_path, capsys):
    # f = (2 z1, z2), g = w is no automorphism of v = <z,z> + Q^4
    jet = write(tmp_path, "jet.json", {
        "type": "jet", "D": 6,
        "f": [[{"z": [1, 0], "w": 0, "re": "2", "im": "0"}],
              [{"z": [0, 1], "w": 0, "re": "1", "im": "0"}]],
        "g": [{"z": [0, 0], "w": 1, "re": "1", "im": "0"}],
    })
    surf = str(SAMPLES / "umbilic_q4.json")
    code, report = run(capsys, "verify", "--surface", surf, "--map", jet, "--max-weight", "-3")
    assert code == 2 and "non-negative" in report["error"]
    code, report = run(capsys, "verify", "--surface", surf, "--map", jet, "--max-weight", "2")
    assert code == 3 and report["verified"] is False


def test_verify_jet_checks_each_weight_up_to_the_cap(tmp_path, capsys):
    # The residual Im g - <f,f> - F is checked through --max-weight.  The jets
    # fix the origin, so weight 0 holds no term; weight 1 sees the linear part
    # of Im g; <f,f> and the quadric part of Im g enter at weight 2.
    surf = str(SAMPLES / "umbilic_q4.json")
    z_terms = [[{"z": [1, 0], "w": 0, "re": "1"}], [{"z": [0, 1], "w": 0, "re": "1"}]]
    g_plus_z1 = write(tmp_path, "g_plus_z1.json", {  # f = z, g = w + z1
        "type": "jet", "D": 6, "f": z_terms,
        "g": [{"z": [0, 0], "w": 1, "re": "1"}, {"z": [1, 0], "w": 0, "re": "1"}]})
    stretch = write(tmp_path, "stretch.json", {  # f = (2 z1, z2), g = w
        "type": "jet", "D": 6, "f": [[{"z": [1, 0], "w": 0, "re": "2"}], z_terms[1]],
        "g": [{"z": [0, 0], "w": 1, "re": "1"}]})
    for jet, passing in ((g_plus_z1, {0}), (stretch, {0, 1})):
        for weight in (0, 1, 2):
            code, report = run(capsys, "verify", "--surface", surf, "--map", jet,
                               "--max-weight", str(weight))
            assert report["checked_weight"] == weight
            assert report["verified"] is (weight in passing), (jet, weight)
            assert code == (0 if weight in passing else 3)


def test_model_command(tmp_path, capsys):
    spec = write(tmp_path, "model.json",
                 {"family": "theorem2", "n": 2, "m": 1, "s": "0",
                  "coeffs": [{"r": 1, "p": 2, "q": 0, "c": "1"}]})
    out_path = str(tmp_path / "surf.json")
    code, report = run(capsys, "model", "--spec", spec, "--surface-out", out_path)
    assert code == 0
    surface_doc = json.loads((tmp_path / "surf.json").read_text())
    assert surface_doc["kind"] == "antidiagonal"
    code, report = run(capsys, "check", "--surface", out_path)
    assert code == 0 and report["passed"]
    code, report = run(capsys, "stabdim", "--surface", out_path)
    assert report["dim"] == 3


def test_model_bad_family(tmp_path, capsys):
    spec = write(tmp_path, "model.json", {"family": "nope", "n": 2})
    code, _report = run(capsys, "model", "--spec", spec)
    assert code == 2


def test_model_rejects_a_repeated_coefficient_key(tmp_path, capsys):
    # an absent exponent reads as 0, so both items carry the key (r, p, q) = (0, 0, 4)
    spec = write(tmp_path, "model.json",
                 {"family": "umbilic", "n": 2, "m": 0,
                  "coeffs": [{"q": 4, "c": "1"}, {"r": 0, "q": 4, "c": "-1"}]})
    code, report = run(capsys, "model", "--spec", spec)
    assert code == 2 and "repeated coefficient key (r=0, p=0, q=4)" in report["error"]


def test_census_command(tmp_path, capsys):
    code, report = run(capsys, "census", "--n", "2", "--m", "1",
                       "--samples", "10", "--seed", "7")
    assert code == 0
    assert report["gap_violations"] == 0
    assert report["pairs"][0]["samples"] == 10


def test_census_rejects_weight_below_every_surface(capsys):
    code, report = run(capsys, "census", "--n", "2,3", "--m", "0,1", "--max-weight", "3")
    assert code == 2
    assert report["command"] == "census" and "max weight 3" in report["error"]
    code, report = run(capsys, "census", "--n", "2", "--m", "0", "--max-weight", "4",
                       "--samples", "3", "--seed", "1")
    assert code == 0 and report["pairs"][0]["samples"] == 3


def test_census_rejects_an_empty_sample(capsys):
    for samples in ("0", "-5"):
        code, report = run(capsys, "census", "--n", "2", "--m", "0", "--samples", samples)
        assert code == 2 and "at least one sample" in report["error"]


def test_exit_codes(tmp_path, capsys):
    # usage
    assert main([]) == 1
    capsys.readouterr()
    assert main(["check"]) == 1
    capsys.readouterr()
    # parse
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, report = run(capsys, "check", "--surface", str(broken))
    assert code == 2 and "error" in report
    bad_surface = write(tmp_path, "bad.json",
                        {"n": 2, "m": 0, "kind": "diagonal", "F": "z1 ~z1"})
    code, report = run(capsys, "check", "--surface", str(bad_surface))
    assert code == 2



def test_negative_max_weight_is_a_json_report(tmp_path, capsys):
    surf = write(tmp_path, "neg.json", {"n": 2, "m": 0, "kind": "diagonal", "terms": [],
                                        "maxWeight": -3})
    for command in ("check", "classify", "stabdim"):
        code, report = run(capsys, command, "--surface", surf)
        assert code == 2 and report["command"] == command, (command, report)
        assert "maxWeight must be non-negative, got -3" in report["error"]
    zero = write(tmp_path, "zero.json", {"n": 2, "m": 0, "kind": "diagonal", "terms": [],
                                         "maxWeight": 0})
    code, report = run(capsys, "check", "--surface", zero)
    assert code == 0 and report["passed"] is True


def test_non_ascii_digits_exit_2_with_a_json_report(tmp_path, capsys):
    for text in ("\u0663 Q^4", "z\u0661^2 ~z1^2"):
        surf = write(tmp_path, "digits.json", {"n": 2, "m": 0, "kind": "diagonal", "F": text})
        code, report = run(capsys, "check", "--surface", surf)
        assert code == 2 and "unexpected character" in report["error"], report


def test_a_form_past_the_largest_dimension_is_a_json_report(tmp_path, capsys):
    """A few bytes that state n = 10^6 ask for 10^12 matrix entries: refused before any."""
    n = 10 ** 6
    error = f"n = {n} exceeds the largest supported dimension {MAX_N}"
    standard = write(tmp_path, "standard.json", {"n": n, "m": 0, "kind": "diagonal", "F": "Q^4"})
    explicit = write(tmp_path, "explicit.json", {"n": n, "m": 0, "kind": "explicit", "F": "Q^4",
                                                 "matrix": [[{"re": "1", "im": "0"}]]})
    spec = write(tmp_path, "model.json", {"family": "umbilic", "n": n, "m": 0,
                                          "coeffs": [{"r": 0, "p": 0, "q": 4, "c": "1"}]})
    for argv in (["check", "--surface", standard], ["stabdim", "--surface", explicit],
                 ["model", "--spec", spec], ["census", "--n", str(n), "--m", "0"]):
        start = time.perf_counter()
        code, report = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and report["error"].endswith(error), argv


def test_a_power_of_the_form_past_the_limit_is_a_json_report(tmp_path, monkeypatch, capsys):
    """57 bytes that ask for <z,z>^30 at n = 8, C(37, 7) terms: refused before any product.

    At n = 1 and 2 each power is small, but the memo of the powers 0..k would
    keep C(k+e, e) terms in all: refused before any product too.
    """
    def no_product(self, other, max_weight=None):
        raise AssertionError("a power of <z,z> was multiplied out")

    monkeypatch.setattr(Poly, "mul", no_product)
    spec = write(tmp_path, "model.json", {"family": "umbilic", "n": 8, "m": 0,
                                          "coeffs": [{"r": 0, "p": 0, "q": 30, "c": "1"}]})
    line = write(tmp_path, "line.json", {"n": 1, "m": 0, "kind": "diagonal", "F": "Q^250000"})
    power = "<z,z>^30 has 10295472 terms, more than the limit of 100000"
    chain = "the powers <z,z>^0..<z,z>^{} hold {} terms in all, more than the memo limit of 250000"
    for argv, error in ((["check", "--surface", str(FIXTURES / "power_limit_q30.json")], power),
                        (["model", "--spec", spec], power),
                        (["check", "--surface", line], chain.format(250000, 250001)),
                        (["check", "--surface", str(FIXTURES / "power_chain_n2_q1000.json")],
                         chain.format(1000, 501501))):
        code, report = run(capsys, *argv)
        assert code == 2, argv
        assert report["error"] == error


def test_a_thin_part_fails_the_function_test_before_its_power_is_built(monkeypatch, capsys):
    """F = |z1|^60 at n = 8 is one term, so it is no multiple of <z,z>^30 and none is built."""
    inner_power = HermitianForm.inner_power

    def bounded(self, k):
        if k > 13:
            raise AssertionError(f"<z,z>^{k} was built")
        return inner_power(self, k)

    monkeypatch.setattr(HermitianForm, "inner_power", bounded)
    code, report = run(capsys, "classify", "--surface", str(FIXTURES / "function_test_z1_60.json"))
    assert code == 0 and report["function_of_form_and_u"] is False


def test_output_flag_writes_report(tmp_path, capsys):
    surf = write(tmp_path, "q4.json",
                 {"n": 2, "m": 0, "kind": "diagonal", "F": "Q^4"})
    out = tmp_path / "report.json"
    code, report = run(capsys, "check", "--surface", surf, "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == report


def test_deeply_nested_document_is_a_json_report(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, report = run(capsys, "check", "--surface", str(path))
    assert code == 2 and "nested too deeply" in report["error"]


def test_output_into_a_missing_directory_is_a_json_report(tmp_path, capsys):
    """The report file is written before stdout, so stdout holds the error report alone."""
    out = tmp_path / "missing" / "report.json"
    code, report = run(capsys, "check", "--surface", str(SAMPLES / "umbilic_q4.json"),
                       "--output", str(out))
    assert code == 2 and report["error"].startswith(f"cannot write {out}")
    assert not out.exists()


def test_surface_out_into_a_missing_directory_is_a_json_report(tmp_path, capsys):
    out = tmp_path / "missing" / "surface.json"
    code, report = run(capsys, "model", "--spec", str(SAMPLES / "model_umbilic_n3.json"),
                       "--surface-out", str(out))
    assert code == 2 and report["error"].startswith(f"cannot write {out}")


def test_document_shape_errors_are_json_reports(tmp_path, capsys):
    surf = write(tmp_path, "q4.json",
                 {"n": 2, "m": 0, "kind": "diagonal", "F": "Q^4"})
    not_object = write(tmp_path, "list.json", [1, 2])
    code, report = run(capsys, "check", "--surface", not_object)
    assert code == 2 and "JSON object" in report["error"]
    f_not_list = write(tmp_path, "f.json", {"type": "jet", "D": 4, "f": 5, "g": []})
    code, report = run(capsys, "verify", "--surface", surf, "--map", f_not_list)
    assert code == 2 and report["command"] == "verify" and "'f'" in report["error"]
    term_not_object = write(tmp_path, "g.json", {"type": "jet", "D": 4, "f": [[], []],
                                                 "g": [7]})
    code, report = run(capsys, "verify", "--surface", surf, "--map", term_not_object)
    assert code == 2 and "JSON object" in report["error"]
    # a negative m on an antidiagonal form is refused before any row is built
    negative_m = write(tmp_path, "neg.json", {"n": 2, "m": -1, "kind": "antidiagonal",
                                              "F": "|z2|^4", "maxWeight": 10})
    for command in ("check", "classify", "stabdim"):
        code, report = run(capsys, command, "--surface", negative_m)
        assert code == 2 and "0 <= m" in report["error"], (command, report)
    code, report = run(capsys, "verify", "--surface", negative_m,
                       "--map", str(SAMPLES / "map_jet_rotation.json"))
    assert code == 2 and "0 <= m" in report["error"]
    spec = write(tmp_path, "spec.json", {"family": "umbilic", "n": 2, "m": -1})
    code, report = run(capsys, "model", "--spec", spec)
    assert code == 2 and "0 <= m" in report["error"]


def test_null_integer_fields_are_json_reports(tmp_path, capsys):
    surf = write(tmp_path, "q4.json",
                 {"n": 2, "m": 0, "kind": "diagonal", "F": "Q^4"})
    identity = [[{"re": "1"}, {"re": "0"}], [{"re": "0"}, {"re": "1"}]]
    maps = {
        "jet field 'D'": {"type": "jet", "D": None, "f": [], "g": []},
        "term field 'z'": {"type": "jet", "D": 4, "g": [],
                           "f": [[{"z": [None, 2], "w": 0, "re": "1"}], []]},
        "term field 'w'": {"type": "jet", "D": 4, "g": [],
                           "f": [[{"z": [1, 0], "w": None, "re": "1"}], []]},
        "map field 'sigma'": {"type": "linear", "U": identity, "sigma": None},
        "element field 'm'": {"type": "scaled", "s": "0",
                              "element": {"n": 2, "m": None, "mu": {"re": "1"}}},
        "a matrix": {"type": "linear", "U": None},
        "a Gaussian rational": {"type": "linear", "U": [[1, 0], [0, 1]]},
        "an S element": {"type": "scaled", "s": "0", "element": [2, 1]},
        "'x' is a list": {"type": "scaled", "s": "0",
                          "element": {"n": 2, "m": 1, "mu": {"re": "1"}, "x": None}},
        "got None": {"type": "scaled", "s": "0", "element": {"n": 2, "m": 1, "mu": None}},
    }
    for field, doc in maps.items():
        code, report = run(capsys, "verify", "--surface", surf,
                           "--map", write(tmp_path, "map.json", doc))
        assert code == 2 and field in report["error"], (field, report)
    surfaces = {
        "term field 'zbar'": {"n": 2, "m": 0, "terms": [
            {"z": [2, 0], "zbar": [2, None], "re": "1"}]},
        "term field 'u'": {"n": 2, "m": 0, "terms": [
            {"z": [2, 0], "zbar": [2, 0], "u": None, "re": "1"}]},
        "form field 'n'": {"n": None, "m": 0, "F": "Q^4"},
        "form field 'm'": {"n": 2, "m": None, "F": "Q^4"},
        "'maxWeight'": {"n": 2, "m": 0, "F": "Q^4", "maxWeight": True},
    }
    for field, doc in surfaces.items():
        code, report = run(capsys, "check",
                           "--surface", write(tmp_path, "surface.json", doc))
        assert code == 2 and field in report["error"], (field, report)
    models = {
        "model field 'n'": {"family": "umbilic", "n": None},
        "model field 'm'": {"family": "theorem2", "n": 2, "m": None, "s": "0"},
        "model field 'sign'": {"family": "corollary2", "n": 2, "m": 1, "sign": None},
        "coefficient field 'r'": {"family": "theorem1", "n": 3,
                                  "coeffs": [{"r": None, "p": 2, "q": 0, "c": "1"}]},
        "must be an integer, got 1.5": {"family": "umbilic", "n": 1.5},
        "a term list": {"family": "theorem1", "n": 3, "coeffs": None},
    }
    for field, doc in models.items():
        code, report = run(capsys, "model", "--spec", write(tmp_path, "spec.json", doc))
        assert code == 2 and field in report["error"], (field, report)


def test_jet_term_errors_name_the_w_field(tmp_path, capsys):
    surf = write(tmp_path, "q4.json",
                 {"n": 2, "m": 0, "kind": "diagonal", "F": "Q^4"})
    for bad in (None, 1.5, "x"):
        jet = write(tmp_path, "jet.json", {"type": "jet", "D": 4, "f": [[], []],
                                           "g": [{"z": [1, 0], "w": bad, "re": "1"}]})
        code, report = run(capsys, "verify", "--surface", surf, "--map", jet)
        assert code == 2 and "term field 'w'" in report["error"], report
        assert "'u'" not in report["error"]
    # a jet term has no u slot of its own: a stray 'u' key is ignored
    jet = write(tmp_path, "jet.json", {"type": "jet", "D": 4,
                                       "f": [[{"z": [1, 0], "re": "1"}],
                                             [{"z": [0, 1], "re": "1"}]],
                                       "g": [{"w": "1", "u": None, "re": "1"}]})
    code, report = run(capsys, "verify", "--surface", surf, "--map", jet)
    assert code == 0 and report["verified"]


def test_a_jet_term_with_a_conj_z_exponent_is_refused(tmp_path, capsys):
    # f and g are holomorphic: a 'zbar' exponent is refused, not dropped to verify w -> w
    surf = write(tmp_path, "z1.json", {"n": 2, "m": 0, "kind": "diagonal", "F": "|z1|^4"})
    zbar = str(FIXTURES / "map_jet_zbar.json")
    code, report = run(capsys, "verify", "--surface", surf, "--map", zbar)
    assert code == 2 and "conj(z)" in report["error"] and "verified" not in report
    # an all-zero 'zbar' is no conj(z) term
    doc = json.loads(pathlib.Path(zbar).read_text())
    doc["g"][0]["zbar"] = [0, 0]
    holomorphic = write(tmp_path, "g.json", doc)
    code, report = run(capsys, "verify", "--surface", surf, "--map", holomorphic)
    assert code == 0 and report["verified"] is True


def test_integer_fields_still_accept_digit_strings(tmp_path, capsys):
    surf = write(tmp_path, "q4.json",
                 {"n": "2", "m": "0", "kind": "diagonal", "F": "Q^4", "maxWeight": "8"})
    code, report = run(capsys, "check", "--surface", surf)
    assert code == 0 and report["passed"]
