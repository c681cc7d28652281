"""A mutation gate: mutants of the kernel, each with the tests that must kill it.

A mutant replaces one text, which occurs exactly once in `src/`, by another
(`test_mutants.py` checks that in tier-1, so the list cannot go stale).  Its
killing tests must pass on the program and fail on the mutant.

Run from anywhere, with pytest installed:

    python tests/mutants.py

It copies `src/`, `tests/`, `samples/` and `pyproject.toml` to a temporary
directory, runs every killing test there once on the unchanged copy, then
applies each mutant in turn and runs its killing tests.  It prints one line
per mutant and exits 1 if any mutant survives or the unchanged copy fails.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "samples", "pyproject.toml")
PYTEST = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids
    reason: str


GAP = "    return lo <= dim <= hi or (func and dim != n * n)"
GAP_TESTS = ("tests/test_gap_verdict.py",)
GOLDEN = "tests/test_samples.py::test_sample_reports_match_golden_bytes"
POLY = "tests/test_poly.py::test_"

MUTANTS = (
    Mutant("mirror_is_zero ignores the imaginary part", "src/crmoser/packed.py",
           "        if re + cre or im != cim:", "        if re + cre:",
           (POLY + "real_is_zero_sees_an_imaginary_coefficient_without_a_partner",),
           "jet verification's zero test would pass a residual with an imaginary part"),
    Mutant("the tr3F33 residual zeroed at n = 2", "src/crmoser/normal_form.py",
           '        ("tr3F33", trace_op(form, trace_op(form, trace_op(form, '
           'parts.get((3, 3), zero))))),',
           '        ("tr3F33", zero if form.n == 2 else trace_op(form, trace_op(form, '
           'trace_op(form, parts.get((3, 3), zero))))),',
           (GOLDEN + "[check-non_normal_form]",),
           "the normal form's third trace condition would go unchecked in the lowest dimension"),
    Mutant("lo < dim in gap_violated", "src/crmoser/models.py",
           GAP, GAP.replace("lo <= dim", "lo < dim"), GAP_TESTS,
           "a dimension at the lower end of the forbidden band would pass the gap verdict"),
    Mutant("dim < hi in gap_violated", "src/crmoser/models.py",
           GAP, GAP.replace("dim <= hi", "dim < hi"), GAP_TESTS,
           "a dimension at the upper end of the forbidden band would pass the gap verdict"),
    Mutant("m.den dropped in add_form", "src/crmoser/poly.py",
           "                self._add(a._packed, b._packed, m.den, mre[k], mim[k])",
           "                self._add(a._packed, b._packed, 1, mre[k], mim[k])",
           (POLY + "add_form_reads_the_matrix_denominator",),
           "a u(H) direction with denominator 2 would enter the stabilizer system doubled"),
    Mutant("an uncapped product's top weight read off the first keys", "src/crmoser/packed.py",
           "        top = weight(a, -1, n) + weight(b, -1, n)",
           "        top = weight(a, 0, n) + weight(b, 0, n)",
           ("tests/test_poly.py::test_a_square_keeps_an_exponent_too_wide_for_the_operand_fields",
            "tests/test_poly_properties.py::test_a_product_wider_than_its_operands_equals_the_"
            "product_of_a_widened_one"),
           "an exponent of a product too wide for its operands' fields would carry into the "
           "next variable: (1 + z1^3)^2 would hold z1^2 z2 for z1^6"),
    Mutant("the absent-key sentinel 0 in numerators", "src/crmoser/packed.py",
           "        key = -1 if max((*z, *zb, u)) >> bits else pack_key((z, zb, u), bits)",
           "        key = 0 if max((*z, *zb, u)) >> bits else pack_key((z, zb, u), bits)",
           ("tests/test_poly.py::test_coeff_of_a_monomial_too_wide_for_the_fields_is_zero",),
           "a monomial too wide for the fields would read the constant term's coefficient"),
    Mutant("and in _same_shape", "src/crmoser/linalg.py",
           "        if self.nrows != other.nrows or self.ncols != other.ncols:",
           "        if self.nrows != other.nrows and self.ncols != other.ncols:",
           ("tests/test_linalg.py::test_sums_of_matrices_of_different_shapes_raise",),
           "a sum of matrices that differ in one dimension would be cut to the shorter one"),
    Mutant("u^1 in Poly.__str__", "src/crmoser/poly.py",
           '''                factors.append("u" + (f"^{u}" if u > 1 else ""))''',
           '''                factors.append("u" + (f"^{u}" if u >= 1 else ""))''',
           (POLY + "str_writes_an_exponent_only_above_one",),
           "a polynomial would print u as u^1"),
    Mutant("a chain's conjugate left unconjugated", "src/crmoser/poly.py",
           "            self._conj[e] = self.power(e).conjugate()",
           "            self._conj[e] = self.power(e)",
           (POLY + "a_real_substitution_reads_the_conjugates_of_its_chains",),
           "a real substitution would read p^e for conj(p)^e in its conj(z) slots"),
    Mutant("the weight room of reparametrize one short", "src/crmoser/autgroup.py",
           "            room = max_w - a - b", "            room = max_w - a - b - 1",
           ("tests/test_reparametrize_properties.py::test_reparametrize_matches_the_fixed_point_"
            "oracle_at_the_weight_room_edges[room-0]",),
           "a reparametrized F' would lose its terms of top weight"),
    Mutant("the prefactor left undivided on the z side of reparametrize", "src/crmoser/autgroup.py",
           "s_chain.power(a - 1)", "s_chain.power(a)",
           ("tests/test_autgroup.py::test_reparametrize_scales_a_bidegree_2_2_part_by_s_conj_s",),
           "a reparametrized F' would carry an extra factor s on its z side"),
    Mutant("the blocks of the residual read f one weight short", "src/crmoser/autgroup.py",
           "fi.truncate_weight(max_w - 1)", "fi.truncate_weight(max_w - 2)",
           ("tests/test_autgroup.py::test_a_jet_term_of_weight_k_first_fails_at_k_plus_one_in_f_"
            "and_at_k_in_g",),
           "a jet with a wrong term of weight max_w - 1 in f would verify through max_w"),
    Mutant("the F term of the residual reads f one weight short", "src/crmoser/autgroup.py",
           "fi.substitute_w(table, max_w - 3)", "fi.substitute_w(table, max_w - 4)",
           ("tests/test_verify_properties.py::test_the_F_term_reads_f_through_max_w_minus_3_and_"
            "g_through_max_w_minus_4",),
           "the residual would miss what a term of f of weight max_w - 3 adds through F"),
    Mutant("split lowers the weight by 1 for a power of u", "src/crmoser/packed.py",
           "(2 if i == 2 * n else 1)", "(1 if i == 2 * n else 1)",
           (POLY + "u_coefficients_lower_the_weight_by_two_per_power_of_u",),
           "each u-power slice of u_coefficients would keep weight that its keys no longer hold"),
)


def pytest(copy: pathlib.Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([*PYTEST, *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, copy / name)
        every = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if pytest(copy, every):
            print("the killing tests fail on the unchanged program")
            return 1
        survived = 0
        for mutant in MUTANTS:
            target = copy / mutant.path
            text = target.read_text()
            target.write_text(text.replace(mutant.old, mutant.new, 1))
            start = time.perf_counter()
            code = pytest(copy, mutant.tests)
            target.write_text(text)
            killed = code == 1  # pytest's exit code for failed tests, not for an error
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED'} ({time.perf_counter() - start:.1f} s, "
                  f"pytest exit {code}): {mutant.name}")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
