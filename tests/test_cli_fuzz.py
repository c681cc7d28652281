"""Mutation fuzzing of the command-line contract.

Each example takes one sample document (a surface, a map or a model spec),
replaces one of its fields, at any depth, by a wrong-typed or out-of-range
value, and runs the command that reads it through `cli.main` in-process.
Whatever the value, `main` returns 0, 2 or 3, prints exactly one JSON
object, and lets no exception escape.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crmoser.cli import main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

HOSTILE = (None, True, 1.5, -1, 0, "1e5", "1/0", "", [], {}, [[]])

# sample document -> the argument lists that read it; "DOC" stands for the
# mutated copy, other file names for unmutated samples
COMMANDS = {
    "umbilic_q4.json": (["check", "--surface", "DOC"], ["classify", "--surface", "DOC"]),
    "corollary2_2_1.json": (["stabdim", "--basis", "--surface", "DOC"],
                            ["classify", "--surface", "DOC"]),
    "theorem1_n3.json": (["check", "--surface", "DOC"],
                         ["stabdim", "--basis", "--surface", "DOC"]),
    "map_jet_rotation.json": (["verify", "--surface", "umbilic_q4.json", "--map", "DOC"],),
    "map_linear_rotation.json": (["verify", "--surface", "umbilic_q4.json", "--map", "DOC"],),
    "map_scaled_mu2.json": (["verify", "--surface", "corollary2_2_1.json", "--map", "DOC"],),
    "model_theorem2_s0.json": (["model", "--spec", "DOC"],),
}


def field_paths(doc, prefix=()):
    """The path of every field below doc: object keys and list indices, at any depth."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


DOCS = {name: json.loads((SAMPLES / name).read_text()) for name in COMMANDS}
MUTATIONS = [(name, path) for name, doc in DOCS.items() for path in field_paths(doc)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(MUTATIONS), st.sampled_from(HOSTILE), st.data())
def test_a_mutated_field_gives_a_json_report_and_a_contract_exit_code(workdir, mutation, value,
                                                                      data):
    name, path = mutation
    argv = data.draw(st.sampled_from(COMMANDS[name]))
    doc = workdir / "doc.json"
    doc.write_text(json.dumps(replaced(DOCS[name], path, value)))
    argv = [str(doc) if a == "DOC" else str(SAMPLES / a) if a.endswith(".json") else a
            for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 2, 3), (argv, path, value, out.getvalue())
    report = json.loads(out.getvalue())  # one JSON document, nothing before or after it
    assert isinstance(report, dict) and report["command"] == argv[0]
