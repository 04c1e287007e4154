"""Every JSON reader ends in a normal exit, whatever one node of a valid
file is replaced by.

Each case starts from a file the reader accepts (a q-expansion over QQ and
one over Z_p for ``transform-cusp --input``, a level-1 table for
``decompose --table`` and ``qexp --function @...``, and a field config for
``qexp --config``), changes one node, the top level included, and runs the
command in process.  The exit must be 0 with JSON on stdout, 1 for a failed
verification, or 2 with one ``error:`` line; an uncaught exception fails
the test."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from eismeasure.cli import run_command
from eismeasure.fields import FieldData, Weight
from eismeasure.functions import random_lc_function, symmetrize

GAUSS = FieldData(p=5, k_disc=-4)

#: what a node is replaced by; DROP deletes it from its object instead
DROP = object()
MUTATIONS = ([], {}, None, True, 1.5, "5", -1, 10 ** 40, DROP)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _expansion(ring):
    code, out, _ = _run(["qexp", "--mode", "symplectic", "--ring", ring,
                         "--cusp", "divisor", "--bound", "4", "--k", "4",
                         "--function", "x^4*ydet^-3"])
    assert code == 0
    return json.loads(out)


def _table():
    f = random_lc_function(GAUSS, 1, 1, random.Random(3), entries=4)
    return symmetrize(f, Weight(2, 0)).to_json()


TRANSFORM = ["transform-cusp", "--mode", "symplectic", "--h", "[[[1,0]]]",
             "--lam", "2", "--input"]
#: reader -> (a valid file, the command that reads it, given the file's path)
READERS = {
    "expansion-qq": (_expansion("qq"), lambda path: TRANSFORM + [path]),
    "expansion-zp": (_expansion("zp"), lambda path: TRANSFORM + [path]),
    "table": (_table(), lambda path: ["decompose", "--table", path]),
    "function": (_table(), lambda path: [
        "qexp", "--k", "2", "--bound", "3", "--function", "@" + path]),
    "field-config": ({"p": 13, "k_disc": -3, "precision": 6,
                      "mode": "unitary"}, lambda path: [
        "qexp", "--config", path, "--k", "4", "--bound", "3",
        "--function", "x^4*ydet^-3"]),
}


def _paths(node, path=()):
    """The path of every node, the top level first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutated(data, path, new):
    """A copy of data with the node at path replaced by new (or dropped)."""
    if not path:
        return new
    data = json.loads(json.dumps(data))
    *up, last = path
    parent = data
    for key in up:
        parent = parent[key]
    if new is DROP:
        del parent[last]
    else:
        parent[last] = new
    return data


def _assert_normal_exit(code, out, err):
    if code == 0:
        json.loads(out)
    else:  # 1: a verification failed; 2: a usage error
        assert code in (1, 2) and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_valid_file_is_read(tmp_path, reader):
    data, argv = READERS[reader]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, _ = _run(argv(str(path)))
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(draw=st.data(), new=st.sampled_from(MUTATIONS))
def test_a_file_with_one_node_changed_ends_in_a_normal_exit(
        tmp_path_factory, reader, draw, new):
    data, argv = READERS[reader]
    path = draw.draw(st.sampled_from(list(_paths(data))), label="path")
    if new is DROP and not (path and isinstance(path[-1], str)):
        new = None  # only an object's key can be dropped
    file = tmp_path_factory.getbasetemp() / f"{reader}.json"
    file.write_text(json.dumps(_mutated(data, path, new)))
    _assert_normal_exit(*_run(argv(str(file))))
