"""Property tests of the JSON body and function documents.

A malformed document raises ValueError (never another exception), and the
CLI turns it into exit 2 with one stderr line; a valid body document
survives a round trip through body_to_json unchanged.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from torsion_bound import cli_reports as cli
from torsion_bound import convex_geometry as cg
from torsion_bound import hh_verifier as hh

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])

# any JSON value, including the non-finite floats json.dumps writes
JSON_LEAVES = (st.none() | st.booleans()
               | st.integers(min_value=-10**400, max_value=10**400)
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)

COORD = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
SIZE = st.floats(min_value=0.1, max_value=5.0)


@st.composite
def valid_shapes(draw, n):
    """A valid shape document in dimension n (a bounded body)."""
    kind = draw(st.sampled_from(["ball", "ellipsoid", "box", "polytope",
                                 "intersection"]))
    center = draw(st.lists(COORD, min_size=n, max_size=n))
    if kind == "ball":
        return {"type": "ball", "center": center, "radius": draw(SIZE)}
    if kind == "ellipsoid":
        return {"type": "ellipsoid", "center": center,
                "semi_axes": draw(st.lists(SIZE, min_size=n, max_size=n))}
    if kind == "box":
        widths = draw(st.lists(SIZE, min_size=n, max_size=n))
        return {"type": "box", "lower": center,
                "upper": [c + w for c, w in zip(center, widths)]}
    if kind == "polytope":
        # a simplex: x_i >= c_i - s_i, sum x_i <= sum c_i + t
        halves = []
        for i, (c, s) in enumerate(zip(center, draw(
                st.lists(SIZE, min_size=n, max_size=n)))):
            normal = [0.0] * n
            normal[i] = -1.0
            halves.append({"normal": normal, "offset": s - c})
        diag = [1.0 / math.sqrt(n)] * n
        halves.append({"normal": diag,
                       "offset": (sum(center) + draw(SIZE)) / math.sqrt(n)})
        return {"type": "polytope", "half_spaces": halves}
    # a ball cut by one coordinate half-space through its inner part
    radius = draw(SIZE)
    axis = draw(st.integers(0, n - 1))
    cut = draw(st.floats(min_value=-0.8, max_value=0.8))
    normal = [0.0] * n
    normal[axis] = 1.0
    return {"type": "intersection", "members": [
        {"type": "ball", "center": center, "radius": radius},
        {"type": "polytope", "half_spaces": [
            {"normal": normal, "offset": center[axis] + cut * radius}]}]}


@st.composite
def valid_bodies(draw):
    n = draw(st.integers(2, 4))
    return {"dimension": n, "shape": draw(valid_shapes(n))}


def _paths(doc, prefix=()):
    """Every (path, value) in a nested document, the root included."""
    yield prefix, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


@st.composite
def mutated(draw, valid):
    """A valid document with one part replaced, deleted or grown."""
    doc = json.loads(json.dumps(draw(valid)))
    paths = [p for p, _ in _paths(doc)]
    path = draw(st.sampled_from(paths))
    if not path:
        return draw(JSON_VALUES)
    *head, last = path
    parent = doc
    for k in head:
        parent = parent[k]
    action = draw(st.sampled_from(["replace", "delete", "grow"]))
    if action == "replace":
        parent[last] = draw(JSON_VALUES)
    elif action == "delete" and isinstance(parent, dict):
        del parent[last]
    elif action == "delete":
        parent.pop(last)
    elif isinstance(parent[last], list):
        parent[last].append(draw(JSON_VALUES))
    else:
        parent[last] = [parent[last], draw(JSON_VALUES)]
    return doc


FN_DOCS = st.sampled_from([
    {"kind": "affine", "constant": 1.0, "linear": [0.0, -1.0]},
    {"kind": "quadratic", "center": [0.5, 0.0], "constant": 2.0,
     "linear": [1.0, 0.0]},
    {"kind": "harmonic_polynomial", "terms": [
        {"powers": [2, 0], "coeff": 1.0}, {"powers": [0, 2], "coeff": -1.0}]},
    {"kind": "shifted_norm", "anchor": [3.0, 0.0]},
    {"kind": "positive_combination", "terms": [
        {"weight": 0.5, "fn": {"kind": "shifted_norm", "anchor": [3.0, 0.0]}},
        {"weight": 2.0, "fn": {"kind": "affine", "constant": 1.0,
                               "linear": [0.0, 0.0]}}]},
])


def _cli_error(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_one_line_exit_2(argv):
    code, err = _cli_error(argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@SETTINGS
@given(valid_bodies())
def test_valid_body_round_trips(doc):
    body = cg.body_from_json(doc)
    again = cg.body_to_json(body)
    clone = cg.body_from_json(json.loads(json.dumps(again)))
    assert type(clone) is type(body)
    assert cg.body_to_json(clone) == again
    x = body.interior_point()
    assert np.array_equal(clone.distances_many(x[None, :]),
                          body.distances_many(x[None, :]))


@SETTINGS
@given(mutated(valid_bodies()))
# an integer too large for a float once raised OverflowError
@example(doc={"dimension": 2, "shape": {"type": "ball", "center": [0, 0],
                                        "radius": 10**400}})
def test_malformed_body_raises_value_error_and_exits_2(tmp_path, doc):
    try:
        cg.body_from_json(doc)
    except ValueError:
        path = tmp_path / "body.json"
        path.write_text(json.dumps(doc))
        _assert_one_line_exit_2(["gradient", "--body", str(path)])


@SETTINGS
@given(mutated(FN_DOCS))
@example(doc={"kind": "affine", "constant": 1.0, "linear": [0, -10**400]})
def test_malformed_function_raises_value_error_and_exits_2(tmp_path, doc):
    try:
        hh.fn_from_json(doc, 2)
    except ValueError:
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(doc))
        _assert_one_line_exit_2(["verify-hh", "--body", "unit-ball-n2",
                                 "--fn", str(path)])
