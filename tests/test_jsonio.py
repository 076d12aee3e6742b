"""JSON round trips and strict parsing."""

import json
import math
import random
import re
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import planted_pattern
from propermap import jsonio
from propermap.certify import certify, verify_certificate
from propermap.forge import golden_3x3, shift_5x5
from propermap.jsonio import (
  _INT_LITERALS,
  _INT_VALUES,
  certificate_from_json,
  certificate_to_json,
  dumps,
  frame_from_json,
  frame_to_json,
  matrix_from_json,
  matrix_to_json,
  probe_report_to_json,
  rat_str,
  recipe_from_json,
  recipe_to_json,
  validation_report_to_json,
  vector_from_json,
  vector_to_json,
)
from propermap.linalg import RatMatrix, RatVector, _integerized_rows, as_rat
from propermap.recipes import ConjugationFrame, WitnessRecipe
from propermap.witness import probe_mu, validate_witness


def test_rat_str_forms():
  assert rat_str(Fraction(3)) == "3"
  assert rat_str(Fraction(-1, 2)) == "-1/2"
  assert rat_str(Fraction(0)) == "0"


def test_matrix_round_trip():
  A = RatMatrix.of([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
  obj = matrix_to_json(A)
  assert obj == {"m": 2, "rows": [["1/2", "-3"], ["0", "7/5"]]}
  assert matrix_from_json(obj) == A
  assert matrix_from_json(json.loads(dumps(obj))) == A


def test_matrix_parse_rejects_floats():
  obj = {"m": 1, "rows": [[0.5]]}
  with pytest.raises(ValueError, match=r"entry \(0,0\)"):
    matrix_from_json(obj)


def test_matrix_parse_rejects_zero_denominator():
  with pytest.raises(ValueError, match=r"entry \(0,1\)"):
    matrix_from_json({"m": 2, "rows": [["1", "1/0"], ["0", "1"]]})


def test_matrix_parse_rejects_bad_shape():
  with pytest.raises(ValueError, match="missing field"):
    matrix_from_json({"rows": [["1"]]})
  with pytest.raises(ValueError, match="unexpected field"):
    matrix_from_json({"m": 1, "rows": [["1"]], "name": "A"})
  with pytest.raises(ValueError, match="row 1"):
    matrix_from_json({"m": 2, "rows": [["1", "0"], ["1"]]})
  with pytest.raises(ValueError, match="'m' must be a positive integer"):
    matrix_from_json({"m": 0, "rows": []})


def test_vector_round_trip():
  v = RatVector.of([1, Fraction(-2, 3), 0])
  obj = vector_to_json(v)
  assert obj == {"entries": ["1", "-2/3", "0"]}
  assert vector_from_json(obj) == v
  with pytest.raises(ValueError, match="entry 1"):
    vector_from_json({"entries": ["1", "x", "0"]})


def test_frame_round_trip():
  frame = ConjugationFrame((2, 0, 1), (Fraction(1, 2), Fraction(3), Fraction(-1)))
  assert frame_from_json(frame_to_json(frame)) == frame
  with pytest.raises(ValueError, match="perm"):
    frame_from_json({"perm": ["a"], "diag": ["1"]})
  with pytest.raises(ValueError, match="diag"):
    frame_from_json({"perm": [0, 1], "diag": ["1"]})


@pytest.mark.parametrize("perm, diag, field", [
  ([99, 1, 2, 3], ["1", "1", "1", "1"], "perm"),
  ([0, 0, 2, 3], ["1", "1", "1", "1"], "perm"),
  ([1, 2, 3, 4], ["1", "1", "1", "1"], "perm"),
  ([-1, 0, 1, 2], ["1", "1", "1", "1"], "perm"),
  ([0, 1, 2, 3], ["0", "1", "1", "1"], "diag"),
  ([0, 1, 2, 3], ["1", "-2", "0/5", "1"], "diag"),
])
def test_frame_rejects_what_cannot_conjugate(perm, diag, field):
  with pytest.raises(ValueError, match=f"'{field}'"):
    frame_from_json({"perm": perm, "diag": diag})
  with pytest.raises(ValueError, match=f"'{field}'"):
    ConjugationFrame(tuple(perm), tuple(Fraction(d) for d in diag))


def test_recipe_round_trip_simple():
  rec = WitnessRecipe(kind="simple", x_inf=RatVector.of([1, 1, 1]),
                      u=RatVector.of([1, 0, 0]))
  obj = recipe_to_json(rec)
  assert recipe_from_json(obj) == rec
  assert obj["kind"] == "simple"
  assert obj["x_inf"] == ["1", "1", "1"]


def test_recipe_round_trip_with_frame_and_chain_fields():
  rec = WitnessRecipe(
    kind="corank-chain",
    x_inf=RatVector.of([1, 1, 0]),
    u=RatVector.of([1, 0, 0]),
    u1=RatVector.of([1, 0, 0]),
    v1=RatVector.of([0, 1, 0]),
    u_hat_root=RatVector.of([0, 0, 1]),
    v=RatVector.of([0, 0, 2]),
    frame=ConjugationFrame((1, 0, 2), (Fraction(2), Fraction(1), Fraction(1))),
    numeric=True)
  assert recipe_from_json(recipe_to_json(rec)) == rec


def test_recipe_parse_rejects_bad_fields():
  base = {"kind": "simple", "x_inf": ["1"], "u": ["1"]}
  with pytest.raises(ValueError, match="kind"):
    recipe_from_json({**base, "kind": "other"})
  with pytest.raises(ValueError, match="'k'"):
    recipe_from_json({**base, "k": 0})
  with pytest.raises(ValueError, match="numeric"):
    recipe_from_json({**base, "numeric": "yes"})
  with pytest.raises(ValueError, match="unexpected field"):
    recipe_from_json({**base, "gamma": 10})


@pytest.mark.parametrize("change", ["short", "long"])
@pytest.mark.parametrize("field", ["u", "v", "u1", "v1", "u_hat_root"])
def test_recipe_parse_rejects_a_vector_of_another_length(field, change):
  obj = recipe_to_json(certify(planted_pattern(random.Random(57), 4)).witness())
  assert obj["kind"] == "corank-chain" and field in obj
  obj[field] = obj[field][:-1] if change == "short" else obj[field] + ["0"]
  with pytest.raises(ValueError, match=f"'{field}'"):
    recipe_from_json(obj)


def test_certificate_round_trip_preserves_verification():
  for A in (golden_3x3(), shift_5x5(), RatMatrix.identity(3)):
    cert = certify(A)
    obj = certificate_to_json(cert)
    back = certificate_from_json(json.loads(dumps(obj)))
    assert back.verdict == cert.verdict
    assert back.reason == cert.reason
    assert back.matrix == A
    assert verify_certificate(A, back)


def test_certificate_round_trip_keeps_witness_recipe():
  A = golden_3x3()
  cert = certify(A)
  back = certificate_from_json(certificate_to_json(cert))
  rec = back.witness()
  assert rec == cert.witness()
  assert validate_witness(A, rec).passed


def test_chain_evidence_with_the_old_mode_key_still_verifies():
  # chain summaries once carried a constant "mode": "S"; a certificate
  # written then still parses, and the extra key changes no verdict
  for seed, m in ((1, 4), (70, 3), (837, 4)):
    A = planted_pattern(random.Random(seed), m)
    obj = json.loads(dumps(certificate_to_json(certify(A))))
    chain = obj["evidence"]["chain"]
    assert chain["type"] == "chain" and "mode" not in chain
    chain["mode"] = "S"
    back = certificate_from_json(json.loads(json.dumps(obj)))
    assert back.evidence["chain"]["mode"] == "S"
    assert verify_certificate(A, back)


def test_certificate_parse_is_strict():
  obj = certificate_to_json(certify(RatMatrix.identity(2)))
  missing = {k: v for k, v in obj.items() if k != "matrix"}
  with pytest.raises(ValueError, match="missing field 'matrix'"):
    certificate_from_json(missing)
  with pytest.raises(ValueError, match="unexpected field"):
    certificate_from_json({**obj, "extra": 1})
  with pytest.raises(ValueError, match="audit entry 0"):
    certificate_from_json({**obj, "audit": [{"step": "x"}]})
  # text fields are taken as they are, never coerced with str()
  for field in ("verdict", "reason"):
    for bad in (7, None, ["Proper"], {"a": "b"}, True):
      with pytest.raises(ValueError,
                         match=f"^field '{field}' must be a string$"):
        certificate_from_json({**obj, field: bad})
  entry = {"step": "x", "outcome": "y", "detail": "z"}
  for field in ("step", "outcome", "detail"):
    for bad in (None, 3, [1], {"a": 1}, False):
      audit = [entry, {**entry, field: bad}]
      with pytest.raises(ValueError, match=f"^audit entry 1 field '{field}' "
                                           f"must be a string$"):
        certificate_from_json({**obj, "audit": audit})
  back = certificate_from_json({**obj, "audit": [{"step": "x", "outcome": "y"}]})
  assert back.audit[0].detail == ""


def test_dumps_is_canonical():
  obj = {"b": 1, "a": [2, 3]}
  text = dumps(obj)
  assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
  assert dumps(obj) == text


# ---------------------------------------------------------------------------
# dumps against the standard library encoder
# ---------------------------------------------------------------------------

def stdlib_dumps(obj) -> str:
  return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def assert_same_as_stdlib(obj) -> None:
  try:
    want = stdlib_dumps(obj)
  except TypeError:
    with pytest.raises(TypeError):
      dumps(obj)
    return
  assert dumps(obj) == want


_SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f", "\n\t", "é", "\u2028", "\U0001f600",
                 'a"b\\c', ""]
_text = st.text(max_size=6) | st.sampled_from(_SPECIAL_TEXT)
_floats = st.floats() | st.sampled_from(
  [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, 0.1])
_scalars = (st.none() | st.booleans() | _floats | _text
            | st.integers(min_value=-2 ** 80, max_value=2 ** 80))
_trees = st.recursive(
  _scalars,
  lambda children: (st.lists(children, max_size=4)
                    | st.lists(children, max_size=3).map(tuple)
                    | st.dictionaries(_text, children, max_size=4)),
  max_leaves=30)


@settings(deadline=None, max_examples=300)
@given(_trees)
@example([[], {}, (), "", [[{}]]])
@example({"a": {"b": [{"c": (1, [2.5, {"d": None}])}]}})
def test_dumps_matches_stdlib_on_json_trees(obj):
  assert_same_as_stdlib(obj)
  # the same tree four containers deeper
  assert_same_as_stdlib({"w": [({"x": [obj]},)]})


@settings(deadline=None, max_examples=100)
@given(st.dictionaries(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                       _scalars, max_size=5)
       | st.dictionaries(_floats, _scalars, max_size=5)
       | st.dictionaries(st.booleans(), _scalars, max_size=2))
def test_dumps_matches_stdlib_on_non_str_keys(obj):
  assert_same_as_stdlib(obj)


class _Text(str):
  """A str subclass, which takes the `isinstance` path of `dumps`."""


@pytest.mark.parametrize("obj", [
  {"x": numpy.float64(0.1), "y": [numpy.float64("nan"), numpy.float64(-0.0)],
   "z": numpy.float64("inf"), "w": -numpy.float64("inf")},
  [True, 1, False, 0, 1.0, None],
  {"a": True, "b": 1, "c": False, "d": 0},
  {True: "t", 2: "two", 1.5: "x", False: "f"},
  {None: 1},
  {math.nan: 1, math.inf: 2, -0.0: 3},
  {2 ** 70: "big", -3: "neg"},
  # a list that opens with a string but holds other values too
  ["a", 1, None, ["b", 2.5], {"c": "d"}, "e"],
  [_Text("sub"), "class"],
  "top-level \u00e9 text",
  7,
  -0.0,
  None,
])
def test_dumps_matches_stdlib_on_pinned_cases(obj):
  assert dumps(obj) == stdlib_dumps(obj)


@pytest.mark.parametrize("obj", [
  {1: "a", "b": 2},
  {None: 1, "a": 2},
  {(1, 2): 3},
  {"a": {1: "x", "y": 2}},
  [Fraction(1, 2)],
  ["a", Fraction(1, 2)],
  {"a": {1, 2}},
  numpy.int64(3),
])
def test_dumps_raises_type_error_where_stdlib_does(obj):
  with pytest.raises(TypeError):
    stdlib_dumps(obj)
  with pytest.raises(TypeError):
    dumps(obj)


# ---------------------------------------------------------------------------
# the integer-literal table against the general entry parser
# ---------------------------------------------------------------------------

_B = max(int(text) for text in _INT_LITERALS)

ENTRY_VALUES = [
  # the literals of tests/test_linalg.py::test_as_rat_string_parse_matches_fraction
  "1_000", " 5 ", "+3", "-0", "\u0663", "1e3", "3.0", "0x10", "", "7/0",
  "--1", " -12\n",
  "0", "007", " 3", "1/2", "-7/3", "4/2",
  str(_B), str(-_B), str(_B + 1), str(-_B - 1),
  3, -_B - 1, True, False, 0.5, None, [1], {"a": 1},
]


def expected_entry(x, where):
  """(value, None) or (None, message) as the general parser reports them."""
  if isinstance(x, bool) or not isinstance(x, (str, int)):
    return None, (f"{where} must be a rational string or integer, "
                  f"got {type(x).__name__}")
  try:
    return as_rat(x), None
  except (ValueError, TypeError) as err:
    return None, f"{where}: {err}"


def check_entry(parse, x, where, wrap):
  value, message = expected_entry(x, where)
  if message is None:
    got = parse()
    assert got == wrap(value)
  else:
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
      parse()


@pytest.mark.parametrize("x", ENTRY_VALUES, ids=repr)
def test_entry_fast_path_matches_general_parser(x):
  check_entry(lambda: matrix_from_json({"m": 1, "rows": [[x]]}), x,
              "entry (0,0)", lambda q: RatMatrix.of([[q]]))
  check_entry(lambda: matrix_from_json({"m": 2, "rows": [["1", "2"], ["0", x]]}),
              x, "entry (1,1)", lambda q: RatMatrix.of([[1, 2], [0, q]]))
  check_entry(lambda: vector_from_json({"entries": ["1", x]}), x, "entry 1",
              lambda q: RatVector.of([1, q]))
  check_entry(lambda: recipe_from_json({"kind": "simple", "x_inf": [x],
                                        "u": ["1"]}),
              x, "field 'x_inf'[0]",
              lambda q: WitnessRecipe(kind="simple", x_inf=RatVector.of([q]),
                                      u=RatVector.of([1])))
  frame = {"perm": [0, 1], "diag": ["2", x]}
  if expected_entry(x, "diag[1]")[0] == 0:
    # the entry parses, and the frame refuses a zero scale
    with pytest.raises(ValueError, match="'diag' has a zero entry at 1$"):
      frame_from_json(frame)
  else:
    check_entry(lambda: frame_from_json(frame), x, "diag[1]",
                lambda q: ConjugationFrame((0, 1), (Fraction(2), q)))


def test_entry_table_holds_exact_fractions():
  assert len(_INT_LITERALS) == 2 * _B + 1
  for text, q in _INT_LITERALS.items():
    assert type(q) is Fraction and q == Fraction(text) and rat_str(q) == text
  assert _INT_VALUES.keys() == _INT_LITERALS.keys()
  assert all(type(n) is int and _INT_LITERALS[text] == n
             for text, n in _INT_VALUES.items())
  parsed = matrix_from_json({"m": 2, "rows": [["-1", "1/2"], ["64", "65"]]})
  assert all(type(q) is Fraction for row in parsed.rows for q in row)
  assert all(type(r) is tuple for r in parsed.rows)


def test_mixed_list_reads_its_integer_literals_from_the_table(monkeypatch):
  calls = []
  real = jsonio._parse_rat

  def spy(value, where):
    calls.append((value, where))
    return real(value, where)

  monkeypatch.setattr(jsonio, "_parse_rat", spy)
  v = vector_from_json({"entries": ["1", "1/2", "-64", "65", 3, "0"]})
  assert v == RatVector.of([1, Fraction(1, 2), -64, 65, 3, 0])
  # only the entries off the table reach the general parser, under their
  # own labels
  assert calls == [("1/2", "entry 1"), ("65", "entry 3"), (3, "entry 4")]
  assert all(v[j] is _INT_LITERALS[text]
             for j, text in ((0, "1"), (2, "-64"), (5, "0")))
  calls.clear()
  M = matrix_from_json({"m": 2, "rows": [["2", "1/3"], ["-1", "4"]]})
  assert M == RatMatrix.of([[2, Fraction(1, 3)], [-1, 4]])
  assert calls == [("1/3", "entry (0,1)")]
  with pytest.raises(ValueError, match=r"^entry \(1,1\): not a rational "
                                       r"literal: 'x'$"):
    matrix_from_json({"m": 2, "rows": [["1/3", "2"], ["0", "x"]]})


@pytest.mark.parametrize("rows", [
  [["1", "-2"], ["0", "64"]],
  [["65", "-3"], ["7", "-100"]],
  [[1, "2"], ["3", -4]],
  [["1/2", "2"], ["-3", "4/6"]],
  [["1/2", "1/3"], ["2/5", "-7"]],
  [["1", "2"], ["3", "4/2"]],
], ids=["table", "off-table", "json-ints", "fractions", "all-fractions",
        "integral-fraction"])
def test_parsed_integer_rows_are_the_cleared_rows(rows):
  M = matrix_from_json({"m": 2, "rows": rows})
  # a matrix of table literals is read as ints by the parse itself
  assert ("_integer_rows" in vars(M)) == all(
    isinstance(x, str) and x in _INT_VALUES for row in rows for x in row)
  assert M._integer_rows == _integerized_rows(M.rows)


def _screen_round_trips():
  """Round-tripped certificates of each screen reason, with the matrix."""
  for rows in ([[1, 2, 0], [2, -1, 3], [0, 3, 2]],    # symmetric
               [[0, 1, -2], [-1, 0, 3], [2, -3, 0]],  # antisymmetric
               [[2, 1], [1, 1]],                      # invertible
               [[1, -1, 1], [2, -2, 2], [0, 0, 0]],   # rank one
               [[1, 2, 3], [0, 0, 1], [0, 0, 2]]):    # upper triangular
    A = RatMatrix.of(rows)
    cert = certify(A)
    assert cert.evidence and cert.audit[-1].step.startswith("screen:")
    text = dumps(certificate_to_json(cert))
    yield RatMatrix.of(rows), cert, json.loads(text)


def test_verify_fails_after_any_one_matrix_entry_changes():
  for A, cert, obj in _screen_round_trips():
    assert verify_certificate(A, certificate_from_json(obj))
    m = obj["matrix"]["m"]
    for i in range(m):
      for j in range(m):
        for new in (str(int(obj["matrix"]["rows"][i][j]) + 1), "1/2"):
          changed = json.loads(json.dumps(obj))
          changed["matrix"]["rows"][i][j] = new
          assert not verify_certificate(A, certificate_from_json(changed))


def test_verify_reads_an_unreduced_fraction_as_its_integer():
  A = RatMatrix.of([[2, 1], [1, 1]])
  obj = json.loads(dumps(certificate_to_json(certify(A))))
  assert obj["matrix"]["rows"][0][0] == "2"
  obj["matrix"]["rows"][0][0] = "4/2"
  back = certificate_from_json(obj)
  assert "_integer_rows" not in vars(back.matrix)
  assert verify_certificate(A, back)


def test_verifying_a_screen_certificate_compares_no_fractions(monkeypatch):
  calls = []
  real = Fraction.__eq__

  def counting(self, other):
    calls.append(other)
    return real(self, other)

  round_trips = list(_screen_round_trips())
  reasons = {cert.reason for _, cert, _ in round_trips}
  assert reasons == {"kernel-in-gram-kernel", "gram-rank-1", "triangular"}
  backs = [(A, certificate_from_json(obj)) for A, _, obj in round_trips]
  monkeypatch.setattr(Fraction, "__eq__", counting)
  assert all(verify_certificate(A, back) for A, back in backs)
  monkeypatch.undo()
  assert calls == []


def test_report_json_shapes():
  A = golden_3x3()
  cert = certify(A)
  val = validation_report_to_json(validate_witness(A, cert.witness()))
  assert val["passed"] is True
  assert len(val["residuals"]) == len(val["gammas"])
  assert set(val) == {"gammas", "residuals", "point_norms", "direction_errors",
                      "invariant_ok", "rejected", "fitted_decay_exponent",
                      "negative_image_coordinates", "passed", "note"}
  probe = probe_report_to_json(probe_mu(RatMatrix.identity(2), seed=3))
  assert set(probe) == {"radii", "mu_values", "classification", "seed", "note"}
  assert all(type(val[k]) is list for k in ("gammas", "residuals",
                                            "point_norms", "direction_errors"))
  assert all(type(probe[k]) is list for k in ("radii", "mu_values"))
  assert probe["classification"] == "GrowthObserved"
  assert len(probe["mu_values"]) == len(probe["radii"])
  assert probe["seed"] == 3
  # every report serializes through the canonical writer
  for payload in (val, probe):
    assert dumps(payload).endswith("\n")
