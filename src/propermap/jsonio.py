"""JSON serialization for matrices, certificates, escape curves, and reports.

Rationals always cross the boundary as strings ("p/q" or a plain integer
literal), never as floats, so parsing back is exact.  Parsers are strict:
errors name the offending field.  Serialization is deterministic (sorted
keys, fixed indentation) so identical inputs produce identical bytes.

`dumps` writes text byte-identical to `json.dumps(obj, indent=2,
sort_keys=True)` plus a newline, but writes it directly: with `indent` set
the standard library skips its C encoder and walks every token through the
generators of its pure-Python one, which cost about as much as deciding a
screened matrix.  It tests exact types first, and a list of strings, such
as a matrix row, is one `map`.  Parsing reads small integer literals, the
bulk of every certificate, from constant tables, because building a
Fraction is what an entry costs; a matrix of such literals also keeps the
ints it was read as (`RatMatrix.of_integers`), so comparing it with
another compares ints.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .certify import AuditEntry, Certificate
from .linalg import RatMatrix, RatVector, as_rat
from .recipes import EscapeCurve
from .witness import MuProbeReport, WitnessValidationReport


def rat_str(q: Fraction) -> str:
  return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_rat(value, where: str) -> Fraction:
  if isinstance(value, bool) or not isinstance(value, (str, int)):
    raise ValueError(f"{where} must be a rational string or integer, "
                     f"got {type(value).__name__}")
  try:
    return as_rat(value)
  except (ValueError, TypeError) as err:
    raise ValueError(f"{where}: {err}") from None


# The integer literals -64..64, keyed by their `str` text, as ints and Fractions.
_INT_VALUES = {str(n): n for n in range(-64, 65)}
_INT_LITERALS = {key: Fraction(n) for key, n in _INT_VALUES.items()}


def _rat_entries(values: list, label: str, *args) -> tuple:
  """The entries of a JSON list as Fractions, read from `_INT_LITERALS`
  where they are in it.  Only the others go through `_parse_rat`, naming
  entry j `label.format(*args, j)`, so only they format a label."""
  try:
    return tuple([_INT_LITERALS[x] for x in values])
  except (KeyError, TypeError):
    return tuple(_INT_LITERALS[x] if isinstance(x, str) and x in _INT_LITERALS
                 else _parse_rat(x, label.format(*args, j))
                 for j, x in enumerate(values))


def _require_keys(obj: dict, allowed: set, required: set, what: str) -> None:
  if not isinstance(obj, dict):
    raise ValueError(f"{what} must be a JSON object")
  for key in required:
    if key not in obj:
      raise ValueError(f"{what} is missing field {key!r}")
  for key in obj:
    if key not in allowed:
      raise ValueError(f"{what} has unexpected field {key!r}")


def matrix_to_json(A: RatMatrix) -> dict:
  if not A.is_square():
    raise ValueError("only square matrices serialize to matrix JSON")
  int_rows, denoms = A._integer_rows
  return {"m": A.m,
          "rows": [list(map(str, ints)) if d == 1 else [rat_str(q) for q in row]
                   for row, ints, d in zip(A.rows, int_rows, denoms)]}


def matrix_from_json(obj) -> RatMatrix:
  _require_keys(obj, {"m", "rows"}, {"m", "rows"}, "matrix JSON")
  m = obj["m"]
  if isinstance(m, bool) or not isinstance(m, int) or m < 1:
    raise ValueError("field 'm' must be a positive integer")
  rows = obj["rows"]
  if not isinstance(rows, list) or len(rows) != m:
    raise ValueError(f"field 'rows' must be a list of {m} rows")
  parsed = []
  for i, row in enumerate(rows):
    if not isinstance(row, list) or len(row) != m:
      raise ValueError(f"row {i} must be a list of {m} entries")
    parsed.append(_rat_entries(row, "entry ({},{})", i))
  try:
    ints = [[_INT_VALUES[x] for x in row] for row in rows]
  except KeyError:
    return RatMatrix(tuple(parsed))
  return RatMatrix.of_integers(tuple(parsed), ints)


def vector_to_json(v: RatVector) -> dict:
  return {"entries": [rat_str(a) for a in v]}


def vector_from_json(obj) -> RatVector:
  _require_keys(obj, {"entries"}, {"entries"}, "vector JSON")
  entries = obj["entries"]
  if not isinstance(entries, list) or not entries:
    raise ValueError("field 'entries' must be a non-empty list")
  return RatVector(_rat_entries(entries, "entry {}"))


def _vector_list(v: RatVector) -> list:
  return [rat_str(a) for a in v]


def _vector_from_list(value, where: str) -> RatVector:
  if not isinstance(value, list) or not value:
    raise ValueError(f"{where} must be a non-empty list")
  return RatVector(_rat_entries(value, "{}[{}]", where))


# the error for the witness recipes NonProper certificates carried before
# they carried their escape curve
RETIRED_RECIPE = ("field 'recipe' holds a witness recipe, a format no longer "
                  "read: NonProper evidence is its escape 'curve'")


def curve_to_json(curve: EscapeCurve) -> dict:
  return {"k": curve.k,
          "numeric": curve.numeric,
          "coefficients": {str(e): _vector_list(v)
                           for e, v in curve.coefficients.items()}}


def curve_from_json(obj, m: int, k: int | None = None) -> EscapeCurve:
  """An escape curve in R^m, read strictly: "coefficients" is a non-empty
  object whose keys are integer exponents in canonical form and whose
  values are lists of m rational entries, "k" a positive integer (equal to
  k when that is given) and "numeric" a boolean, false when absent.  A
  "type" field, which certificate evidence carries, must be "curve".
  Errors name the field."""
  _require_keys(obj, {"type", "k", "numeric", "coefficients"},
                {"k", "coefficients"}, "curve JSON")
  if obj.get("type", "curve") != "curve":
    raise ValueError("curve field 'type' must be 'curve'")
  ck = obj["k"]
  if isinstance(ck, bool) or not isinstance(ck, int) or ck < 1:
    raise ValueError("curve field 'k' must be a positive integer")
  if k is not None and ck != k:
    raise ValueError(f"curve field 'k' is {ck}, its certificate's k is {k}")
  numeric = obj.get("numeric", False)
  if not isinstance(numeric, bool):
    raise ValueError("curve field 'numeric' must be a boolean")
  terms = obj["coefficients"]
  if not isinstance(terms, dict) or not terms:
    raise ValueError("curve field 'coefficients' must be a non-empty object")
  coefficients = {}
  for key, value in terms.items():
    try:
      e = int(key)
    except ValueError:
      e = None
    if e is None or str(e) != key:
      raise ValueError(f"curve field 'coefficients' has key {key!r}, "
                       f"which is no integer exponent")
    where = f"curve field 'coefficients' entry {key!r}"
    vec = _vector_from_list(value, where)
    if len(vec) != m:
      raise ValueError(f"{where} has length {len(vec)}, the matrix is "
                       f"{m}x{m}")
    coefficients[e] = vec
  return EscapeCurve(ck, coefficients, numeric)


def _encode_evidence(value):
  if isinstance(value, bool) or value is None:
    return value
  if isinstance(value, (int, float, str)):
    return value
  if isinstance(value, Fraction):
    return {"type": "rational", "value": rat_str(value)}
  if isinstance(value, RatVector):
    return {"type": "vector", "entries": _vector_list(value)}
  if isinstance(value, RatMatrix):
    return {"type": "matrix", **matrix_to_json(value)}
  if isinstance(value, EscapeCurve):
    return {"type": "curve", **curve_to_json(value)}
  if isinstance(value, (list, tuple)):
    return [_encode_evidence(x) for x in value]
  if isinstance(value, dict):
    return {str(k): _encode_evidence(v) for k, v in value.items()}
  raise TypeError(f"cannot serialize evidence of type {type(value).__name__}")


def _decode_evidence(value):
  if isinstance(value, dict):
    tag = value.get("type")
    if tag == "rational":
      return _parse_rat(value.get("value"), "rational evidence")
    if tag == "vector":
      return _vector_from_list(value.get("entries"), "vector evidence")
    if tag == "matrix":
      return matrix_from_json({k: v for k, v in value.items() if k != "type"})
    if tag == "recipe":
      raise ValueError(RETIRED_RECIPE)
    return {k: _decode_evidence(v) for k, v in value.items()}
  if isinstance(value, list):
    return [_decode_evidence(x) for x in value]
  return value


def certificate_to_json(cert: Certificate) -> dict:
  return {"verdict": cert.verdict,
          "reason": cert.reason,
          "k": cert.k,
          "matrix": matrix_to_json(cert.matrix),
          "evidence": {k: _encode_evidence(v) for k, v in cert.evidence.items()},
          "audit": [{"step": a.step, "outcome": a.outcome, "detail": a.detail}
                    for a in cert.audit]}


def _str_field(obj: dict, key: str, prefix: str = "", default=None) -> str:
  value = obj.get(key, default)
  if not isinstance(value, str):
    raise ValueError(f"{prefix}field {key!r} must be a string")
  return value


def _audit_entry(entry, i: int) -> AuditEntry:
  """Audit entry i.  A well-formed one, an object of three string fields
  as `certificate_to_json` writes it, is taken in one step; anything else
  goes through the checks that name the offending field."""
  if entry.__class__ is dict and len(entry) == 3:
    step, outcome, detail = (entry.get("step"), entry.get("outcome"),
                             entry.get("detail"))
    if step.__class__ is outcome.__class__ is detail.__class__ is str:
      return AuditEntry(step, outcome, detail)
  where = f"audit entry {i}"
  _require_keys(entry, {"step", "outcome", "detail"}, {"step", "outcome"},
                where)
  return AuditEntry(*(_str_field(entry, key, f"{where} ", "")
                      for key in ("step", "outcome", "detail")))


def certificate_from_json(obj) -> Certificate:
  allowed = {"verdict", "reason", "k", "matrix", "evidence", "audit"}
  _require_keys(obj, allowed, {"verdict", "reason", "matrix"},
                "certificate JSON")
  k = obj.get("k", 3)
  if isinstance(k, bool) or not isinstance(k, int) or k < 1:
    raise ValueError("field 'k' must be a positive integer")
  evidence = obj.get("evidence", {})
  if not isinstance(evidence, dict):
    raise ValueError("field 'evidence' must be an object")
  audit_raw = obj.get("audit", [])
  if not isinstance(audit_raw, list):
    raise ValueError("field 'audit' must be a list")
  audit = [_audit_entry(entry, i) for i, entry in enumerate(audit_raw)]
  matrix = matrix_from_json(obj["matrix"])
  # the curve is read against the certificate's matrix size and power
  return Certificate(verdict=_str_field(obj, "verdict"),
                     reason=_str_field(obj, "reason"),
                     matrix=matrix,
                     k=k,
                     evidence={str(key): curve_from_json(v, matrix.m, k)
                               if key == "curve" else _decode_evidence(v)
                               for key, v in evidence.items()},
                     audit=tuple(audit))


def _report_to_json(report: WitnessValidationReport | MuProbeReport) -> dict:
  """A report's fields by name, each tuple as a list."""
  return {k: list(v) if isinstance(v, tuple) else v
          for k, v in vars(report).items()}


validation_report_to_json = probe_report_to_json = _report_to_json


_INF = float("inf")


def _floatstr(o: float) -> str:
  if o != o:
    return "NaN"
  if o == _INF:
    return "Infinity"
  if o == -_INF:
    return "-Infinity"
  return float.__repr__(o)


def _key(key) -> str:
  if isinstance(key, str):
    return key
  if isinstance(key, float):
    return _floatstr(key)
  if key is True:
    return "true"
  if key is False:
    return "false"
  if key is None:
    return "null"
  if isinstance(key, int):
    return int.__repr__(key)
  raise TypeError(f"keys must be str, int, float, bool or None, "
                  f"not {key.__class__.__name__}")


def _encode(o, indent: str) -> str:
  """JSON text of `o` whose closing bracket follows `indent` (a newline and
  its spaces).  Exact str, list and dict come first, a dict's exact str
  values are written in place, and a list of strings is written with one
  `map`.  Other types dispatch in the order of the
  standard library's encoder, so subclasses (bool of int, numpy.float64 of
  float) come out as they do there.  Payloads are trees built by the
  `*_to_json` functions, so a cycle ends in RecursionError.
  """
  t = o.__class__
  if t is str:
    return _encode_str(o)
  if t is not list and t is not dict:
    if isinstance(o, str):
      return _encode_str(o)
    if o is None:
      return "null"
    if o is True:
      return "true"
    if o is False:
      return "false"
    if isinstance(o, int):
      return int.__repr__(o)
    if isinstance(o, float):
      return _floatstr(o)
    t = (list if isinstance(o, (list, tuple)) else
         dict if isinstance(o, dict) else None)
    if t is None:
      raise TypeError(f"Object of type {o.__class__.__name__} "
                      f"is not JSON serializable")
  if not o:
    return "[]" if t is list else "{}"
  inner = indent + "  "
  sep = "," + inner
  if t is dict:
    return ("{" + inner
            + sep.join([_encode_str(k if k.__class__ is str else _key(k))
                        + ": " + (_encode_str(v) if v.__class__ is str
                                  else _encode(v, inner))
                        for k, v in sorted(o.items())])
            + indent + "}")
  if o[0].__class__ is str:
    try:
      return "[" + inner + sep.join(map(_encode_str, o)) + indent + "]"
    except TypeError:
      pass  # a later entry is no string
  return "[" + inner + sep.join([_encode(x, inner) for x in o]) + indent + "]"


def dumps(obj) -> str:
  """Canonical JSON text: sorted keys, two-space indent, trailing newline.

  Byte-identical to `json.dumps(obj, indent=2, sort_keys=True) + "\\n"`;
  see the module docstring for why it is written here.
  """
  return _encode(obj, "\n") + "\n"
