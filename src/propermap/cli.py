"""Command-line interface.

Subcommands: analyze (properness certificate), druzkowski (exact test of
det JF == 1), witness (validate an escape curve), probe (numeric
minimum-norm scan), forge (built-in example matrices), density (seeded random
rank-stratified experiment, CSV), signs (sign-pattern search).

Exit codes: 0 for decisive results, 2 for Undecided or inconclusive ones
(druzkowski prints null when its test would pass its size cap), 1 for
input errors.  All randomness is seed-controlled and every byte of
output is deterministic for a fixed (input, seed) pair.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import forge as forge_mod
from . import jsonio
from .certify import certify, k1_properness, verify_certificate
from .keller import find_sign_pattern, is_druzkowski
from .linalg import RatMatrix
from .witness import probe_mu, validate_witness


class _UsageError(Exception):
  pass


class _Parser(argparse.ArgumentParser):
  """argparse that reports usage problems as exit code 1, not 2."""

  def error(self, message):
    raise _UsageError(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
  parser = _Parser(prog="propermap",
                   description="Certify properness of x + (Ax)^k and "
                               "generate or validate escape witnesses.")
  sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

  def add_common(p, *, k=False):
    p.add_argument("--input", required=True,
                   help="path to the input JSON file")
    if k:
      p.add_argument("--k", type=int, default=3,
                     help="power of the map (default 3)")
    p.add_argument("--out", help="write output here instead of stdout")

  p = sub.add_parser("analyze", help="decide properness and emit a certificate")
  add_common(p, k=True)

  p = sub.add_parser("druzkowski", help="decide whether det JF is identically 1")
  add_common(p, k=True)

  p = sub.add_parser("witness", help="check an escape curve and replay its "
                                     "points")
  add_common(p)
  p.add_argument("--schedule",
                 help="comma-separated increasing gammas, e.g. 10,100,1000")

  p = sub.add_parser("probe", help="scan min |F| over growing spheres")
  add_common(p, k=True)
  p.add_argument("--seed", type=int, default=0,
                 help="seed for the random starts (default 0)")
  p.add_argument("--radii", help="comma-separated increasing sphere radii")

  p = sub.add_parser("forge", help="emit a built-in example matrix")
  p.add_argument("what", choices=["3x3", "5x5"],
                 help="which example: the non-proper 3x3 family member "
                      "or the proper 5x5 shift")
  p.add_argument("--out", help="write output here instead of stdout")

  p = sub.add_parser("density", help="certify random rank-r samples, emit CSV")
  p.add_argument("--m", type=int, required=True, help="matrix size")
  p.add_argument("--r", type=int, required=True, help="target rank")
  p.add_argument("--trials", type=int, required=True, help="number of samples")
  p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
  p.add_argument("--out", help="write CSV here instead of stdout")

  p = sub.add_parser("signs", help="search for a coordinate sign pattern")
  add_common(p)
  return parser


def _read_json(path: str):
  try:
    text = Path(path).read_text()
  except OSError as err:
    raise ValueError(f"cannot read input file: {err}") from None
  try:
    return json.loads(text)
  except json.JSONDecodeError as err:
    raise ValueError(f"malformed JSON in {path}: {err}") from None


def _read_matrix(path: str) -> RatMatrix:
  return jsonio.matrix_from_json(_read_json(path))


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
  try:
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
  except ValueError:
    raise ValueError(f"{flag} must be a comma-separated list of numbers")
  if not all(map(math.isfinite, values)):
    # NaN passes every ordering test below, and inf is no scale
    raise ValueError(f"{flag} values must be finite numbers")
  if len(values) < 2:
    raise ValueError(f"{flag} needs at least two values")
  if any(b <= a for a, b in zip(values, values[1:])) or values[0] <= 0:
    raise ValueError(f"{flag} values must be positive and increasing")
  return values


def _emit(text: str, out: str | None) -> None:
  if out:
    Path(out).write_text(text)
  else:
    sys.stdout.write(text)


def _cmd_analyze(args) -> int:
  A = _read_matrix(args.input)
  if args.k == 1:
    cert = k1_properness(A)
  elif args.k == 3:
    cert = certify(A)
  else:
    raise ValueError(f"field 'k' must be 1 or 3 for analyze, got {args.k}")
  _emit(jsonio.dumps(jsonio.certificate_to_json(cert)), args.out)
  return 0 if cert.decided else 2


def _cmd_druzkowski(args) -> int:
  A = _read_matrix(args.input)
  if args.k < 1:
    raise ValueError("field 'k' must be a positive integer")
  report = is_druzkowski(A, args.k)
  payload = {"druzkowski": report.unimodular,
             "k": report.k,
             "counterexample": (None if report.counterexample is None
                                else jsonio.vector_to_json(report.counterexample)),
             "note": report.note}
  _emit(jsonio.dumps(payload), args.out)
  return 2 if report.unimodular is None else 0


def _cmd_witness(args) -> int:
  obj = _read_json(args.input)
  if not isinstance(obj, dict):
    raise ValueError("witness input must be a JSON object")
  if "verdict" in obj:
    cert = jsonio.certificate_from_json(obj)
    if not verify_certificate(cert.matrix, cert):
      raise ValueError("certificate does not verify against its own matrix")
    A = cert.matrix
    curve = cert.witness()
    if curve is None:
      raise ValueError("certificate carries no escape curve to validate")
  elif "recipe" in obj:
    raise ValueError(jsonio.RETIRED_RECIPE)
  elif "matrix" in obj and "curve" in obj:
    extra = set(obj) - {"matrix", "curve"}
    if extra:
      raise ValueError(f"witness input has unexpected field {min(extra)!r}")
    A = jsonio.matrix_from_json(obj["matrix"])
    curve = jsonio.curve_from_json(obj["curve"], A.m)
  else:
    raise ValueError("witness input needs either certificate fields or "
                     "'matrix' plus 'curve'")
  gammas = None
  if args.schedule:
    gammas = _parse_float_list(args.schedule, "--schedule")
  report = (validate_witness(A, curve, gammas=gammas) if gammas
            else validate_witness(A, curve))
  _emit(jsonio.dumps(jsonio.validation_report_to_json(report)), args.out)
  return 0


def _cmd_probe(args) -> int:
  A = _read_matrix(args.input)
  if args.k < 1:
    raise ValueError("field 'k' must be a positive integer")
  radii = None
  if args.radii:
    radii = _parse_float_list(args.radii, "--radii")
  report = probe_mu(A, k=args.k, seed=args.seed, radii=radii)
  _emit(jsonio.dumps(jsonio.probe_report_to_json(report)), args.out)
  return 0 if report.classification != "Inconclusive" else 2


def _cmd_forge(args) -> int:
  if args.what == "3x3":
    params = forge_mod.golden_3x3_params()
    payload = {"matrix": jsonio.matrix_to_json(forge_mod.forge_3x3(params)),
               "params": {"a11": jsonio.rat_str(params.a11),
                          "a12": jsonio.rat_str(params.a12),
                          "a21": jsonio.rat_str(params.a21),
                          "a22": jsonio.rat_str(params.a22),
                          "lam": jsonio.rat_str(params.lam)}}
  else:
    payload = {"matrix": jsonio.matrix_to_json(forge_mod.shift_5x5())}
  _emit(jsonio.dumps(payload), args.out)
  return 0


def _cmd_density(args) -> int:
  summary = forge_mod.density_experiment(args.m, args.r, args.trials,
                                         seed=args.seed)
  _emit(summary.to_csv(), args.out)
  return 0


def _cmd_signs(args) -> int:
  A = _read_matrix(args.input)
  pattern = find_sign_pattern(A)
  if pattern is None:
    payload = {"found": False}
  else:
    payload = {"found": True,
               "delta": list(pattern.delta),
               "global_sign": pattern.global_sign}
  _emit(jsonio.dumps(payload), args.out)
  return 0


_DISPATCH = {"analyze": _cmd_analyze,
             "druzkowski": _cmd_druzkowski,
             "witness": _cmd_witness,
             "probe": _cmd_probe,
             "forge": _cmd_forge,
             "density": _cmd_density,
             "signs": _cmd_signs}


def main(argv=None) -> int:
  parser = _build_parser()
  try:
    args = parser.parse_args(argv)
  except _UsageError as err:
    print(str(err), file=sys.stderr)
    return 1
  try:
    return _DISPATCH[args.command](args)
  except (ValueError, TypeError) as err:
    print(f"error: {err}", file=sys.stderr)
    return 1


if __name__ == "__main__":
  sys.exit(main())
