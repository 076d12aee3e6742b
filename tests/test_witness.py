"""Witness validation, the sphere-minimum probe, and the linear fast path."""

import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
  ESCAPE_DIRECTION_SEEDS,
  conjugate_oracle,
  curve_coords,
  curve_of,
  family_member,
  laurent_residual_oracle,
  naive_curve_in_image,
  naive_det,
  naive_equations_hold,
  naive_rref,
  naive_rule_holds,
  ones_kernel_sample,
  planted_pattern,
  rand_int_matrix,
  rand_rat_matrix,
  reference_coords,
  reference_replay,
  rows_of,
  sphere_grid_min,
  src_env,
  two_class_kernel,
  two_pattern_kernel,
)
import propermap.witness as witness_module
from propermap.certify import NONPROPER, PROPER, certify, k1_properness
from propermap.forge import (
  Family3x3Params,
  forge_3x3,
  golden_3x3,
  sample_rank_r,
  shift_5x5,
)
from propermap.linalg import RatMatrix, RatVector
from propermap.recipes import (
  ConjugationFrame,
  EscapeCurve,
  build_witness_point,
  chain_curve,
  laurent_coords,
  simple_curve,
)
from propermap.witness import (
  DEFAULT_GAMMAS,
  EQUATIONS_FAIL,
  LEAVES_IMAGE,
  _laurent_residuals,
  _newton_table,
  general_k_witness,
  probe_mu,
  validate_witness,
)

ONES = RatVector.of([1, 1, 1])
E1 = RatVector.of([1, 0, 0])


def test_golden_recipe_validates():
  A = golden_3x3()
  curve = certify(A).witness()
  rep = validate_witness(A, curve)
  assert rep.passed
  assert rep.invariant_ok
  assert not rep.rejected
  # the leading residual order cancels, leaving decay like 1/gamma
  assert rep.fitted_decay_exponent <= -0.8
  # points hug the escape ray: at gamma = 1e6 the norm is gamma * sqrt(3)
  expected = rep.gammas[-1] * math.sqrt(3.0)
  assert abs(rep.point_norms[-1] - expected) <= 0.01 * expected
  assert all(b > a for a, b in zip(rep.point_norms, rep.point_norms[1:]))
  assert rep.direction_errors[-1] <= rep.direction_errors[0]


def test_corrupted_recipe_fails_loudly():
  # perturbing u off the kernel breaks A u = -x_inf, and the residuals grow
  # linearly instead of decaying
  A = golden_3x3()
  bad = simple_curve(ONES, RatVector.of([1, 1, 0]))
  rep = validate_witness(A, bad)
  assert not rep.passed
  assert not rep.invariant_ok
  assert rep.note == EQUATIONS_FAIL == "x + A(x^k) keeps a positive power of t"
  assert rep.fitted_decay_exponent >= 0.8


def test_fabricated_recipe_on_identity_is_refused():
  # A u = -x_inf holds but A(x_inf^3) = 0 does not: the identity is proper
  A = RatMatrix.identity(2)
  fake = simple_curve(RatVector.of([1, 1]), RatVector.of([-1, -1]))
  rep = validate_witness(A, fake)
  assert not rep.invariant_ok
  assert not rep.passed


def test_zero_u_recipe_is_rejected_not_crashed():
  # u = 0 leaves the bare ray t^3 x_inf, whose residual keeps t^3 x_inf; a
  # curve that does not grow, with its top vector zero or its top exponent
  # not positive, is rejected and never expanded
  A = golden_3x3()
  ray = simple_curve(ONES, RatVector.zero(3))
  assert ray == EscapeCurve(3, {3: ONES})
  assert build_witness_point(ray, 8.0) == pytest.approx((8.0, 8.0, 8.0))
  rep = validate_witness(A, ray)
  assert not rep.rejected and not rep.passed and rep.note == EQUATIONS_FAIL
  flat = EscapeCurve(3, {0: ONES, -3: E1})
  dead = EscapeCurve(3, {3: RatVector.zero(3), -3: E1})
  for curve, why in ((flat, "top exponent 0 is not positive"),
                     (dead, "top vector, at t^3, is zero")):
    assert len(build_witness_point(curve, 10.0)) == 3
    rep = validate_witness(A, curve)
    assert rep.rejected and not rep.passed and not rep.invariant_ok
    assert rep.note == "curve rejected: its " + why
    assert rep.residuals == rep.point_norms == ()


def test_recipe_of_another_size_is_refused():
  # checked before the expansion, which would pair entries silently
  A = golden_3x3()
  for numeric in (False, True):
    short = EscapeCurve(3, {3: RatVector.of([1, 1]),
                            -3: RatVector.of([1, 0])}, numeric)
    with pytest.raises(ValueError, match="length 2"):
      validate_witness(A, short)


def test_gamma_schedule_is_validated():
  A = golden_3x3()
  curve = certify(A).witness()
  with pytest.raises(ValueError):
    validate_witness(A, curve, gammas=(10.0,))
  with pytest.raises(ValueError):
    validate_witness(A, curve, gammas=(-1.0, 10.0, 100.0))
  # a repeated scale would leave the point norms unable to strictly grow
  with pytest.raises(ValueError, match="gammas must be distinct"):
    validate_witness(A, curve, gammas=(10, 10, 100))
  with pytest.raises(ValueError, match="gammas must be distinct"):
    validate_witness(A, curve, gammas=(100.0, 10.0, 1e2))
  # NaN passes every ordering test, so non-finite scales are named outright
  for bad in (float("nan"), float("inf")):
    with pytest.raises(ValueError, match="gammas must be finite"):
      validate_witness(A, curve, gammas=(10.0, bad, 100.0))
  assert validate_witness(A, curve, gammas=(100.0, 10.0, 1000.0)).passed


def _unconjugated(frame: ConjugationFrame, B: RatMatrix) -> RatMatrix:
  """The matrix A with frame.conjugate(A) == B."""
  m = B.m
  rows = [[Fraction(0)] * m for _ in range(m)]
  for i, oi in enumerate(frame.perm):
    for j, oj in enumerate(frame.perm):
      rows[oi][oj] = B.entry(i, j) * frame.diag[oj] ** 3 / frame.diag[oi]
  A = RatMatrix.of(rows)
  assert frame.conjugate(A) == B
  return A


def _pulled_back(frame: ConjugationFrame, curve: EscapeCurve) -> EscapeCurve:
  """The curve w = D^(-1) P^T z of A for the curve z of B, entry by entry:
  w[perm[i]] = z[i] / diag[perm[i]]."""
  def back(z):
    w = [None] * len(z)
    for i, o in enumerate(frame.perm):
      w[o] = z[i] / frame.diag[o]
    return RatVector.of(w)
  return EscapeCurve(curve.k, {e: back(z) for e, z in
                               curve.coefficients.items()}, curve.numeric)


def _framed_golden():
  """golden_3x3's curve pulled back through a frame, on the matrix the
  frame conjugates to golden_3x3."""
  G = golden_3x3()
  frame = ConjugationFrame((2, 0, 1), (Fraction(1, 2), Fraction(3), Fraction(-1)))
  return _unconjugated(frame, G), _pulled_back(frame, certify(G).witness())


def test_integer_conjugate_matches_the_fraction_formula():
  signs = set()
  for seed in range(200):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    A = rand_rat_matrix(rng, m)
    perm = list(range(m))
    rng.shuffle(perm)
    diag = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 5)) for _ in range(m))
    signs |= {d < 0 for d in diag}
    frame = ConjugationFrame(tuple(perm), diag)
    B = frame.conjugate(A)
    assert B == conjugate_oracle(perm, diag, A)
    assert all(type(x) is Fraction for row in B.rows for x in row)
    z = RatVector.of([_rat(rng) for _ in range(m)])
    assert frame.pull_back(z) == _pulled_back(
      frame, EscapeCurve(3, {3: z})).coefficients[3]
  assert signs == {True, False}


def test_framed_recipe_replays_once_as_its_conjugate(monkeypatch):
  # a curve found for B = P D A D^-3 P^T is pulled back to A's coordinates
  # once, when it is built: the validation never conjugates, expands the
  # curve once, and sees x + A(x^k) = (P D)^-1 (z + B(z^k))
  A, curve = _framed_golden()
  calls = Counter()

  def counted(name, fn):
    def wrapper(*args):
      calls[name] += 1
      return fn(*args)
    return wrapper
  monkeypatch.setattr(ConjugationFrame, "conjugate",
                      counted("conjugate", ConjugationFrame.conjugate))
  monkeypatch.setattr(witness_module, "laurent_coords",
                      counted("laurent_coords", laurent_coords))
  rep = validate_witness(A, curve)
  assert calls == {"laurent_coords": 1}
  assert rep.passed and rep.invariant_ok
  G, z = golden_3x3(), certify(golden_3x3()).witness()
  frame = ConjugationFrame((2, 0, 1), (Fraction(1, 2), Fraction(3), Fraction(-1)))
  want = laurent_residual_oracle(G, curve_coords(z), 3)
  got = laurent_residual_oracle(A, curve_coords(curve), 3)
  for e in set().union(*want, *got):
    r = RatVector.of([p.get(e, 0) for p in want])
    assert RatVector.of([p.get(e, 0) for p in got]) == frame.pull_back(r)


def _rat(rng, nonzero=False):
  num = rng.randint(1, 7) * rng.choice([1, -1]) if nonzero else rng.randint(-7, 7)
  return Fraction(num, rng.choice([1, 2, 3, 5, 9]))


# the framed curve among the corpus certificates: an escape-chain-numeric
# chain found on a conjugate, pulled back to A's coordinates
FRAMED_CHAIN_SEED = 10323


def _oracle_cases():
  """(B, curve) pairs: seeded random curves of both constructions and
  matrices, whose residuals keep every order, and certified curves, whose
  leading orders cancel."""
  rng = random.Random(18)
  cases = []
  for k in range(2, 6):
    for _ in range(4):
      m = rng.randint(2, 4)
      B = RatMatrix.of([[_rat(rng) for _ in range(m)] for _ in range(m)])
      x_inf = RatVector.of([_rat(rng, nonzero=True) for _ in range(m)])
      u = RatVector.of([_rat(rng) for _ in range(m)])
      curve = simple_curve(x_inf, u, k)
      assert curve_coords(curve) == reference_coords("simple", x_inf, u, k)
      cases.append((B, curve))
  for depth in (1, 2):
    for _ in range(4):
      m = rng.randint(3, 5)
      B = RatMatrix.of([[_rat(rng) for _ in range(m)] for _ in range(m)])
      pattern = [1] + [rng.randint(0, 1) for _ in range(m - 1)]
      vec = lambda: RatVector.of([_rat(rng) for _ in range(m)])
      extra = {}
      if depth == 2:
        extra = dict(v=vec(), v1=vec(), u_hat_root=RatVector.of(
          [0 if p else _rat(rng) for p in pattern]))
      x_inf, u1 = RatVector.of(pattern), vec()
      curve = chain_curve(x_inf, u1, v1=extra.get("v1"),
                          root=extra.get("u_hat_root"), v=extra.get("v"))
      assert curve_coords(curve) == reference_coords(
        "corank-chain", x_inf, None, u1=u1, **extra)
      cases.append((B, curve))
  certified = [golden_3x3(), planted_pattern(random.Random(70), 3),
               planted_pattern(random.Random(837), 4),
               planted_pattern(random.Random(57), 4),
               two_class_kernel(random.Random(119)),
               two_pattern_kernel(random.Random(FRAMED_CHAIN_SEED))]
  curves = [(A, certify(A).witness()) for A in certified] + [_framed_golden()]
  kinds = {(certify(A).reason, 1 in c.coefficients)
           for A, c in curves[:-1]}
  assert kinds == {("escape-direction", False), ("escape-chain", False),
                   ("escape-chain", True), ("escape-chain-numeric", True),
                   ("escape-direction-numeric", False)}
  # the framed chain: its 0/1 pattern, scaled by the frame, is no pattern
  top = curves[5][1].coefficients[3]
  assert any(a not in (0, 1) for a in top) and 0 in top
  return cases + curves


def test_laurent_residuals_match_the_fraction_oracle():
  cases = _oracle_cases()
  for B, curve in cases:
    coords = laurent_coords(curve)
    assert coords == curve_coords(curve)
    got = _laurent_residuals(B, coords, curve.k)
    want = laurent_residual_oracle(B, coords, curve.k)
    assert [list(p.items()) for p in got] == \
        [[(e, float(c)) for e, c in p.items()] for p in want]
  # x = t^3 x_inf + ..., so B(x^k) starts at order t^(3k); a certified
  # curve whose rule holds exactly cancels every order down to t^0
  exact = [(B, c) for B, c in cases[-7:] if not c.numeric]
  assert len(exact) == 4
  for B, curve in exact:
    for p in _laurent_residuals(B, laurent_coords(curve), curve.k):
      assert all(e < 0 for e in p), curve


def _solve_on(cons, cols, targets):
  """The vector z, zero outside coordinates cols, with z . cons[t] =
  targets[t] for every t; None when those coordinates cannot fix every
  product."""
  aug = [[c[j] for j in cols] + [Fraction(t)] for c, t in zip(cons, targets)]
  red, pivots = naive_rref(aug)
  if pivots != list(range(len(cols))):
    return None
  z = [Fraction(0)] * len(cons[0])
  for row, j in zip(red, cols):
    z[j] = row[-1]
  return z


def _simple_case(rng, x_inf, k, eq1, eq2, inside=False):
  """A matrix B and simple-curve data x_inf, u on it for which
  B x_inf^k = 0 holds exactly when eq1 and B u + x_inf = 0 exactly when
  eq2: each row of B is a random row moved onto both equations, then row 0
  is moved off the ones that should fail.  With `inside` every row also
  keeps B p = c for a random p and the curve's low term c = u / (k
  x_inf^(k-1)), so the curve lies in Im B when eq2 puts x_inf = -B u there
  too; without it a generic B of rank below m leaves c outside."""
  m = len(x_inf)
  w = [a ** k for a in x_inf]
  dot = lambda r, v: sum(a * b for a, b in zip(r, v))
  while True:
    u = [_rat(rng) for _ in range(m)]
    cons, want = [w, u], [[0, -xi] for xi in x_inf]
    if inside:
      c = [b / (k * a ** (k - 1)) for a, b in zip(x_inf, u)]
      cons.append([_rat(rng) for _ in range(m)])
      want = [t + [ci] for t, ci in zip(want, c)]
    cols = rng.sample(range(m), len(cons))
    if _solve_on(cons, cols, [1] + [0] * (len(cons) - 1)) is not None:
      break
  rows = []
  for target in want:
    r = [_rat(rng) for _ in range(m)]
    z = _solve_on(cons, cols, [t - dot(r, v) for t, v in zip(target, cons)])
    rows.append([a + b for a, b in zip(r, z)])
  bump = _solve_on(cons, cols, [int(not eq1), int(not eq2), 0][:len(cons)])
  rows[0] = [a + b for a, b in zip(rows[0], bump)]
  for i, row in enumerate(rows):
    assert (dot(row, w) == 0) == (eq1 or i > 0)
    assert (dot(row, u) + x_inf[i] == 0) == (eq2 or i > 0)
  return RatMatrix.of(rows), RatVector.of(x_inf), RatVector.of(u)


def test_expansion_invariants_equal_the_exact_check():
  # an exact curve's invariants are the witness rule read off its
  # residual expansion: x + B(x^k) keeps no positive power of t, and the
  # curve lies in Im B.  A simple curve's residual i carries
  # (B x_inf^k)_i at t^(3k) and (x_inf + B u)_i at t^3; the equations
  # alone refute nothing once the curve leaves Im B
  rng = random.Random(26)
  combos = Counter()
  for k in range(2, 6):
    for eq1, eq2, inside in itertools.product((True, False), repeat=3):
      for n in range(30):
        x_inf = [_rat(rng, nonzero=True)
                 for _ in range(rng.randint(3 if inside else 2, 4))]
        B, x, u = _simple_case(rng, x_inf, k, eq1, eq2, inside)
        curve = simple_curve(x, u, k)
        equations = naive_equations_hold(B, x, u, k)
        assert equations == (eq1 and eq2) == naive_rule_holds(B, curve)
        exact = equations and naive_curve_in_image(B, curve)
        rep = validate_witness(B, curve)
        assert not rep.rejected
        assert rep.invariant_ok == exact
        assert rep.passed == exact
        assert rep.note == ("" if exact else LEAVES_IMAGE if equations
                            else EQUATIONS_FAIL)
        if k == 3 and n % 2 == 0:
          # the curve pulled back through a frame, on the matrix the frame
          # conjugates to B: the rule and the verdict of the replay carry.
          # A frame scales by D^-3, so it conjugates the cubic map only
          perm = list(range(len(x_inf)))
          rng.shuffle(perm)
          frame = ConjugationFrame(tuple(perm), tuple(
            _rat(rng, nonzero=True) for _ in perm))
          framed = validate_witness(_unconjugated(frame, B),
                                    _pulled_back(frame, curve))
          assert (framed.invariant_ok, framed.note, framed.passed) == \
              (rep.invariant_ok, rep.note, rep.passed)
        combos[equations, exact] += 1
  assert len(combos) == 3 and min(combos.values()) >= 100
  # a curve that does not grow is not expanded: its invariants fail
  # whatever its rule says
  for holds in (True, False):
    B, x, u = _simple_case(rng, [Fraction(1), Fraction(-2), Fraction(2)], 3,
                           holds, holds, inside=True)
    curve = simple_curve(x, u)
    assert naive_rule_holds(B, curve) == holds
    for dead in (EscapeCurve(3, {**curve.coefficients, 3: RatVector.zero(3)}),
                 EscapeCurve(3, {e - 3: c
                                 for e, c in curve.coefficients.items()})):
      rep = validate_witness(B, dead)
      assert rep.rejected and not rep.passed and not rep.invariant_ok


def _assert_matches_reference(rep, ref):
  """Booleans and None exactly, floats to a relative 1e-12."""
  for name, want in ref.items():
    got = getattr(rep, name)
    if isinstance(want, tuple):
      assert len(got) == len(want), name
      assert all(math.isclose(a, b, rel_tol=1e-12)
                 for a, b in zip(got, want)), (name, got, want)
    elif isinstance(want, float):
      assert math.isclose(got, want, rel_tol=1e-12), (name, got, want)
    else:
      assert got == want, (name, got, want)


def test_replay_matches_the_naive_reference():
  cases = _oracle_cases()
  cases += [(A, certify(A).witness()) for A in
            (planted_pattern(random.Random(s), 3 + s % 2)
             for s in ESCAPE_DIRECTION_SEEDS)]
  # curves that do not grow, and one off by one coefficient
  B, curve = cases[0]
  top = max(curve.coefficients)
  cases += [(B, EscapeCurve(curve.k, {**curve.coefficients,
                                      top: RatVector.zero(B.m)})),
            (B, EscapeCurve(curve.k, {-1: curve.coefficients[top]}))]
  passed = Counter()
  for B, curve in cases:
    rep = validate_witness(B, curve)
    _assert_matches_reference(rep, reference_replay(B, curve, DEFAULT_GAMMAS))
    passed[rep.passed] += 1
  assert passed[True] >= len(ESCAPE_DIRECTION_SEEDS) + 6 and passed[False]


def test_recipe_shape_errors():
  with pytest.raises(ValueError, match="at least one term"):
    EscapeCurve(3, {})
  with pytest.raises(ValueError, match="one length"):
    EscapeCurve(3, {3: ONES, -3: RatVector.of([1, 0])})
  with pytest.raises(ValueError, match=">= 1"):
    EscapeCurve(0, {3: ONES})
  with pytest.raises(ValueError, match="positive"):
    build_witness_point(EscapeCurve(3, {3: ONES, -3: E1}), -3.0)
  # the coefficients are kept highest exponent first, whatever their order
  curve = EscapeCurve(3, {-5: E1, 1: E1, 3: ONES, -3: E1})
  assert list(curve.coefficients) == [3, 1, -3, -5]
  assert curve == EscapeCurve(3, dict(reversed(curve.coefficients.items())))
  assert curve_of(curve_coords(curve)) == curve


def test_probe_identity_reports_growth():
  rep = probe_mu(RatMatrix.identity(3), seed=1)
  assert rep.classification == "GrowthObserved"
  assert rep.mu_values[-1] > rep.mu_values[0]


def test_probe_zero_matrix_reports_growth():
  # the map degenerates to x itself, so mu(r) = r exactly
  rep = probe_mu(RatMatrix.zero(2, 2), seed=1)
  assert rep.classification == "GrowthObserved"
  for r, mu in zip(rep.radii, rep.mu_values):
    assert mu == pytest.approx(r, rel=1e-6)


def test_probe_golden_sees_the_bounded_escape_curve():
  rep = probe_mu(golden_3x3(), seed=0)
  assert rep.classification == "BoundedObserved"
  assert min(rep.mu_values) < 10.0


def test_probe_agrees_with_blocked_kernel_verdict():
  A = RatMatrix.of([[1, -1], [1, -1]])
  assert certify(A).verdict == PROPER
  assert probe_mu(A, seed=0).classification == "GrowthObserved"


def test_probe_schedule_validation():
  A = RatMatrix.identity(2)
  with pytest.raises(ValueError):
    probe_mu(A, radii=(1.0, 2.0, 4.0))
  with pytest.raises(ValueError):
    probe_mu(A, radii=(1.0, 2.0, 2.0, 4.0))
  with pytest.raises(ValueError):
    probe_mu(A, radii=(-1.0, 1.0, 2.0, 4.0))
  # a non-finite radius once sent the probe into an endless loop, so it is
  # tried in a child process under a timeout
  for bad in ("nan", "inf"):
    code = ("from propermap.linalg import RatMatrix\n"
            "from propermap.witness import probe_mu\n"
            "try:\n"
            f"  probe_mu(RatMatrix.identity(2), radii=(1, 2, 4, float('{bad}')))\n"
            "except ValueError as err:\n"
            "  print(err)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert proc.stdout == "radii must be finite\n"


@pytest.mark.parametrize("k", [0, -1, True, 2.0, "3"])
def test_probe_rejects_a_k_that_is_not_a_positive_integer(k):
  # at k = 0 the descent once measured x + (Ax)^2 and called this blocked
  # kernel line GrowthObserved
  with pytest.raises(ValueError, match="k must be a positive integer"):
    probe_mu(RatMatrix.of([[1, 1], [-1, -1]]), k=k)


def test_probe_is_deterministic_for_a_seed():
  A = golden_3x3()
  r1 = probe_mu(A, seed=7)
  r2 = probe_mu(A, seed=7)
  assert r1.mu_values == r2.mu_values
  assert r1.classification == r2.classification
  assert r1.seed == 7


# mu_values recorded from the damped Newton descent, which runs every row to
# rounding level.  The rows it kept within rel=1e-9 (identity, and golden and
# shift on radii 1..8) hold values recorded from the earlier gradient
# descents: golden's r = 8 sits 7.5e-10 above the converged minimum, the
# rest within 1e-15.  Stopping each row at its rounding floor (a trial
# within 1e-12 of its value) and escalating the damping on repeated
# rejections left every value here within rel=1e-9
RECORDED_MU = {
  ("golden", None): (
    0.18392219605285673, 0.16815514549980257, 0.1470174634711069,
    0.12464176650903287, 0.1034180643453017, 0.08453257312070983,
    0.06839434336571075, 0.05496175425946962, 0.0439707890826416,
    0.035076434165733916, 0.027929551878997236),
  ("golden", (1, 2, 4, 8)): (
    0.18392219605285676, 0.16815514549980268, 0.14701746347357617,
    0.12464176660213173),
  ("shift", None): (
    0.7595717054724644, 0.9761610838699526, 1.1101699860771979,
    1.223691695463555, 1.3351784522406664, 1.4506557819284485,
    1.5727806462178553, 1.7031119319325887, 1.8428240514254886,
    1.99296496374481, 2.1545597665126603),
  ("shift", (1, 2, 4, 8)): (
    0.7595717054724644, 0.9761610838699526, 1.110169986077198,
    1.223691695463555),
  ("identity", None): (
    1.333333333333333, 4.666666666666666, 25.333333333333332,
    178.66666666666666, 1381.333333333333, 10954.666666666666,
    87445.33333333333, 699178.6666666666, 5592661.333333333,
    44739754.666666664, 357914965.3333333),
  ("identity", (1, 2, 4, 8)): (
    1.333333333333333, 4.666666666666666, 25.333333333333332,
    178.66666666666666),
}
PROBE_FIXTURES = {"golden": golden_3x3, "shift": shift_5x5,
                  "identity": lambda: RatMatrix.identity(3)}


@pytest.mark.parametrize("name,radii", list(RECORDED_MU),
                         ids=[f"{n}-{'default' if r is None else 'short'}"
                              for n, r in RECORDED_MU])
def test_probe_matches_recorded_values(name, radii):
  rep = probe_mu(PROBE_FIXTURES[name](), seed=0, radii=radii)
  assert rep.mu_values == pytest.approx(RECORDED_MU[(name, radii)], rel=1e-9)


# mu_values that cover a 2-dimensional kernel, the dense-circle starts of
# m = 2, and k = 2.  The ones4 and rank3of5 rows and the default-schedule rows
# of family and golden k = 2 were recorded from the damped Newton descent;
# the rest hold the values of the earlier gradient descent that descended one
# sphere at a time, which agree with the Newton descent to 5e-11 or better
RECORDED_MU_MORE = {
  ("ones4", 3, None): (
    0.2292916524429043, 1.0332114752395876, 2.5233831638401507,
    5.403480506269016, 11.07371944393529, 22.36875180756578,
    44.958287665681596, 90.1584416670905, 180.32694646211073,
    360.4427840265088, 720.6128211073392),
  ("ones4", 3, (1, 2, 4, 8)): (
    0.2292916524429043, 1.0332114752395876, 2.5233831638401507,
    5.403480506269016),
  ("family", 3, None): (
    0.10965503462592595, 0.08640556246446807, 0.06744306899510635,
    0.052739234837661346, 0.04140343613631538, 0.03261698257088077,
    0.02576066404724908, 0.02038103871221911, 0.01614338156723923,
    0.012796341252699165, 0.010148084899455167),
  ("family", 3, (1, 2, 4, 8)): (
    0.10965503462592681, 0.08640556246467286, 0.06744306899609974,
    0.05273923483977552),
  ("two", 3, None): (
    2.233309782232038, 12.573427937791287, 90.51852059269187,
    704.3741435702037, 5595.645576389329, 44686.57226151227,
    357335.4451183658, 2858369.3209034717, 22866326.100098036,
    182929351.87300402, 1463432301.1317115),
  ("two", 3, (1, 2, 4, 8)): (
    2.233309782232038, 12.573427937791287, 90.51852059269187,
    704.3741435702037),
  ("rank3of5", 3, None): (
    0.32488726079629826, 0.6849172431716466, 1.4146730959357714,
    2.886169913119394, 5.844143280063999, 11.778895282473057,
    23.672051246175496, 47.48813616018036, 95.15779942389919,
    190.54435173784492, 381.37694753747246),
  ("rank3of5", 3, (1, 2, 4, 8)): (
    0.32488726079629826, 0.6849172431716466, 1.4146730959357714,
    2.886169913119394),
  ("golden", 2, None): (
    0.20069347834487727, 0.23347140843842898, 0.2613457830465298,
    0.2841277503827209, 0.3021070830163727, 0.3158998284551112,
    0.32625213503696, 0.3338957572353719, 0.33947150949425914,
    0.34350306888214893, 0.346399545494506),
  ("golden", 2, (1, 2, 4, 8)): (
    0.2006934783448773, 0.233471408438429, 0.26134578304652994,
    0.28412775038273874),
}
MORE_FIXTURES = {
  "ones4": lambda: ones_kernel_sample(random.Random(11), 4),
  "family": lambda: forge_3x3(Family3x3Params.from_free(1, 2, 1, -1)),
  "two": lambda: RatMatrix.of([[2, 1], [-1, 1]]),
  "rank3of5": lambda: sample_rank_r(5, 3, seed=2),
  "golden": golden_3x3,
}


@pytest.mark.parametrize("name,k,radii", list(RECORDED_MU_MORE),
                         ids=[f"{n}-k{k}-{'default' if r is None else 'short'}"
                              for n, k, r in RECORDED_MU_MORE])
def test_probe_matches_more_recorded_values(name, k, radii):
  rep = probe_mu(MORE_FIXTURES[name](), k=k, seed=0, radii=radii)
  assert rep.mu_values == pytest.approx(RECORDED_MU_MORE[(name, k, radii)],
                                        rel=1e-9)


def test_probe_classifications_match_recorded_ones_kernel_samples():
  rng = random.Random(404)
  classes = [probe_mu(ones_kernel_sample(rng, rng.choice([3, 4])),
                      seed=i).classification for i in range(20)]
  assert classes == ["GrowthObserved"] * 20


# the sphere probe reports a minimum, so it may not lose to a plain 2^16-point
# sphere grid; an unconverged descent does (the pocket matrix reads
# mu(8) = 2.644 against the grid's 1.63)
GRID_FIXTURES = {
  "pocket": lambda: RatMatrix.of([[-2, -3, 5], [0, -1, 1], [-2, -3, 5]]),
  "golden": golden_3x3,
  "ones3-0": lambda: ones_kernel_sample(random.Random(0), 3),
  "ones3-2": lambda: ones_kernel_sample(random.Random(2), 3),
}


@pytest.mark.parametrize("name", list(GRID_FIXTURES))
def test_probe_is_no_worse_than_a_sphere_grid(name):
  A = GRID_FIXTURES[name]()
  rep = probe_mu(A, seed=0)
  for r, mu in zip(rep.radii, rep.mu_values):
    assert mu <= sphere_grid_min(A, r) * (1 + 1e-9), r


# the seeds s in 0..2999 whose planted_pattern(Random(s), 3 + s % 2) certifies
# NonProper with reason escape-chain: an exact escape curve exists, so the
# sphere minima stay bounded along it
ESCAPE_CHAIN_SEEDS = (
  70, 278, 306, 333, 417, 430, 469, 472, 599, 819, 837, 883, 946, 954, 971,
  1043, 1094, 1162, 1256, 1500, 1603, 1665, 1773, 1815, 1834, 1886, 2054,
  2267, 2302, 2492, 2523, 2542, 2568, 2704, 2904)


def test_probe_agrees_with_escape_chain_certificates():
  classes = Counter()
  for s in ESCAPE_CHAIN_SEEDS:
    A = planted_pattern(random.Random(s), 3 + s % 2)
    assert certify(A).reason == "escape-chain", s
    classes[probe_mu(A, seed=0).classification] += 1
  assert classes["GrowthObserved"] == 0, classes
  assert classes["BoundedObserved"] >= 30, classes


def test_probe_solves_row_by_row_when_a_batch_is_refused(monkeypatch):
  # np.linalg.solve refuses a whole batch when one system in it is singular;
  # the descent then solves its rows one at a time, with the same results
  A = golden_3x3()
  want = probe_mu(A, seed=0, radii=(1, 2, 4, 8)).mu_values
  solve = np.linalg.solve

  def refuse_batches(a, b):
    if a.ndim == 3 and len(a) > 1:
      raise np.linalg.LinAlgError("Singular matrix")
    return solve(a, b)

  monkeypatch.setattr(np.linalg, "solve", refuse_batches)
  rep = probe_mu(A, seed=0, radii=(1, 2, 4, 8))
  assert rep.mu_values == pytest.approx(want, rel=1e-12)


# batched solves, one per descent round, of probe_mu at seed 0 on radii
# 1, 2, 4, 8, with the chain joining the running batch (ones4's chain
# reruns jobs); and the counts before rows stopped at their rounding floor
# and damping escalated on repeated rejections
PROBE_ROUNDS = {"golden": 48, "shift": 89, "ones4": 60}
EARLIER_PROBE_ROUNDS = {"golden": 78, "shift": 211, "ones4": 77}


@pytest.mark.parametrize("name", list(PROBE_ROUNDS))
def test_probe_round_count_is_pinned(monkeypatch, name):
  solve = np.linalg.solve
  rounds = 0

  def counting(a, b):
    nonlocal rounds
    rounds += a.ndim == 3
    return solve(a, b)

  monkeypatch.setattr(np.linalg, "solve", counting)
  A = {**MORE_FIXTURES, **PROBE_FIXTURES}[name]()
  probe_mu(A, seed=0, radii=(1, 2, 4, 8))
  assert rounds == PROBE_ROUNDS[name]
  assert rounds < EARLIER_PROBE_ROUNDS[name]


def test_probe_ends_when_every_row_hits_the_round_cap(monkeypatch):
  # PROBE_ITERATIONS caps each row's own rounds, rows joining late included
  monkeypatch.setattr(witness_module, "PROBE_ITERATIONS", 2)
  for A in (golden_3x3(), shift_5x5(), MORE_FIXTURES["ones4"]()):
    rep = probe_mu(A, seed=0, radii=(1, 2, 4, 8))
    assert len(rep.mu_values) == 4
    assert all(map(math.isfinite, rep.mu_values))


# mu_values and classifications of the bench's observe strata (all-ones
# kernels of size 3 and 4, and forge_3x3 members), recorded at seed 0 on
# radii 1, 2, 4, 8 before the descent stopped rows at their rounding floor:
# the faster rules must find the same minima.  The Proper ones4-b read
# BoundedObserved and the NonProper family-a Inconclusive are the probe's
# known misreadings (slow growth, and a minimum falling like 1/r).
OBSERVE_MU = {
  "ones3-a": ([[2, 2, -4], [1, -3, 2], [-3, -1, 4]], "GrowthObserved", (
    0.643706708459097, 1.4427313592382736, 3.055706591675057,
    6.305861036947204)),
  "ones3-b": ([[2, 2, -4], [-3, -3, 6], [0, 2, -2]], "GrowthObserved", (
    0.8214298434100579, 1.6520600909728331, 3.286406716540763,
    6.411887279725344)),
  "ones4-a": ([[0, -2, -2, 4], [-3, -2, -3, 8], [-1, -2, -3, 6],
               [1, 1, -1, -1]], "GrowthObserved", (
    0.018857260463674436, 0.3329560708771697, 1.1161995158592162,
    2.7612568554514874)),
  "ones4-b": ([[-3, -2, 2, 3], [-3, -2, 2, 3], [3, -1, -1, -1],
               [3, -3, 0, 0]], "BoundedObserved", (
    0.1970843441286732, 0.25876624596192116, 0.33289724223443296,
    0.4278217615275182)),
  "family-a": ([[2, -2, 0], [-1, 0, 1], [8, -6, -2]], "Inconclusive", (
    0.47434424326011754, 0.30395166147966823, 0.18516519046070237,
    0.12831095052683564)),
  "family-b": ([[5, 2, -7], [5, -1, -4], [5, -1, -4]], "BoundedObserved", (
    0.021204953275864153, 0.016103259264621268, 0.012437841814081824,
    0.009706493928368726)),
}


@pytest.mark.parametrize("name", list(OBSERVE_MU))
def test_probe_matches_recorded_observe_strata(name):
  rows, cls, mu = OBSERVE_MU[name]
  if name.startswith("ones"):
    assert all(sum(row) == 0 for row in rows)
  rep = probe_mu(RatMatrix.of(rows), seed=0, radii=(1, 2, 4, 8))
  assert rep.classification == cls
  assert rep.mu_values == pytest.approx(mu, rel=1e-9)


# classifications and mu_values of every matrix drawn by
# ones_kernel_sample(Random(s), 3 + s % 2) and family_member(Random(s)),
# s = 0..19, probed at seed s on radii 1, 2, 4, 8, recorded while the chain
# still waited for the fixed batch.  Minima near an escape curve reproduce
# only to about 3e-7, so values below 0.01 are not compared
SAMPLED_MU = {
  ("ones", 0): ("GrowthObserved", (
    0.6887584562305585, 1.2173768322352168, 1.9660605002853795,
    2.6321034253843143)),
  ("ones", 1): ("GrowthObserved", (
    0.6764968497938857, 1.4296777091654254, 2.952627767660821,
    6.018417230110704)),
  ("ones", 2): ("GrowthObserved", (
    0.2297284098512413, 1.2348600870909632, 2.9708852865574893,
    6.297250911507196)),
  ("ones", 3): ("GrowthObserved", (
    0.15401550815720894, 0.5733402998873226, 1.4732420109384063,
    3.346563130541316)),
  ("ones", 4): ("GrowthObserved", (
    0.3761881005641465, 0.920119995554282, 2.0294805121630635,
    4.278926775688494)),
  ("ones", 5): ("GrowthObserved", (
    0.3792982376438641, 0.6736693306069566, 1.2550123127083774,
    2.404735595655581)),
  ("ones", 6): ("GrowthObserved", (
    0.47132776067136967, 1.0441542441107345, 2.2017276306850353,
    4.5348726364290854)),
  ("ones", 7): ("GrowthObserved", (
    0.4034004541475191, 0.8915154245496139, 1.8745242143493754,
    3.8511836099978365)),
  ("ones", 8): ("GrowthObserved", (
    0.4369828467600812, 0.9776957069098453, 2.086522285103704, 4.3388146758294)),
  ("ones", 9): ("Inconclusive", (
    0.23954003926701004, 0.23505252877930377, 0.1999874617164082,
    0.060910412161215274)),
  ("ones", 10): ("GrowthObserved", (
    0.5405369016096452, 1.2265119797392436, 2.6190443014478526,
    5.433418601640372)),
  ("ones", 11): ("GrowthObserved", (
    0.2292916524429045, 1.0332114752395885, 2.5233831638401516,
    5.403480506269017)),
  ("ones", 12): ("GrowthObserved", (
    0.24126838795554784, 0.7570189634632803, 1.8300772143502446,
    4.03264988614541)),
  ("ones", 13): ("GrowthObserved", (
    0.21967909034630412, 0.7295733752815199, 1.7874575229887713,
    3.9565238760268135)),
  ("ones", 14): ("GrowthObserved", (
    0.580208168331179, 1.1945793871820907, 2.386623053871559,
    4.7359755891527255)),
  ("ones", 15): ("GrowthObserved", (
    0.40166029045340523, 0.9166107429667834, 1.9739689868790737,
    4.122441969386916)),
  ("ones", 16): ("GrowthObserved", (
    7.096232913279682e-17, 0.7813667434602, 1.9362591017021975,
    4.010881448100904)),
  ("ones", 17): ("GrowthObserved", (
    0.4171264009109091, 1.1708609583930558, 2.3530669456636626,
    4.712595669664029)),
  ("ones", 18): ("GrowthObserved", (
    0.3519104116424341, 0.5841372783436456, 1.048591191470251,
    1.9613778421066341)),
  ("ones", 19): ("GrowthObserved", (
    0.30492587378639996, 0.760471108821665, 1.710310647715338,
    3.6479328652392526)),
  ("family", 0): ("BoundedObserved", (
    0.05565992913239801, 0.04398850214096588, 0.03470632752460963,
    0.027406652389708765)),
  ("family", 1): ("BoundedObserved", (
    0.025193436581588968, 0.02081036254851202, 0.01693129715424188,
    0.013648033628078999)),
  ("family", 2): ("BoundedObserved", (
    0.02721399719296505, 0.02248797190600548, 0.018149992990783126,
    0.014502066696888336)),
  ("family", 3): ("BoundedObserved", (
    0.021270052590076832, 0.016529363421439274, 0.012954306309878353,
    0.010203394835637872)),
  ("family", 4): ("BoundedObserved", (
    0.01398922402190112, 0.010298737673890302, 0.007839282770604205,
    0.0060710391042455856)),
  ("family", 5): ("BoundedObserved", (
    0.0017832047239747131, 0.001411941336645592, 0.0011315242023835308,
    0.0009070884966445878)),
  ("family", 6): ("BoundedObserved", (
    0.005131449386251229, 0.004160327832579526, 0.003346725583145758,
    0.002678933354335763)),
  ("family", 7): ("Inconclusive", (
    0.12425219742544864, 0.06242818821353337, 0.040616729496051336,
    0.028953862706507225)),
  ("family", 8): ("Inconclusive", (
    0.019627030401851053, 0.009927758187449356, 0.006403406375739102,
    0.004524280060133579)),
  ("family", 9): ("BoundedObserved", (
    0.008467704680985996, 0.006581606790191694, 0.005159568593882641,
    0.004064652688280907)),
  ("family", 10): ("BoundedObserved", (
    0.009109282407730351, 0.007216675707802467, 0.005723077234516906,
    0.0045407764898759825)),
  ("family", 11): ("BoundedObserved", (
    0.04700091382886938, 0.040028080761072504, 0.03330194908841202,
    0.027281139774833776)),
  ("family", 12): ("BoundedObserved", (
    0.022229333195564176, 0.018740384713316256, 0.015487120712874749,
    0.012624594543148852)),
  ("family", 13): ("BoundedObserved", (
    0.004598095499411464, 0.003637246761721772, 0.0028806614459163816,
    0.0022832505101533836)),
  ("family", 14): ("BoundedObserved", (
    0.015176753439257777, 0.01179860528745486, 0.009276257528498196,
    0.007325186215235484)),
  ("family", 15): ("Inconclusive", (
    0.04276654095688824, 0.020488312115442563, 0.013457470768080647,
    0.009687494097711729)),
  ("family", 16): ("BoundedObserved", (
    0.007709296951507596, 0.005907743059641133, 0.0045912302919070115,
    0.0035973826165768717)),
  ("family", 17): ("BoundedObserved", (
    0.01958843198061664, 0.01607278688364623, 0.013034579680314712,
    0.010489852267059023)),
  ("family", 18): ("BoundedObserved", (
    0.013965123206711987, 0.010971118194268622, 0.008662798269056055,
    0.006856412103899896)),
  ("family", 19): ("BoundedObserved", (
    0.022539575260584557, 0.01615896358376494, 0.01212994647470167,
    0.009318279257120095)),
}
SAMPLERS = {
  "ones": lambda s: ones_kernel_sample(random.Random(s), 3 + s % 2),
  "family": lambda s: family_member(random.Random(s)),
}


@pytest.mark.parametrize("stratum", list(SAMPLERS))
def test_probe_matches_recorded_samples(stratum):
  for s in range(20):
    cls, mu = SAMPLED_MU[(stratum, s)]
    rep = probe_mu(SAMPLERS[stratum](s), seed=s, radii=(1, 2, 4, 8))
    assert rep.classification == cls, s
    for got, want in zip(rep.mu_values, mu):
      if want >= 0.01:
        assert got == pytest.approx(want, rel=1e-9), s


def _sigma_min(M: RatMatrix) -> float:
  rows = [[float(M.entry(i, j)) for j in range(M.m)] for i in range(M.m)]
  return float(np.linalg.svd(np.array(rows), compute_uv=False)[-1])


@pytest.mark.parametrize("A,k", [
  (RatMatrix.of([[-1]]), 3),          # m = 1: the sphere is two points
  (RatMatrix.of([[0]]), 3),           # m = 1 with a kernel start
  (shift_5x5(), 3),                   # m = 5: no dense starts
  (golden_3x3(), 1),                  # (Ax)^(k-1) is all ones
  (shift_5x5(), 1),
  (golden_3x3(), 2),
  (RatMatrix.of([[1, -1], [1, -1]]), 2),
  (RatMatrix.of([[-1]]), 4),          # k >= 4 weighs (Ax)^(k-2) in the Hessian
  (RatMatrix.of([[-1]]), 5),
  (shift_5x5(), 4),
  (shift_5x5(), 5),
], ids=["m1", "m1-kernel", "m5", "k1-golden", "k1-shift", "k2-golden",
        "k2-m2", "k4-m1", "k5-m1", "k4-shift", "k5-shift"])
def test_probe_batch_shapes(A, k):
  radii = (1.0, 2.0, 4.0, 8.0)
  rep = probe_mu(A, k=k, seed=5, radii=radii)
  assert rep.classification in ("GrowthObserved", "BoundedObserved",
                                "Inconclusive")
  assert len(rep.mu_values) == len(radii)
  assert probe_mu(A, k=k, seed=5, radii=radii).mu_values == rep.mu_values
  if A.m == 1:
    # the sphere is the two points +-r, where the map is s r + (a s r)^k
    a = float(A.entry(0, 0))
    assert rep.mu_values == pytest.approx(
      [min(abs(s * r + (a * s * r) ** k) for s in (1.0, -1.0))
       for r in radii], rel=1e-12)
  if k == 1:
    # x + Ax is linear, so mu(r) = r * sigma_min(I + A)
    s = _sigma_min(RatMatrix.identity(A.m).add(A))
    assert rep.mu_values == pytest.approx([r * s for r in radii], rel=1e-9)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("k", range(1, 6))
def test_newton_table_builds_the_bordered_matrix(m, k):
  # hstack([w, d, u]) @ T + eye is the probe's bordered Newton matrix
  # [[I + diag(d) A + A^T diag(d) + A^T diag(w) A, u], [u^T, 0]], with
  # w = d^2 + k(k-1) F a^(k-2): at k = 1 the weight of a^(k-2) is zero
  rng = np.random.default_rng(100 * m + k)
  A = rng.normal(size=(m, m))
  T, eye = _newton_table(A)
  assert T.shape == (3 * m, (m + 1) ** 2) and eye.shape == ((m + 1) ** 2,)
  X = rng.normal(size=(4, m))
  for x in X:
    a = A @ x
    F = x + a ** k
    d = k * a ** (k - 1)
    w = d * d + (k * (k - 1) * F * a ** (k - 2) if k >= 2 else 0.0)
    u = x / np.linalg.norm(x)
    want = np.zeros((m + 1, m + 1))
    want[:m, :m] = (np.eye(m) + np.diag(d) @ A + A.T @ np.diag(d)
                    + A.T @ np.diag(w) @ A)
    want[:m, m] = want[m, :m] = u
    got = (np.hstack([w, d, u]) @ T + eye).reshape(m + 1, m + 1)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_linear_case_zero_matrix():
  cert = k1_properness(RatMatrix.zero(3, 3))
  assert cert.verdict == PROPER
  assert cert.evidence["determinant"] == 1


def test_linear_case_negated_identity():
  A = RatMatrix.identity(2).scale(Fraction(-1))
  cert = k1_properness(A)
  assert cert.verdict == NONPROPER
  z = cert.evidence["kernel_vector"]
  assert not z.is_zero()
  assert RatMatrix.identity(2).add(A).apply(z).is_zero()


def test_linear_case_nilpotent_is_proper():
  cert = k1_properness(RatMatrix.of([[0, 1], [0, 0]]))
  assert cert.verdict == PROPER
  assert cert.evidence["determinant"] == 1


def test_linear_case_against_determinant_oracle():
  rng = random.Random(5)
  for trial in range(100):
    A = rand_int_matrix(rng, 4, box=3)
    M = RatMatrix.identity(4).add(A)
    d = naive_det(rows_of(M))
    cert = k1_properness(A)
    if d == 0:
      assert cert.verdict == NONPROPER
    else:
      assert cert.verdict == PROPER
      assert cert.evidence["determinant"] == d


def test_general_power_matches_cubic_recipe():
  A = golden_3x3()
  rec = general_k_witness(A, ONES, E1, 3)
  assert rec.k == 3
  assert validate_witness(A, rec).passed


def test_general_power_five_decays_faster():
  A = golden_3x3()
  rec = general_k_witness(A, ONES, E1, 5)
  rep = validate_witness(A, rec)
  assert rep.passed
  assert rep.fitted_decay_exponent <= -2.0


def test_general_power_two_flags_negative_image():
  A = golden_3x3()
  rec = general_k_witness(A, ONES, E1, 2)
  rep = validate_witness(A, rec)
  assert rep.passed
  assert rep.negative_image_coordinates


def test_general_power_refuses_a_curve_outside_the_image():
  # A x_inf^3 = 0 and A u = -x_inf hold, but u / (3 x_inf^2) = (-1/3, 0)
  # is not in Im A = span(1, 1), and the map is proper
  A = RatMatrix.of([[1, -1], [1, -1]])
  with pytest.raises(ValueError, match=r"t\^-3 term leaves Im A"):
    general_k_witness(A, RatVector.of([1, 1]), RatVector.of([-1, 0]), 3)


def test_general_power_names_the_failed_equation():
  A = golden_3x3()
  with pytest.raises(ValueError, match=r"A\(x_inf\^k\) = 0"):
    general_k_witness(A, RatVector.of([1, 1, 2]), E1, 3)
  with pytest.raises(ValueError, match=r"A u \+ x_inf = 0"):
    general_k_witness(A, ONES, RatVector.of([0, 1, 0]), 3)
  with pytest.raises(ValueError, match="no zero coordinate"):
    general_k_witness(A, RatVector.of([1, 0, 1]), E1, 3)
  with pytest.raises(ValueError, match=">= 2"):
    general_k_witness(A, ONES, E1, 1)
