"""Acceptance gate: one test per shipping criterion.

Each test prints a single summary line; pytest -v shows one pass/fail line
per criterion.  Tolerances and sample sizes are fixed here and must not be
loosened to make a failing build pass.
"""

import random
import time
from fractions import Fraction

from helpers import (
  naive_det,
  ones_kernel_sample,
  rand_antisymmetric,
  rand_int_matrix,
  rand_invertible,
  rand_rat_matrix,
  rand_symmetric,
  rand_upper_triangular,
  rows_of,
)
from propermap.certify import (
  NONPROPER,
  PROPER,
  certify,
  corank1_decide,
  k1_properness,
  necessary_escape_search,
)
from propermap.forge import Family3x3Params, forge_3x3, golden_3x3_params, shift_5x5
from propermap.hadamard import hpow
from propermap.keller import find_sign_pattern, is_druzkowski
from propermap.linalg import (
  RatMatrix,
  RatVector,
  Subspace,
  kernel_basis,
  rank,
)
from propermap.witness import probe_mu, validate_witness


def test_criterion_1_shift_fixture_under_a_tenth_second():
  start = time.perf_counter()
  S = shift_5x5()
  dz = is_druzkowski(S, 3)
  assert dz.unimodular is True
  cert = certify(S)
  assert cert.verdict == PROPER
  search = necessary_escape_search(S)
  assert search.candidate is not None
  image = search.image_vector
  assert image == RatVector.of([1, 1, 0, 0, 0])
  assert image == S.apply(search.candidate)
  assert S.apply(hpow(image, 3)).is_zero()
  # a candidate exists even though the map is proper, so the necessary
  # condition alone does not decide
  elapsed = time.perf_counter() - start
  assert elapsed < 0.1
  print(f"criterion 1: shift fixture decided in {elapsed * 1000:.1f} ms")


def test_criterion_2_family_refutations_validate():
  rng = random.Random(202)
  members = [golden_3x3_params()]
  while len(members) < 51:
    try:
      members.append(Family3x3Params.from_free(
        Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])),
        Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])),
        Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])),
        Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))))
    except ValueError:
      continue
  worst = 0.0
  for p in members:
    started = time.perf_counter()
    A = forge_3x3(p)
    cert = corank1_decide(A)
    assert cert.verdict == NONPROPER
    curve = cert.witness()
    report = validate_witness(A, curve)
    assert report.passed
    assert report.fitted_decay_exponent <= -0.2
    gamma = report.gammas[-1]
    assert gamma == 1e6
    ray_norm = gamma * float(sum(a * a for a in curve.coefficients[3])) ** 0.5
    assert abs(report.point_norms[-1] - ray_norm) <= 0.01 * ray_norm
    worst = max(worst, time.perf_counter() - started)
  assert worst < 1.0
  print(f"criterion 2: 51 family members refuted, worst {worst * 1000:.1f} ms")


def test_criterion_3_screen_suite_expected_reasons():
  def expected_reason(A):
    # first-firing order of the sufficient screens
    G = A.gram()
    if all(G.apply(b).is_zero() for b in kernel_basis(A).basis):
      return "kernel-in-gram-kernel"
    if rank(G) == 1:
      return "gram-rank-1"
    if A.is_upper_triangular() or A.is_lower_triangular():
      return "triangular"
    return None

  def rand_rank_one(rng, m):
    while True:
      u = [rng.randint(-3, 3) for _ in range(m)]
      v = [rng.randint(-3, 3) for _ in range(m)]
      if any(u) and any(v):
        return RatMatrix.of([[u[i] * v[j] for j in range(m)]
                             for i in range(m)])

  start = time.perf_counter()
  rng = random.Random(303)
  builders = [rand_symmetric, rand_antisymmetric, rand_invertible,
              rand_upper_triangular, rand_rank_one]
  checked = 0
  for build in builders:
    for i in range(100):
      m = 2 + i % 5
      A = build(rng, m)
      cert = certify(A)
      assert cert.verdict == PROPER, (rows_of(A), cert.verdict)
      want = expected_reason(A)
      assert want is not None
      assert cert.reason == want, (rows_of(A), cert.reason, want)
      checked += 1
  elapsed = time.perf_counter() - start
  assert checked == 500
  assert elapsed < 10.0
  print(f"criterion 3: 500 screen instances matched in {elapsed:.2f} s")


def test_criterion_4_conjugation_invariance():
  rng = random.Random(44)
  undecided = 0
  for _ in range(100):
    m = rng.choice([2, 3, 4])
    A = rand_int_matrix(rng, m, box=4)
    d = [Fraction(rng.choice([1, 2, 3, -1, -2, -3]), rng.choice([1, 2]))
         for _ in range(m)]
    D = RatMatrix.diagonal(d)
    B = D.matmul(A).matmul(RatMatrix.diagonal([1 / t ** 3 for t in d]))
    ca, cb = certify(A), certify(B)
    if not (ca.decided and cb.decided):
      undecided += 1
      continue
    assert ca.verdict == cb.verdict, (rows_of(A), d, ca.verdict, cb.verdict)
  print(f"criterion 4: 100 pairs, {100 - undecided} decisive agree, "
        f"{undecided} undecided (reported, not failed)")


def test_criterion_5_corank1_completeness_and_probe_agreement():
  rng = random.Random(55)
  agree = 0
  disagreements = []
  for i in range(100):
    A = ones_kernel_sample(rng, rng.choice([3, 4]))
    cert = corank1_decide(A)
    assert cert.verdict in (PROPER, NONPROPER), "corank-1 must be decisive"
    report = probe_mu(A, seed=i)
    matched = (cert.verdict == PROPER
               and report.classification == "GrowthObserved") or \
              (cert.verdict == NONPROPER
               and report.classification == "BoundedObserved")
    if matched:
      agree += 1
    else:
      disagreements.append((rows_of(A), cert.verdict, report.classification))
  for rows, verdict, cls in disagreements:
    print(f"probe limitation: certificate {verdict} but probe {cls} on {rows}")
  assert agree >= 90, f"probe agreement {agree}/100 below the 90% bar"
  print(f"criterion 5: 100 corank-1 instances decisive, "
        f"probe agreement {agree}/100")


def test_criterion_6_linear_case_exactness():
  rng = random.Random(66)
  for _ in range(1000):
    A = rand_int_matrix(rng, 4, box=3)
    d = naive_det(rows_of(RatMatrix.identity(4).add(A)))
    cert = k1_properness(A)
    assert cert.verdict == (PROPER if d != 0 else NONPROPER)
  print("criterion 6: 1000/1000 linear verdicts match the exact determinant")


def test_criterion_7_sign_pattern_round_trip():
  def scan_holds(A, delta):
    m = A.m
    rows = rows_of(A)
    for i in range(m):
      for j in range(m):
        for k in range(m):
          for l in range(m):
            prod = (delta[i] * delta[j] * delta[k] * delta[l]
                    * rows[i][j] * rows[k][l])
            if prod < 0:
              return False
    return True

  rng = random.Random(77)
  for trial in range(200):
    m = rng.choice([3, 4])
    sign = 1 if trial % 2 == 0 else -1
    B = [[sign * Fraction(rng.randint(0, 6), rng.choice([1, 2, 3]))
          for _ in range(m)] for _ in range(m)]
    hat = [rng.choice([1, -1]) for _ in range(m)]
    A = RatMatrix.of([[hat[i] * B[i][j] * hat[j] for j in range(m)]
                      for i in range(m)])
    pattern = find_sign_pattern(A)
    assert pattern is not None, (rows_of(A),)
    assert scan_holds(A, pattern.delta)

  for trial in range(200):
    m = rng.choice([3, 4])
    B = [[Fraction(rng.randint(1, 6)) for _ in range(m)] for _ in range(m)]
    hat = [rng.choice([1, -1]) for _ in range(m)]
    rows = [[hat[i] * B[i][j] * hat[j] for j in range(m)] for i in range(m)]
    # one flipped off-diagonal entry makes the positive-product side
    # parity-infeasible, while the strictly positive diagonal blocks the
    # negative-product side
    p, q = rng.sample(range(m), 2)
    rows[p][q] = -rows[p][q]
    assert find_sign_pattern(RatMatrix.of(rows)) is None, (rows,)
  print("criterion 7: 200 round trips satisfied, 200 planted "
        "contradictions returned none")


def test_criterion_8_exact_algebra_invariants():
  rng = random.Random(88)
  for _ in range(500):
    m = rng.choice([1, 2, 3, 4, 5])
    A = rand_rat_matrix(rng, m)
    kb = kernel_basis(A).basis
    r = rank(A)
    assert r + len(kb) == m
    rows = rows_of(A)
    for b in kb:
      for row in rows:
        assert sum(c * x for c, x in zip(row, b)) == 0
    # a nonzero vector of the row space is never killed by A
    w = RatVector.of([rng.randint(-3, 3) for _ in range(m)])
    z = A.transpose().apply(w)
    if not z.is_zero():
      assert not A.apply(z).is_zero()
    spanned = Subspace.span(kb, m)
    assert Subspace.span(spanned.basis, m) == spanned
    assert spanned.dim == len(kb)
  print("criterion 8: 500 matrices, zero invariant violations")


def test_criterion_9_small_dimensions_always_proper():
  rng = random.Random(99)
  for trial in range(200):
    m = 1 + trial % 2
    A = rand_rat_matrix(rng, m, box=6)
    cert = certify(A)
    assert cert.decided
    assert cert.verdict == PROPER, (rows_of(A), cert.verdict)
  print("criterion 9: 200 small matrices all decisively proper")
