"""Jacobian determinant analysis and sign-pattern search."""

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (full_minor_walk, naive_det, naive_jacobian,
                     naive_unimodular, rows_of)
from propermap import cli, keller
from propermap.certify import certify
from propermap.forge import sample_rank_r, shift_5x5
from propermap.jsonio import dumps, matrix_to_json
from propermap.keller import (
  find_sign_pattern,
  invertibility_verdict,
  is_druzkowski,
  jacobian_at_point,
)
from propermap.linalg import RatMatrix, RatVector


def _refutes(A, rep, k=3):
  """rep is False with a counterexample whose exact det JF is not 1."""
  return (rep.unimodular is False and rep.counterexample is not None
          and naive_det(naive_jacobian(A, rep.counterexample, k)) != 1)


def test_jacobian_det_of_zero_matrix_is_one():
  rng = random.Random(0)
  for _ in range(10):
    x = RatVector.of([rng.randint(-9, 9) for _ in range(3)])
    assert jacobian_at_point(RatMatrix.zero(3, 3), x) == RatMatrix.identity(3)


def test_jacobian_det_one_dimensional():
  # d/dx of x + (a x)^3 is 1 + 3 a^3 x^2
  for a in (Fraction(2), Fraction(-1), Fraction(1, 2)):
    for x in (Fraction(0), Fraction(3), Fraction(-1, 4)):
      J = jacobian_at_point(RatMatrix.of([[a]]), RatVector.of([x]))
      assert J.entry(0, 0) == 1 + 3 * a ** 3 * x ** 2


def test_jacobian_det_of_shift_is_constant_one():
  rng = random.Random(1)
  for _ in range(20):
    x = RatVector.of([rng.randint(-50, 50) for _ in range(5)])
    assert naive_det(rows_of(jacobian_at_point(shift_5x5(), x))) == 1


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4).flatmap(
  lambda m: st.lists(
    st.lists(st.integers(-3, 3), min_size=m, max_size=m),
    min_size=m, max_size=m)).map(RatMatrix.of))
def test_jacobian_det_matches_pointwise_cofactor_determinant(A):
  rng = random.Random(0)
  for _ in range(20):
    x = RatVector.of([rng.randint(-5, 5) for _ in range(A.m)])
    J = jacobian_at_point(A, x)
    assert rows_of(J) == naive_jacobian(A, x)


def _permuted_nilpotent(data):
  m, entries, perm = data
  rows = [[entries[i * m + j] if j > i else 0 for j in range(m)]
          for i in range(m)]
  return RatMatrix.of([[rows[perm[i]][perm[j]] for j in range(m)]
                       for i in range(m)])


small_matrices = st.one_of(
  st.integers(1, 3).flatmap(lambda m: st.lists(
    st.lists(st.integers(-2, 2), min_size=m, max_size=m),
    min_size=m, max_size=m)).map(RatMatrix.of),
  st.integers(2, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(-3, 3), min_size=m * m, max_size=m * m),
    st.permutations(range(m)))).map(_permuted_nilpotent))


@settings(deadline=None, max_examples=60)
@given(small_matrices, st.sampled_from([1, 2, 3]))
def test_is_druzkowski_matches_the_grid_oracle(A, k):
  rep = is_druzkowski(A, k)
  assert rep.unimodular == naive_unimodular(A, k)
  if not rep.unimodular:
    assert _refutes(A, rep, k)


def test_is_druzkowski_identity_is_not():
  rep = is_druzkowski(RatMatrix.identity(2))
  assert not rep.unimodular
  # the determinant is (1 + 3 x1^2)(1 + 3 x2^2), visibly non constant
  assert _refutes(RatMatrix.identity(2), rep)


def test_is_druzkowski_shift_exact():
  rep = is_druzkowski(shift_5x5())
  assert rep.unimodular is True
  assert bool(rep)


def test_is_druzkowski_zero_matrix():
  assert is_druzkowski(RatMatrix.zero(3, 3)).unimodular


def test_is_druzkowski_non_triangular_rank_one():
  # A = u v^T has det JF = 1 + 3 (v.x)^2 sum_i u_i^3 v_i, and 1 + 7 - 8 = 0
  u = (1, 1, 2)
  for v, want in (((1, 7, -1), True), ((1, 7, -2), False), ((2, 7, -1), False)):
    A = RatMatrix.of([[a * b for b in v] for a in u])
    rep = is_druzkowski(A)
    assert rep.unimodular is want
    assert want or _refutes(A, rep)


def test_is_druzkowski_walks_every_level_and_the_lattice_interior():
  # zero diagonal, so P_1 = 0, but det JF = 1 - 9 x1^2 x2^2 through P_2
  swap = RatMatrix.of([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
  # Im A = {(t1, t2, t1 + t2)} and P_1 = 3 (-t1^2 - t2^2 + (t1 + t2)^2)
  # vanishes at the lattice vertices (2, 0) and (0, 2) but not at (1, 1)
  mixed = RatMatrix.of([[-1, 0, 1], [0, -1, 0], [-1, -1, 1]])
  for A in (swap, mixed):
    assert not naive_unimodular(A)
    assert _refutes(A, is_druzkowski(A))


def test_is_druzkowski_counterexample_can_need_a_multiple():
  # at x = A^-1 (1, 1) det JF = det(I + 3A) = 2 * 1/2 = 1, so the
  # counterexample is 2x, where det JF = det(I + 12A) = -5
  A = RatMatrix.diagonal([Fraction(1, 3), Fraction(-1, 6)])
  rep = is_druzkowski(A)
  assert _refutes(A, rep)
  assert rep.counterexample == RatVector.of([6, -12])


def test_is_druzkowski_exact_at_dimension_eight():
  shift = RatMatrix.of([[1 if j == i + 1 else 0 for j in range(8)]
                        for i in range(8)])
  assert is_druzkowski(shift).unimodular is True
  # a diagonal conjugation D N D^-3 of a nilpotent N stays Drużkowski
  d = [1, 2, -1, 3, 1, -2, 1, 2]
  N = [[(i + 2 * j) % 5 - 2 if j > i else 0 for j in range(8)] for i in range(8)]
  B = RatMatrix.of([[Fraction(d[i] * N[i][j], d[j] ** 3) for j in range(8)]
                    for i in range(8)])
  assert is_druzkowski(B).unimodular is True


def test_is_druzkowski_identity_eight_has_an_exact_counterexample():
  rep = is_druzkowski(RatMatrix.identity(8))
  assert _refutes(RatMatrix.identity(8), rep)


def test_is_druzkowski_reports_none_past_the_lattice_cap(monkeypatch, tmp_path,
                                                          capsys):
  monkeypatch.setattr(keller, "LATTICE_CAP", 3)
  # every index of this dense matrix lies on a cycle of its support
  A = sample_rank_r(5, 3, seed=0)
  rep = is_druzkowski(A)
  assert rep.unimodular is None
  assert not rep
  assert "LATTICE_CAP = 3" in rep.note
  assert invertibility_verdict(A, "Proper") == "undetermined"
  path = tmp_path / "s.json"
  path.write_text(dumps(matrix_to_json(A)))
  assert cli.main(["druzkowski", "--input", str(path)]) == 2
  assert json.loads(capsys.readouterr().out)["druzkowski"] is None


def test_is_druzkowski_acyclic_support_forms_no_minor(monkeypatch):
  # the 18x18 shift is nilpotent: no index lies on a cycle of its support,
  # so every principal minor vanishes and no minor need be formed
  def refuse(M, size):
    raise AssertionError("a principal minor was formed")
  monkeypatch.setattr(keller, "nonzero_principal_minors", refuse)
  shift = RatMatrix.of([[1 if j == i + 1 else 0 for j in range(18)]
                        for i in range(18)])
  assert is_druzkowski(shift).unimodular is True
  # the same holds for any permuted strictly triangular support
  perm = [3, 0, 4, 1, 2]
  N = [[(i * j) % 3 - 1 if j > i else 0 for j in range(5)] for i in range(5)]
  B = RatMatrix.of([[N[perm[i]][perm[j]] for j in range(5)] for i in range(5)])
  assert is_druzkowski(B).unimodular is True


def _sparse(rng, m):
  p = rng.choice([0.15, 0.25, 0.4])
  return RatMatrix.of([[rng.choice([-2, -1, 1, 2]) if rng.random() < p else 0
                        for _ in range(m)] for _ in range(m)])


def _rank_one_core_with_sources(rng, m):
  """u v^T on a core of c indices with sum u_i^3 v_i = 0 (Drużkowski for
  k = 3), plus m - c source indices whose rows point into the core and to
  later sources only, so they lie on no cycle; indices then permuted."""
  c = rng.randint(2, min(4, m - 1))
  u = [rng.choice([-2, -1, 1, 2]) for _ in range(c - 1)] + [1]
  v = [rng.randint(-2, 2) for _ in range(c - 1)]
  v.append(-sum(a ** 3 * b for a, b in zip(u, v)))
  rows = [[u[i] * v[j] if j < c else 0 for j in range(m)] for i in range(c)]
  for i in range(c, m):
    rows.append([rng.choice([0, 0, 1, -1, 2]) if j < c or j > i else 0
                 for j in range(m)])
  perm = list(range(m))
  rng.shuffle(perm)
  return RatMatrix.of([[rows[perm[i]][perm[j]] for j in range(m)]
                       for i in range(m)])


def test_is_druzkowski_matches_the_full_minor_walk_on_sparse_matrices():
  rng = random.Random(23)
  answers = []
  for i in range(100):
    m = rng.randint(3, 7)
    A = _sparse(rng, m) if i % 3 else _rank_one_core_with_sources(rng, m)
    for k in (2, 3):
      rep = is_druzkowski(A, k)
      assert rep.unimodular == full_minor_walk(A, k)
      assert rep.unimodular or _refutes(A, rep, k)
      cyclic = len(keller._cycle_indices(A))
      answers.append((rep.unimodular, 0 < cyclic < m))
  # unimodular answers with and without a partly cyclic support both occur
  assert answers.count((True, True)) >= 10
  assert answers.count((True, False)) >= 10
  assert answers.count((False, True)) >= 10


def test_druzkowski_invariant_under_diagonal_conjugation():
  rng = random.Random(5)
  for trial in range(10):
    m = rng.choice([3, 4])
    rows = [[rng.randint(-2, 2) if j > i else 0 for j in range(m)]
            for i in range(m)]
    A = RatMatrix.of(rows)
    d = [Fraction(rng.choice([1, 2, 3, -1, -2])) for _ in range(m)]
    D = RatMatrix.diagonal(d)
    Dinv3 = RatMatrix.diagonal([1 / t ** 3 for t in d])
    B = D.matmul(A).matmul(Dinv3)
    assert is_druzkowski(A).unimodular == is_druzkowski(B).unimodular


def test_sign_pattern_nonnegative_matrix():
  A = RatMatrix.of([[1, 2], [0, 3]])
  p = find_sign_pattern(A)
  assert p is not None
  assert p.delta == (1, 1)
  assert p.global_sign == 1


def test_sign_pattern_nonpositive_matrix():
  A = RatMatrix.of([[-1, -2], [0, -3]])
  p = find_sign_pattern(A)
  assert p is not None
  assert p.global_sign == -1


def _scan_inequality(A: RatMatrix, delta) -> bool:
  m = A.m
  entries = [(i, j) for i in range(m) for j in range(m)
             if A.entry(i, j) != 0]
  for i, j in entries:
    for k, l in entries:
      prod = delta[i] * delta[j] * delta[k] * delta[l] * \
          A.entry(i, j) * A.entry(k, l)
      if prod < 0:
        return False
  return True


def test_sign_pattern_round_trip_random():
  rng = random.Random(11)
  for trial in range(40):
    m = rng.choice([2, 3, 4, 5])
    B = [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
    delta_hat = [rng.choice([1, -1]) for _ in range(m)]
    sign = rng.choice([1, -1])
    A = RatMatrix.of([[sign * delta_hat[i] * B[i][j] * delta_hat[j]
                       for j in range(m)] for i in range(m)])
    p = find_sign_pattern(A)
    assert p is not None
    assert _scan_inequality(A, p.delta)


def test_sign_pattern_contradiction_returns_none():
  rng = random.Random(12)
  for trial in range(40):
    m = rng.choice([3, 4, 5])
    B = [[rng.randint(1, 3) for _ in range(m)] for _ in range(m)]
    delta_hat = [rng.choice([1, -1]) for _ in range(m)]
    rows = [[delta_hat[i] * B[i][j] * delta_hat[j] for j in range(m)]
            for i in range(m)]
    # one flipped off-diagonal entry creates an odd sign cycle, and the
    # positive diagonal rules out a global minus sign
    i = rng.randrange(m)
    j = (i + 1 + rng.randrange(m - 1)) % m
    rows[i][j] = -rows[i][j]
    assert find_sign_pattern(RatMatrix.of(rows)) is None


def test_sign_pattern_zero_entries_impose_nothing():
  assert find_sign_pattern(RatMatrix.zero(3, 3)) is not None


def test_invertibility_verdict_cases():
  S = shift_5x5()
  assert invertibility_verdict(S, certify(S).verdict) == "invertible"
  assert invertibility_verdict(S, "NonProper") == "not invertible"
  # identity is proper but not unimodular, so properness alone cannot settle it
  assert invertibility_verdict(RatMatrix.identity(2), "Proper") == "undetermined"
  assert invertibility_verdict(RatMatrix.identity(2), "Undecided") == "undetermined"
