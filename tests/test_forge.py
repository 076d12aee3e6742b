"""Fixture generators: the 3x3 family, the 5x5 shift, and rank samplers."""

import random
from fractions import Fraction

import pytest

from helpers import naive_rank, rows_of
from propermap.certify import (
  NONPROPER,
  certify,
  corank1_decide,
  verify_certificate,
)
from propermap.forge import (
  Family3x3Params,
  density_experiment,
  forge_3x3,
  golden_3x3,
  golden_3x3_params,
  sample_rank_r,
  shift_5x5,
)
from propermap.linalg import RatMatrix, RatVector, rank


def test_params_reject_broken_equality_constraint():
  with pytest.raises(ValueError, match="a11 \\+ a13\\*lam == a21 \\+ a23\\*lam"):
    Family3x3Params(1, 0, 5, 0, 2)


def test_params_reject_lam_one():
  with pytest.raises(ValueError, match="lam = 1"):
    Family3x3Params.from_free(1, 0, 0, 1)


def test_params_reject_dependent_rows():
  # equal rows satisfy the equality constraint but kill the rank
  with pytest.raises(ValueError, match="rank-2"):
    Family3x3Params(1, 0, 1, 0, 2)


def test_params_free_tuple_round_trip():
  rng = random.Random(3)
  built = 0
  while built < 25:
    try:
      p = Family3x3Params.from_free(
        Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])),
        Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])),
        Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])),
        Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))
    except ValueError:
      continue
    assert Family3x3Params.from_free(p.a11, p.a12, p.a22, p.lam) == p
    built += 1


def test_golden_parameters_are_frozen():
  p = golden_3x3_params()
  assert (p.a11, p.a12, p.a22, p.lam) == (-1, -1, 0, 0)


def test_golden_matrix_is_frozen():
  assert rows_of(golden_3x3()) == [
    [Fraction(-1), Fraction(-1), Fraction(2)],
    [Fraction(-1), Fraction(0), Fraction(1)],
    [Fraction(-1), Fraction(0), Fraction(1)],
  ]


def test_shift_matrix_is_frozen():
  S = shift_5x5()
  expected = [[0] * 5 for _ in range(5)]
  expected[0][2] = expected[1][3] = expected[2][4] = 1
  assert rows_of(S) == [[Fraction(v) for v in row] for row in expected]


def test_family_members_have_the_designed_kernel():
  rng = random.Random(17)
  built = 0
  while built < 20:
    try:
      p = Family3x3Params.from_free(
        rng.randint(-5, 5), rng.randint(-5, 5),
        rng.randint(-5, 5), rng.randint(-5, 5))
    except ValueError:
      continue
    A = forge_3x3(p)
    assert A.apply(RatVector.of([1, 1, 1])).is_zero()
    assert rank(A) == 2
    # third row is the promised affine combination of the first two
    rows = rows_of(A)
    for j in range(3):
      assert rows[2][j] == p.lam * rows[0][j] + (1 - p.lam) * rows[1][j]
    built += 1


def test_family_members_certify_non_proper():
  rng = random.Random(29)
  built = 0
  while built < 15:
    try:
      p = Family3x3Params.from_free(
        rng.randint(-4, 4), rng.randint(-4, 4),
        rng.randint(-4, 4), rng.randint(-4, 4))
    except ValueError:
      continue
    A = forge_3x3(p)
    cert = corank1_decide(A)
    assert cert.verdict == NONPROPER
    assert verify_certificate(A, cert)
    built += 1


def test_sample_rank_r_hits_the_exact_rank():
  for m, r in [(2, 1), (3, 2), (4, 2), (5, 3), (4, 4)]:
    A = sample_rank_r(m, r, seed=m * 10 + r)
    assert rank(A) == r
    assert naive_rank(rows_of(A)) == r


def test_sample_rank_r_edge_ranks():
  assert sample_rank_r(3, 0, seed=1) == RatMatrix.zero(3, 3)
  A = sample_rank_r(3, 3, seed=2)
  assert rank(A) == 3


def test_sample_rank_r_is_seed_deterministic():
  assert sample_rank_r(4, 2, seed=9) == sample_rank_r(4, 2, seed=9)


def test_sample_rank_r_rejects_bad_rank():
  with pytest.raises(ValueError):
    sample_rank_r(3, 4)
  with pytest.raises(ValueError):
    sample_rank_r(3, -1)


def test_density_experiment_rows_and_counts():
  summary = density_experiment(3, 2, trials=6, seed=100)
  assert summary.trials == 6
  assert len(summary.rows) == 6
  assert [row.seed for row in summary.rows] == list(range(100, 106))
  assert sum(summary.counts.values()) == 6
  for row in summary.rows:
    assert row.m == 3 and row.r == 2
    # every row's verdict matches a fresh run on the same seed
    cert = certify(sample_rank_r(3, 2, seed=row.seed))
    assert cert.verdict == row.verdict
    assert cert.reason == row.reason


def test_density_experiment_csv_shape():
  summary = density_experiment(2, 1, trials=3, seed=7)
  lines = summary.to_csv().splitlines()
  assert lines[0] == "seed,m,r,verdict,reason"
  assert len(lines) == 4
  for line, row in zip(lines[1:], summary.rows):
    cells = line.split(",")
    assert cells[0] == str(row.seed)
    assert cells[3] == row.verdict
    assert cells[4] == row.reason


def test_density_experiment_rejects_zero_trials():
  with pytest.raises(ValueError):
    density_experiment(3, 2, trials=0)
