"""Coordinatewise algebra, roots, and the two map evaluation forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import f_exact, f_hat_exact
from propermap.hadamard import (
  cube_root_classes,
  hpow,
  hprod,
  integer_kth_root,
  integer_root_floor,
  rational_cube_root_direction,
  rational_kth_root,
  rational_kth_root_approx,
)
from propermap.forge import shift_5x5
from propermap.linalg import RatMatrix, RatVector

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
vectors = st.lists(rationals, min_size=1, max_size=5).map(RatVector.of)


def test_hprod_pinned():
  assert hprod(RatVector.of([1, 2, 3]), RatVector.of([4, 5, 6])) == \
      RatVector.of([4, 10, 18])


def test_hprod_identity_and_annihilator():
  x = RatVector.of([5, -7, Fraction(1, 3)])
  assert hprod(x, RatVector.of([1, 1, 1])) == x
  assert hprod(x, RatVector.zero(3)) == RatVector.zero(3)


def test_hprod_length_mismatch():
  with pytest.raises(ValueError):
    hprod(RatVector.of([1]), RatVector.of([1, 2]))


def test_hpow_pinned():
  assert hpow(RatVector.of([1, -2]), 3) == RatVector.of([1, -8])
  assert hpow(RatVector.of([2, 3]), 2) == RatVector.of([4, 9])
  x = RatVector.of([3, -5])
  assert hpow(x, 1) == x


@settings(deadline=None, max_examples=100)
@given(vectors, st.sampled_from([1, 3, 5]))
def test_odd_root_inverts_odd_power(x, k):
  assert [rational_kth_root(a, k) for a in hpow(x, k)] == list(x)


@settings(deadline=None, max_examples=100)
@given(vectors.flatmap(
  lambda x: st.tuples(st.just(x),
                      st.lists(rationals, min_size=len(x), max_size=len(x)).map(RatVector.of),
                      st.lists(rationals, min_size=len(x), max_size=len(x)).map(RatVector.of))))
def test_hprod_commutative_associative_with_identity(triple):
  x, y, z = triple
  assert hprod(x, y) == hprod(y, x)
  assert hprod(hprod(x, y), z) == hprod(x, hprod(y, z))
  ones = RatVector.of([1] * len(x))
  assert hprod(x, ones) == x


def test_integer_roots():
  assert integer_kth_root(27, 3) == 3
  assert integer_kth_root(-27, 3) == -3
  assert integer_kth_root(28, 3) is None
  assert rational_kth_root(Fraction(8, 27), 3) == Fraction(2, 3)
  assert rational_kth_root(Fraction(2, 3), 3) is None
  # beyond float range, and roots just past where the float seed decides
  N = 10 ** 320
  assert integer_kth_root(N ** 3, 3) == N
  assert integer_kth_root(-N ** 3, 3) == -N
  assert integer_kth_root(N ** 3 + 1, 3) is None
  assert integer_kth_root(N, 3) is None
  assert integer_kth_root(N * N, 2) == N
  for r in (2 ** 40 - 1, 2 ** 40, 2 ** 40 + 1, 3 ** 40):
    assert integer_kth_root(r ** 3, 3) == r
    assert integer_kth_root(r ** 3 - 1, 3) is None


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 10 ** 12), st.integers(2, 5))
def test_integer_root_floor_brackets(n, k):
  r = integer_root_floor(n, k)
  assert r ** k <= n < (r + 1) ** k


@settings(deadline=None, max_examples=60)
@given(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
       st.sampled_from([3, 5]))
def test_rational_root_approx_is_tight(q, k):
  r = rational_kth_root_approx(q, k)
  # exact error bound, far below anything the gamma schedules can amplify
  assert abs(r ** k - q) < Fraction(1, 10 ** 45)


def test_rational_root_approx_exact_when_possible():
  assert rational_kth_root_approx(Fraction(-8, 27), 3) == Fraction(-2, 3)


def test_map_evaluation_zero_matrix_is_identity():
  x = RatVector.of([4, -1])
  Z = RatMatrix.zero(2, 2)
  assert f_exact(Z, x) == x
  assert f_hat_exact(Z, x) == x


def test_map_evaluation_one_dimensional():
  A = RatMatrix.of([[1]])
  assert f_exact(A, RatVector.of([2]), 3) == RatVector.of([10])


def test_map_evaluation_shift_fixture():
  S = shift_5x5()
  out = f_exact(S, RatVector.of([0, 0, 1, 1, 0]))
  assert out == RatVector.of([1, 1, 1, 1, 0])


def test_hat_map_identity_matrix():
  A = RatMatrix.identity(2)
  assert f_hat_exact(A, RatVector.of([1, 2]), 3) == \
      RatVector.of([2, 10])


def test_hat_map_shift_on_unit_vector():
  S = shift_5x5()
  e3 = RatVector.unit(5, 2)
  assert f_hat_exact(S, e3) == \
      RatVector.of([1, 0, 1, 0, 0])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(
  lambda m: st.tuples(
    st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=m, max_size=m).map(RatMatrix.of),
    st.lists(rationals, min_size=m, max_size=m).map(RatVector.of),
    st.sampled_from([1, 2, 3, 4]))))
def test_map_evaluations_match_from_scratch_expansion(data):
  # the package's building blocks compose to the from-scratch oracles
  A, x, k = data
  assert x + hpow(A.apply(x), k) == f_exact(A, x, k)
  assert x + A.apply(hpow(x, k)) == f_hat_exact(A, x, k)


nonzero_rats = st.builds(Fraction, st.integers(1, 9), st.integers(1, 3)) \
    .flatmap(lambda q: st.sampled_from([q, -q]))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(
  lambda m: st.tuples(
    st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=m, max_size=m).map(RatMatrix.of),
    st.lists(rationals, min_size=m, max_size=m).map(RatVector.of),
    st.lists(nonzero_rats, min_size=m, max_size=m))))
def test_diagonal_conjugation_intertwines_the_map(data):
  A, x, d = data
  m = A.m
  D = RatMatrix.diagonal(d)
  Dinv3 = RatMatrix.diagonal([1 / t ** 3 for t in d])
  B = D.matmul(A).matmul(Dinv3)
  left = f_exact(B, RatVector.of([t ** 3 * xi for t, xi in zip(d, x)]))
  right_inner = f_exact(A, x)
  right = RatVector.of([t ** 3 * r for t, r in zip(d, right_inner)])
  assert left == right


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 5).flatmap(
  lambda m: st.tuples(
    st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=m, max_size=m).map(RatMatrix.of),
    st.lists(rationals, min_size=m, max_size=m).map(RatVector.of),
    st.permutations(range(m)))))
def test_permutation_equivariance_of_the_map(data):
  A, x, perm = data
  m = A.m
  P = RatMatrix.permutation(perm)
  B = P.matmul(A).matmul(P.transpose())
  left = f_exact(B, P.apply(x))
  right = P.apply(f_exact(A, x))
  assert left == right


# coordinates c * q^3 with c in {1, 2}: one cube-ratio class often enough
cube_heavy = st.lists(
  st.builds(lambda c, q: c * q ** 3, st.sampled_from([0, 1, 2, -1]), rationals),
  min_size=1, max_size=5).map(RatVector.of).filter(lambda v: not v.is_zero())


@given(cube_heavy)
@settings(max_examples=200, deadline=None)
def test_cube_root_direction_matches_the_class_construction(g):
  # reference: the direction exists exactly when there is one class, and is
  # the cube root of each coordinate's ratio to the class representative
  classes = cube_root_classes(g)
  y = rational_cube_root_direction(g)
  if len(classes) != 1:
    assert y is None
    return
  ref = g[classes[0][0]]
  assert y == RatVector.of([rational_kth_root(a / ref, 3) if a != 0 else 0
                            for a in g])


def _exact_cube_root(q: Fraction) -> Fraction | None:
  """The rational cube root of q, from integer floor roots only."""
  roots = [integer_root_floor(abs(n), 3) for n in (q.numerator, q.denominator)]
  if [r ** 3 for r in roots] != [abs(q.numerator), q.denominator]:
    return None
  return Fraction(roots[0] if q > 0 else -roots[0], roots[1])


# entries c * q^3: one cube-ratio class often enough, some past 2^200
cube_line_entries = st.builds(
  lambda c, q: c * q ** 3, st.sampled_from([0, 1, 2, -1, -3]),
  st.one_of(st.integers(-40, 40), st.integers(2 ** 67, 2 ** 80)))


@given(st.lists(cube_line_entries, min_size=1, max_size=6)
       .filter(lambda w: any(w)),
       st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70).filter(bool),
                 st.integers(1, 50)))
@settings(max_examples=300, deadline=None)
def test_integer_cube_line_test_matches_the_fraction_definition(w, scale):
  # definition: every nonzero ratio to the first nonzero entry is a rational
  # cube, and the direction holds those cube roots; a RatVector on the same
  # line, with denominators, gives the same answer
  first = next(x for x in w if x)
  roots = [_exact_cube_root(Fraction(x, first)) if x else Fraction(0)
           for x in w]
  expected = None if None in roots else RatVector(tuple(roots))
  assert rational_cube_root_direction(w) == expected
  g = RatVector.of([scale * x for x in w])
  assert rational_cube_root_direction(g) == expected
