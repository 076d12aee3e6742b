"""Exact linear algebra: examples pinned by hand plus randomized invariants."""

import itertools
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (naive_det, naive_integer_rref, naive_rank, naive_rref,
                     naive_solve_in_subspace, rows_of)
from propermap.linalg import (
  RatMatrix,
  RatVector,
  Subspace,
  as_rat,
  det,
  image_basis,
  intersect,
  kernel_and_row_space,
  kernel_basis,
  nonzero_principal_minors,
  orthogonal_complement,
  primitive_integer_vector,
  rank,
  rref,
  solve,
  solve_affine_in_subspace,
  subspace_image,
)
from propermap.linalg import _integer_rref
from propermap.forge import shift_5x5

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))


def square_matrices(max_m: int = 5):
  return st.integers(1, max_m).flatmap(
    lambda m: st.lists(
      st.lists(rationals, min_size=m, max_size=m),
      min_size=m, max_size=m)).map(RatMatrix.of)


# entries for the rref oracle: small numerators over coprime denominators,
# numerators past 2^100, and zeros
rref_entries = st.one_of(
  st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7, 11, 13])),
  st.builds(lambda n, s, d: Fraction(s * n, d), st.integers(2 ** 100, 2 ** 110),
            st.sampled_from([1, -1]), st.sampled_from([1, 3, 2 ** 61 - 1])),
  st.just(Fraction(0)))


def rref_inputs(max_dim: int = 6):
  """Row lists of any shape, tall or wide, some rows all zero."""
  def rows(shape):
    n_rows, n_cols = shape
    row = st.one_of(st.lists(rref_entries, min_size=n_cols, max_size=n_cols),
                    st.just([Fraction(0)] * n_cols))
    return st.lists(row, min_size=n_rows, max_size=n_rows)
  return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(rows)


def test_as_rat_accepts_exact_forms():
  assert as_rat("3/4") == Fraction(3, 4)
  assert as_rat("-2") == Fraction(-2)
  assert as_rat(" 5/10 ") == Fraction(1, 2)
  assert as_rat(7) == Fraction(7)
  assert as_rat(Fraction(1, 3)) == Fraction(1, 3)


def test_as_rat_rejects_imprecise_and_malformed_input():
  with pytest.raises(ValueError, match="zero denominator"):
    as_rat("1/0")
  with pytest.raises(ValueError, match="not a rational literal"):
    as_rat("one half")
  with pytest.raises(TypeError):
    as_rat(0.5)
  with pytest.raises(TypeError):
    as_rat(True)


@pytest.mark.parametrize("text", [
  "1_000", " 5 ", "+3", "-0", "\u0663", "1e3", "3.0", "0x10", "", "7/0",
  "--1", " -12\n"])
def test_as_rat_string_parse_matches_fraction(text):
  # the plain-integer shortcut must accept and refuse exactly what
  # Fraction(str) does, with the same messages
  try:
    want = Fraction(text.strip())
  except ZeroDivisionError:
    message = f"zero denominator in rational literal {text!r}"
  except ValueError:
    message = f"not a rational literal: {text!r}"
  else:
    got = as_rat(text)
    assert type(got) is Fraction and got == want
    return
  with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
    as_rat(text)


def test_rank_identity_and_zero():
  assert rank(RatMatrix.identity(3)) == 3
  assert rank(RatMatrix.zero(4, 4)) == 0


def test_rank_shift_matrix_matches_naive_elimination():
  S = shift_5x5()
  assert naive_rank(rows_of(S)) == 3
  assert rank(S) == 3


def test_kernel_identity_is_trivial():
  assert kernel_basis(RatMatrix.identity(3)).dim == 0


def test_kernel_of_zero_matrix_is_everything():
  K = kernel_basis(RatMatrix.zero(4, 4))
  assert K.dim == 4
  assert K == Subspace.full(4)


def test_kernel_pinned_three_by_three():
  A = RatMatrix.of([[1, 0, -1], [0, 1, -1], [1, 1, -2]])
  K = kernel_basis(A)
  assert K.basis == (RatVector.of([1, 1, 1]),)
  assert A.apply(RatVector.of([1, 1, 1])).is_zero()


def test_image_identity_is_full():
  assert image_basis(RatMatrix.identity(4)) == Subspace.full(4)


def test_image_of_outer_product_is_the_column_line():
  A = RatMatrix.of([[1, 2], [1, 2]])
  assert image_basis(A).basis == (RatVector.of([1, 1]),)


def test_image_of_shift_is_leading_coordinates():
  S = shift_5x5()
  expected = Subspace.span([RatVector.unit(5, i) for i in range(3)], 5)
  assert image_basis(S) == expected


def test_contains_zero_vector_always():
  s = Subspace.span([RatVector.of([1, 2, 3])], 3)
  assert s.contains(RatVector.zero(3))


def test_contains_scalar_multiple():
  s = Subspace.span([RatVector.of([1, 1, 1])], 3)
  assert s.contains(RatVector.of([2, 2, 2]))
  assert not s.contains(RatVector.of([1, 1, 2]))


def test_contains_misses_missing_coordinate():
  s = Subspace.span([RatVector.unit(3, 0), RatVector.unit(3, 1)], 3)
  assert not s.contains(RatVector.unit(3, 2))


def test_contains_rejects_dimension_mismatch():
  s = Subspace.full(3)
  with pytest.raises(ValueError):
    s.contains(RatVector.zero(2))


def test_subspace_image_under_identity_and_zero():
  s = Subspace.span([RatVector.of([1, 2, 3])], 3)
  assert subspace_image(RatMatrix.identity(3), s) == s
  assert subspace_image(RatMatrix.zero(3, 3), s).dim == 0


def test_subspace_image_of_shift_block():
  S = shift_5x5()
  block = Subspace.span([RatVector.unit(5, 2), RatVector.unit(5, 3)], 5)
  expected = Subspace.span([RatVector.unit(5, 0), RatVector.unit(5, 1)], 5)
  assert subspace_image(S, block) == expected


def test_intersect_with_full_space():
  s = Subspace.span([RatVector.of([1, 2])], 2)
  assert intersect(s, Subspace.full(2)) == s


def test_intersect_of_transverse_lines_is_zero():
  a = Subspace.span([RatVector.of([1, 0])], 2)
  b = Subspace.span([RatVector.of([0, 1])], 2)
  assert intersect(a, b).dim == 0


def test_intersect_of_planes_is_the_shared_line():
  a = Subspace.span([RatVector.unit(3, 0), RatVector.unit(3, 1)], 3)
  b = Subspace.span([RatVector.unit(3, 1), RatVector.unit(3, 2)], 3)
  assert intersect(a, b).basis == (RatVector.unit(3, 1),)


def test_solve_affine_identity_cases():
  w = Subspace.span([RatVector.of([1, 0])], 2)
  inside = RatVector.of([2, 0])
  outside = RatVector.of([0, 1])
  assert solve_affine_in_subspace(RatMatrix.identity(2), inside, w) == inside
  assert solve_affine_in_subspace(RatMatrix.identity(2), outside, w) is None


def test_solve_affine_pinned_example():
  M = RatMatrix.of([[1, 1], [0, 0]])
  b = RatVector.of([1, 0])
  w = Subspace.span([RatVector.of([1, 0])], 2)
  assert solve_affine_in_subspace(M, b, w) == RatVector.of([1, 0])


def test_primitive_integer_vector_clears_denominators():
  v = RatVector.of([Fraction(-1, 2), Fraction(3, 4)])
  p = primitive_integer_vector(v)
  assert p == RatVector.of([-2, 3]) or p == RatVector.of([2, -3])
  # leading nonzero is positive by contract
  lead = next(x for x in p if x != 0)
  assert lead > 0
  with pytest.raises(ValueError):
    primitive_integer_vector(RatVector.zero(3))


@settings(deadline=None, max_examples=80)
@given(square_matrices())
def test_rank_agrees_with_naive_elimination(A):
  assert rank(A) == naive_rank(rows_of(A))


@settings(deadline=None, max_examples=80)
@given(square_matrices())
def test_det_agrees_with_cofactor_expansion(A):
  assert det(A) == naive_det(rows_of(A))


@settings(deadline=None, max_examples=60)
@given(square_matrices())
def test_principal_minors_agree_with_cofactor_expansion(A):
  rows = rows_of(A)
  for size in range(1, A.m + 1):
    want = [(S, naive_det([[rows[i][j] for j in S] for i in S]))
            for S in itertools.combinations(range(A.m), size)]
    assert nonzero_principal_minors(A, size) == [(S, v) for S, v in want if v]


@settings(deadline=None, max_examples=150)
@given(rref_inputs())
@example([[Fraction(0)] * 4 for _ in range(3)])
@example([[Fraction(2 ** 101, 3), Fraction(1, 7)], [Fraction(5, 11), 0],
          [Fraction(0), Fraction(0)], [Fraction(-1, 13), Fraction(2 ** 100)]])
@example([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]])
def test_rref_matches_naive_gauss_jordan(rows):
  reduced, pivots = rref(rows)
  assert all(type(x) is int for row in reduced for x in row)
  # each integer row over its pivot entry, then the zero rows rref drops
  as_fractions = [[Fraction(v, row[p]) for v in row]
                  for row, p in zip(reduced, pivots)]
  as_fractions += [[Fraction(0)] * len(rows[0])] * (len(rows) - len(reduced))
  assert (as_fractions, pivots) == naive_rref(rows)


@st.composite
def integer_rref_inputs(draw):
  """Integer rows of any shape up to 7 x 7, tall, wide or square, of any
  rank from 0 to full: a product L R of an n_rows x k and a k x n_cols
  factor, then some rows and some columns set to zero.  L's entries are
  small or large enough that those of L R reach 10^12, and no further."""
  n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
  k = draw(st.integers(0, min(n_rows, n_cols)))
  big = draw(st.sampled_from([3, 10 ** 12 // (3 * max(k, 1))]))
  L = draw(st.lists(st.lists(st.integers(-big, big), min_size=k, max_size=k),
                    min_size=n_rows, max_size=n_rows))
  R = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n_cols,
                             max_size=n_cols), min_size=k, max_size=k))
  zero_rows = draw(st.sets(st.integers(0, n_rows - 1), max_size=2))
  zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=2))
  return [[0 if i in zero_rows or j in zero_cols else
           sum(L[i][t] * R[t][j] for t in range(k)) for j in range(n_cols)]
          for i in range(n_rows)]


@settings(deadline=None, max_examples=300)
@given(st.one_of(integer_rref_inputs(),
                 # square or tall full column rank, entries up to 10^12
                 st.integers(1, 6).flatmap(lambda n: st.lists(
                   st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=n,
                            max_size=n), min_size=n, max_size=n + 2))))
@example([])
@example([[]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 2, 4], [0, 3, 6], [0, 0, 0]])
@example([[10 ** 12, 1], [1, 10 ** 12], [0, 0]])
@example([[2, 4, 6, 8]])
def test_integer_rref_matches_the_fraction_oracle(rows):
  snapshot = [list(r) for r in rows]
  row_objects = list(rows)
  reduced, pivots = _integer_rref(rows)
  assert rows == snapshot and all(a is b for a, b in zip(rows, row_objects))
  assert (list(map(list, reduced)), pivots) == naive_integer_rref(rows)
  assert all(type(x) is int for row in reduced for x in row)
  n_cols = len(rows[0]) if rows else 0
  if len(pivots) == n_cols:
    assert list(map(list, reduced)) == [[int(i == j) for j in range(n_cols)]
                                        for i in range(n_cols)]


@settings(deadline=None, max_examples=150)
@given(rref_inputs(), st.booleans())
def test_triangular_tests_match_the_entrywise_definition(rows, upper):
  if upper:  # zero below the diagonal, so that the test also passes
    rows = [[0 if j < i else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)]
  M = RatMatrix.of(rows)
  n_rows, n_cols = len(rows), len(rows[0])
  assert M.is_upper_triangular() == all(
    rows[i][j] == 0 for i in range(n_rows) for j in range(min(i, n_cols)))
  assert M.is_lower_triangular() == all(
    rows[i][j] == 0 for i in range(n_rows) for j in range(i + 1, n_cols))


def apply_inputs():
  """A matrix of any shape with the rref oracle's entries, and a vector
  of its width drawn from the same entries or all zero."""
  def with_vector(rows):
    n = len(rows[0])
    vector = st.one_of(st.lists(rref_entries, min_size=n, max_size=n),
                       st.just([Fraction(0)] * n))
    return st.tuples(st.just(rows), vector)
  return rref_inputs().flatmap(with_vector)


@settings(deadline=None, max_examples=150)
@given(apply_inputs())
@example(([[Fraction(2 ** 101, 3), Fraction(1, 7), Fraction(0)],
           [Fraction(5, 11), Fraction(-1, 2 ** 61 - 1), Fraction(2 ** 100)]],
          [Fraction(1, 5), Fraction(-2 ** 105, 13), Fraction(7, 3)]))
@example(([[Fraction(1, 2)], [Fraction(1, 3)]], [Fraction(0)]))
def test_apply_matches_the_fraction_sum(inputs):
  rows, x = inputs
  A, v = RatMatrix.of(rows), RatVector.of(x)
  want = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
  # the second call reads the integer rows cached by the first
  for _ in range(2):
    got = A.apply(v)
    assert list(got) == want
    assert all(type(y) is Fraction for y in got)


@settings(deadline=None, max_examples=80)
@given(square_matrices())
def test_rank_nullity(A):
  assert rank(A) + kernel_basis(A).dim == A.m


@settings(deadline=None, max_examples=80)
@given(square_matrices())
def test_kernel_orthogonal_to_row_space(A):
  K = kernel_basis(A)
  R = image_basis(A.transpose())
  # one elimination yields both, byte for byte
  assert kernel_and_row_space(A) == (K, R)
  assert K.dim + R.dim == A.m
  for kb in K.basis:
    assert A.apply(kb).is_zero()
    for rb in R.basis:
      assert sum(x * y for x, y in zip(kb, rb)) == 0


@settings(deadline=None, max_examples=60)
@given(square_matrices(), st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_row_space_vectors_are_not_killed(A, coeffs):
  R = image_basis(A.transpose())
  z = RatVector.zero(A.m)
  for c, b in zip(coeffs, R.basis):
    z = z + b.scale(c)
  if not z.is_zero():
    assert not A.apply(z).is_zero()


@settings(deadline=None, max_examples=60)
@given(square_matrices())
def test_canonical_basis_is_idempotent(A):
  for s in (kernel_basis(A), image_basis(A), image_basis(A.transpose())):
    assert Subspace.span(list(s.basis), s.ambient_dim) == s


@settings(deadline=None, max_examples=60)
@given(square_matrices(), st.lists(rationals, min_size=1, max_size=5))
def test_solve_affine_result_verifies(A, raw):
  w = image_basis(A.transpose())
  b = RatVector.of((list(raw) + [0] * A.m)[:A.m])
  u = solve_affine_in_subspace(A, b, w)
  if u is not None:
    assert A.apply(u) == b
    assert w.contains(u)


@settings(deadline=None, max_examples=60)
@given(square_matrices())
def test_plain_solve_round_trip(A):
  b = A.apply(RatVector.of(list(range(1, A.m + 1))))
  x = solve(A, b)
  assert x is not None
  assert A.apply(x) == b


@settings(deadline=None, max_examples=80)
@given(apply_inputs())
# the first pivot sits in the second row, so the elimination swaps rows
@example(([[Fraction(0), Fraction(1, 2), Fraction(1)],
           [Fraction(3), Fraction(0), Fraction(-1, 5)]],
          [Fraction(1, 3), Fraction(2), Fraction(0)]))
def test_cached_integer_rows_survive_every_elimination(inputs):
  # kernels, images and solves eliminate on the matrix's cached integer
  # rows in place of a fresh copy, so each must leave them as they were
  rows, x = inputs
  M = RatMatrix.of(rows)
  cached = M._integer_rows
  snapshot = ([list(r) for r in cached[0]], list(cached[1]))
  kernel, row_space = kernel_and_row_space(M)
  image_basis(M)
  subspace_image(M, row_space)
  intersect(row_space, kernel)
  b = M.apply(RatVector.of(x))
  assert M.apply(solve(M, b)) == b
  assert M.apply(solve_affine_in_subspace(M, b, row_space)) == b
  assert M._integer_rows is cached
  assert ([list(r) for r in cached[0]], list(cached[1])) == snapshot


@settings(deadline=None, max_examples=40)
@given(square_matrices(4))
def test_orthogonal_complement_dimensions(A):
  s = image_basis(A)
  c = orthogonal_complement(s)
  assert s.dim + c.dim == A.m
  for sb in s.basis:
    for cb in c.basis:
      assert sum(x * y for x, y in zip(sb, cb)) == 0


nonzero_scales = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                           st.integers(1, 5))


@settings(deadline=None, max_examples=150)
@given(rref_inputs(), st.lists(nonzero_scales, min_size=6, max_size=6))
@example([[Fraction(-2, 3), Fraction(4, 9)], [Fraction(6), Fraction(-4)]],
         [Fraction(1)] * 6)
def test_span_rows_are_the_primitive_reduced_rows(vectors, scales):
  n = len(vectors[0])
  s = Subspace.span([RatVector.of(v) for v in vectors], n)
  for r, p in zip(s.rows, s.pivots):
    assert all(type(x) is int for x in r)
    assert gcd(*r) == 1 and r[p] > 0 and not any(r[:p])
  reduced, pivots = naive_rref(vectors)
  assert list(s.pivots) == pivots
  assert [list(b) for b in s.basis] == reduced[:len(pivots)]
  # another spanning set of the same space: reversed, each vector rescaled
  # (signs too), plus the sum of all of them
  other = [[c * x for x in v] for c, v in zip(scales, reversed(vectors))]
  other.append([sum(col) for col in zip(*vectors)])
  assert Subspace.span([RatVector.of(v) for v in other], n) == s


def affine_solve_inputs():
  """A matrix of any shape, up to four vectors spanning a subspace of its
  domain, and a right-hand side: drawn freely, or, when None is drawn, the
  image of the combination `coeffs` of the spanning vectors."""
  def with_rest(rows):
    n_rows, n = len(rows), len(rows[0])
    vector = st.lists(rref_entries, min_size=n, max_size=n)
    return st.tuples(
      st.just(rows), st.lists(vector, max_size=4),
      st.lists(st.integers(-3, 3), min_size=4, max_size=4),
      st.one_of(st.none(),
                st.lists(rref_entries, min_size=n_rows, max_size=n_rows)))
  return rref_inputs(5).flatmap(with_rest)


@settings(deadline=None, max_examples=150)
@given(affine_solve_inputs())
@example(([[Fraction(1), Fraction(1), Fraction(0)],
           [Fraction(0), Fraction(0), Fraction(0)]],
          [[Fraction(2, 3), Fraction(0), Fraction(1, 5)],
           [Fraction(0), Fraction(3), Fraction(1, 7)]], [1, 2, 0, 0], None))
def test_solve_affine_matches_fraction_reference(inputs):
  rows, spanning, coeffs, rhs = inputs
  M = RatMatrix.of(rows)
  n = M.n_cols
  if rhs is None:
    target = [sum((c * v[j] for c, v in zip(coeffs, spanning)), Fraction(0))
              for j in range(n)]
    rhs = [sum(a * x for a, x in zip(row, target)) for row in rows]
  w = Subspace.span([RatVector.of(v) for v in spanning], n)
  got = solve_affine_in_subspace(M, RatVector.of(rhs), w)
  want = naive_solve_in_subspace(rows, rhs, spanning)
  assert (None if got is None else list(got)) == want


@settings(deadline=None, max_examples=150)
@given(rref_inputs(), st.lists(st.integers(0, 3), min_size=6, max_size=6))
@example([[Fraction(1, 2), Fraction(1), Fraction(0)],
          [Fraction(0), Fraction(2), Fraction(3)],
          [Fraction(5), Fraction(0), Fraction(-1, 3)]], [3, 1, 2, 0, 0, 0])
def test_intersect_dimension_and_membership(vectors, owners):
  # each vector of one pool goes to neither (0), a (1), b (2) or both (3),
  # so shared vectors give a nonzero intersection
  n = len(vectors[0])
  vs = [RatVector.of(v) for v in vectors]
  a = Subspace.span([v for v, o in zip(vs, owners) if o & 1], n)
  b = Subspace.span([v for v, o in zip(vs, owners) if o & 2], n)
  meet = intersect(a, b)
  total = Subspace.span(list(a.basis) + list(b.basis), n)
  assert meet.dim == a.dim + b.dim - total.dim
  assert all(a.contains(v) and b.contains(v) for v in meet.basis)
  assert intersect(b, a) == meet
