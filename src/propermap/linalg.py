"""Exact dense linear algebra over the rationals.

Everything the certificate logic touches goes through this module: ranks,
kernels, images, subspace membership and intersections, and affine solves
restricted to a subspace.  Values are exact `fractions.Fraction`s and
floating point never enters.  Every elimination runs on Python ints: each
row's denominators are cleared once, ranks and determinants come from
fraction-free (Bareiss) elimination with partial pivoting on magnitude, and
reduced row echelon form comes from Gauss-Jordan elimination that divides
each updated row by the gcd of its entries.  Only the finished pivot rows
are turned back into Fractions.  Canonical subspace bases come
from reduced row echelon form, which is unique, so equal subspaces compare
equal syntactically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence


Scalar = int | str | Fraction


def as_rat(value: Scalar) -> Fraction:
  """Coerce an exact scalar to Fraction.  Floats are refused on purpose."""
  if isinstance(value, bool):
    raise TypeError("booleans are not scalars")
  if isinstance(value, Fraction):
    return value
  if isinstance(value, int):
    return Fraction(value)
  if isinstance(value, str):
    s = value.strip()
    try:
      # a plain ASCII integer skips the regex parse Fraction(str) runs
      if s.isascii() and (s[1:] if s[:1] in "+-" else s).isdigit():
        return Fraction(int(s))
      return Fraction(s)
    except ZeroDivisionError:
      raise ValueError(f"zero denominator in rational literal {value!r}") from None
    except ValueError:
      raise ValueError(f"not a rational literal: {value!r}") from None
  raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class RatVector:
  """Immutable vector with Fraction entries."""

  entries: tuple[Fraction, ...]

  @staticmethod
  def of(values: Iterable[Scalar]) -> "RatVector":
    return RatVector(tuple(as_rat(v) for v in values))

  @staticmethod
  def zero(n: int) -> "RatVector":
    return RatVector((Fraction(0),) * n)

  @staticmethod
  def unit(n: int, i: int) -> "RatVector":
    return RatVector(tuple(Fraction(1 if j == i else 0) for j in range(n)))

  def __len__(self) -> int:
    return len(self.entries)

  def __iter__(self):
    return iter(self.entries)

  def __getitem__(self, i: int) -> Fraction:
    return self.entries[i]

  def __add__(self, other: "RatVector") -> "RatVector":
    self._check_len(other)
    return RatVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

  def __sub__(self, other: "RatVector") -> "RatVector":
    self._check_len(other)
    return RatVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

  def __neg__(self) -> "RatVector":
    return RatVector(tuple(-a for a in self.entries))

  def scale(self, c: Scalar) -> "RatVector":
    r = as_rat(c)
    return RatVector(tuple(r * a for a in self.entries))

  def dot(self, other: "RatVector") -> Fraction:
    self._check_len(other)
    return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

  def is_zero(self) -> bool:
    return all(a == 0 for a in self.entries)

  def support(self) -> tuple[int, ...]:
    return tuple(i for i, a in enumerate(self.entries) if a != 0)

  def _check_len(self, other: "RatVector") -> None:
    if len(self) != len(other):
      raise ValueError(f"vector length mismatch: {len(self)} vs {len(other)}")

  def __repr__(self) -> str:
    return "RatVector(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class RatMatrix:
  """Immutable square or rectangular matrix with Fraction entries."""

  rows: tuple[tuple[Fraction, ...], ...]

  @staticmethod
  def of(rows: Sequence[Sequence[Scalar]]) -> "RatMatrix":
    if not rows:
      raise ValueError("matrix needs at least one row")
    width = len(rows[0])
    out = []
    for r in rows:
      if len(r) != width:
        raise ValueError("ragged rows in matrix")
      out.append(tuple(as_rat(v) for v in r))
    return RatMatrix(tuple(out))

  @staticmethod
  def identity(n: int) -> "RatMatrix":
    return RatMatrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                           for i in range(n)))

  @staticmethod
  def zero(n_rows: int, n_cols: int | None = None) -> "RatMatrix":
    n_cols = n_rows if n_cols is None else n_cols
    return RatMatrix(tuple((Fraction(0),) * n_cols for _ in range(n_rows)))

  @staticmethod
  def diagonal(values: Iterable[Scalar]) -> "RatMatrix":
    vals = [as_rat(v) for v in values]
    n = len(vals)
    return RatMatrix(tuple(tuple(vals[i] if i == j else Fraction(0) for j in range(n))
                           for i in range(n)))

  @staticmethod
  def permutation(sigma: Sequence[int]) -> "RatMatrix":
    """Matrix P with (P x)[i] = x[sigma[i]]."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
      raise ValueError("not a permutation")
    return RatMatrix(tuple(tuple(Fraction(1 if j == sigma[i] else 0) for j in range(n))
                           for i in range(n)))

  @property
  def n_rows(self) -> int:
    return len(self.rows)

  @property
  def n_cols(self) -> int:
    return len(self.rows[0])

  @property
  def m(self) -> int:
    if self.n_rows != self.n_cols:
      raise ValueError("matrix is not square")
    return self.n_rows

  def is_square(self) -> bool:
    return self.n_rows == self.n_cols

  def entry(self, i: int, j: int) -> Fraction:
    return self.rows[i][j]

  def row(self, i: int) -> RatVector:
    return RatVector(self.rows[i])

  def column(self, j: int) -> RatVector:
    return RatVector(tuple(r[j] for r in self.rows))

  @cached_property
  def _integer_rows(self) -> tuple[list[list[int]], list[int]]:
    """`_integerized_rows` of the rows, computed once per matrix and shared
    by every call: read it, never modify it."""
    return _integerized_rows(self.rows)

  def apply(self, x: RatVector) -> RatVector:
    """M x, exactly.  The denominators of M are cleared once per matrix and
    those of x once per call, so each entry is one integer dot product
    divided by (row lcm) * (vector lcm)."""
    if len(x) != self.n_cols:
      raise ValueError(f"matrix is {self.n_rows}x{self.n_cols}, vector has length {len(x)}")
    int_rows, denoms = self._integer_rows
    [xs], [d] = _integerized_rows([x.entries])
    return RatVector(tuple(Fraction(sum(map(mul, row, xs)), rd * d)
                           for row, rd in zip(int_rows, denoms)))

  def matmul(self, other: "RatMatrix") -> "RatMatrix":
    if self.n_cols != other.n_rows:
      raise ValueError("inner dimensions disagree")
    cols = list(zip(*other.rows))
    return RatMatrix(tuple(
        tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
        for row in self.rows))

  def transpose(self) -> "RatMatrix":
    return RatMatrix(tuple(zip(*self.rows)))

  def add(self, other: "RatMatrix") -> "RatMatrix":
    if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
      raise ValueError("shape mismatch")
    return RatMatrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                           for r1, r2 in zip(self.rows, other.rows)))

  def scale(self, c: Scalar) -> "RatMatrix":
    r = as_rat(c)
    return RatMatrix(tuple(tuple(r * a for a in row) for row in self.rows))

  def gram(self) -> "RatMatrix":
    """A Aᵀ."""
    return self.matmul(self.transpose())

  def is_upper_triangular(self) -> bool:
    return all(self.rows[i][j] == 0
               for i in range(self.n_rows) for j in range(min(i, self.n_cols)))

  def is_lower_triangular(self) -> bool:
    return all(self.rows[i][j] == 0
               for i in range(self.n_rows) for j in range(i + 1, self.n_cols))

  def __repr__(self) -> str:
    body = "; ".join(" ".join(str(a) for a in row) for row in self.rows)
    return f"RatMatrix[{body}]"


# ---------------------------------------------------------------------------
# elimination cores
# ---------------------------------------------------------------------------


def _integerized_rows(rows: Iterable[Sequence[Fraction]]
                      ) -> tuple[list[list[int]], list[int]]:
  """Clear denominators once per row.  Returns the integer rows and each
  row's denominator lcm d (original_row = integer_row / d)."""
  int_rows: list[list[int]] = []
  denoms: list[int] = []
  for row in rows:
    d = lcm(*(a.denominator for a in row))
    int_rows.append([a.numerator * (d // a.denominator) for a in row])
    denoms.append(d)
  return int_rows, denoms


def _bareiss(a: list[list[int]]) -> tuple[int, int, int]:
  """Fraction-free elimination in place.

  Returns (rank, last_pivot, swap_sign).  For a square full-rank input the
  determinant of the integer matrix is swap_sign * last_pivot.
  """
  n_rows = len(a)
  n_cols = len(a[0]) if a else 0
  prev = 1
  rank_so_far = 0
  sign = 1
  for col in range(n_cols):
    if rank_so_far == n_rows:
      break
    pivot_row = None
    best = 0
    for i in range(rank_so_far, n_rows):
      v = abs(a[i][col])
      if v > best:
        best = v
        pivot_row = i
    if pivot_row is None:
      continue
    if pivot_row != rank_so_far:
      a[rank_so_far], a[pivot_row] = a[pivot_row], a[rank_so_far]
      sign = -sign
    p = a[rank_so_far][col]
    for i in range(rank_so_far + 1, n_rows):
      for j in range(col + 1, n_cols):
        a[i][j] = (p * a[i][j] - a[i][col] * a[rank_so_far][j]) // prev
      a[i][col] = 0
    prev = p
    rank_so_far += 1
  return rank_so_far, prev, sign


def rank(M: RatMatrix) -> int:
  int_rows, _ = _integerized_rows(M.rows)
  r, _, _ = _bareiss(int_rows)
  return r


def det(M: RatMatrix) -> Fraction:
  n = M.m
  int_rows, denoms = _integerized_rows(M.rows)
  r, last_pivot, sign = _bareiss(int_rows)
  if r < n:
    return Fraction(0)
  return Fraction(sign * last_pivot, prod(denoms))


def nonzero_principal_minors(M: RatMatrix, size: int
                             ) -> list[tuple[tuple[int, ...], Fraction]]:
  """(S, det M_SS) for the index sets S of `size` indices whose principal
  minor is nonzero, in lexicographic order of S.  Denominators are cleared
  once for all the minors."""
  int_rows, denoms = _integerized_rows(M.rows)
  out = []
  for S in combinations(range(M.m), size):
    r, last_pivot, sign = _bareiss([[int_rows[i][j] for j in S] for i in S])
    if r == size:
      out.append((S, Fraction(sign * last_pivot, prod(denoms[i] for i in S))))
  return out


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
  """Reduced row echelon form.  Returns (rows, pivot columns); the rows are
  Fractions, zero rows last.

  The elimination runs on the denominator-cleared integer rows.  A pivot
  row stays an integer multiple of its reduced form, so each one is divided
  by its pivot only when the elimination is done.
  """
  work, _ = _integerized_rows(rows)
  n_rows = len(work)
  n_cols = len(work[0]) if work else 0
  pivots: list[int] = []
  r = 0
  for col in range(n_cols):
    if r == n_rows:
      break
    pivot_row = None
    for i in range(r, n_rows):
      if work[i][col] != 0:
        pivot_row = i
        break
    if pivot_row is None:
      continue
    row = work[pivot_row]
    c = gcd(*row)
    if c > 1:
      row = [v // c for v in row]
    work[pivot_row] = work[r]
    work[r] = row
    p = row[col]
    for i in range(n_rows):
      f = work[i][col]
      if i != r and f != 0:
        g = gcd(p, f)
        a, b = p // g, f // g
        new = [a * v - b * w for v, w in zip(work[i], row)]
        c = gcd(*new)
        work[i] = [v // c for v in new] if c > 1 else new
    pivots.append(col)
    r += 1
  zero = Fraction(0)
  reduced = [[Fraction(v, row[p]) if v else zero for v in row]
             for row, p in zip(work, pivots)]
  reduced.extend([zero] * n_cols for _ in range(n_rows - r))
  return reduced, pivots


def kernel_and_row_space(M: RatMatrix) -> tuple["Subspace", "Subspace"]:
  """Null space and row space of M, canonical subspaces of R^{n_cols}, from
  one elimination: the nonzero reduced rows are the row space's basis."""
  reduced, pivots = rref(M.rows)
  n = M.n_cols
  free_cols = [j for j in range(n) if j not in pivots]
  vecs = []
  for f in free_cols:
    v = [Fraction(0)] * n
    v[f] = Fraction(1)
    for i, p in enumerate(pivots):
      v[p] = -reduced[i][f]
    vecs.append(RatVector(tuple(v)))
  rows = tuple(RatVector(tuple(reduced[i])) for i in range(len(pivots)))
  return Subspace.span(vecs, n), Subspace(n, rows)


def kernel_basis(M: RatMatrix) -> "Subspace":
  """Null space of M, as a canonical subspace of R^{n_cols}."""
  return kernel_and_row_space(M)[0]


def image_basis(M: RatMatrix) -> "Subspace":
  """Column space of M, as a canonical subspace of R^{n_rows}."""
  cols = [M.column(j) for j in range(M.n_cols)]
  return Subspace.span(cols, M.n_rows)


def solve(M: RatMatrix, b: RatVector) -> RatVector | None:
  """One exact solution of M x = b (free coordinates set to zero), or None."""
  if len(b) != M.n_rows:
    raise ValueError("right-hand side length mismatch")
  aug = [list(row) + [bv] for row, bv in zip(M.rows, b.entries)]
  reduced, pivots = rref(aug)
  n = M.n_cols
  if n in pivots:
    return None  # pivot in the augmented column: inconsistent
  x = [Fraction(0)] * n
  for i, p in enumerate(pivots):
    x[p] = reduced[i][n]
  return RatVector(tuple(x))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
  """Linear subspace of R^n held in canonical reduced-row-echelon basis.

  Two Subspace values are equal exactly when they describe the same
  subspace, because the reduced echelon basis of a row space is unique.
  """

  ambient_dim: int
  basis: tuple[RatVector, ...]

  @staticmethod
  def span(vectors: Iterable[RatVector], ambient_dim: int) -> "Subspace":
    vecs = list(vectors)
    for v in vecs:
      if len(v) != ambient_dim:
        raise ValueError("spanning vector has wrong length")
    if not vecs:
      return Subspace(ambient_dim, ())
    reduced, pivots = rref([list(v.entries) for v in vecs])
    rows = tuple(RatVector(tuple(reduced[i])) for i in range(len(pivots)))
    return Subspace(ambient_dim, rows)

  @staticmethod
  def zero(ambient_dim: int) -> "Subspace":
    return Subspace(ambient_dim, ())

  @staticmethod
  def full(ambient_dim: int) -> "Subspace":
    return Subspace.span([RatVector.unit(ambient_dim, i) for i in range(ambient_dim)],
                         ambient_dim)

  @property
  def dim(self) -> int:
    return len(self.basis)

  def contains(self, v: RatVector) -> bool:
    if len(v) != self.ambient_dim:
      raise ValueError(f"vector lives in R^{len(v)}, subspace in R^{self.ambient_dim}")
    residue = list(v.entries)
    for b in self.basis:
      lead = next(i for i, x in enumerate(b.entries) if x != 0)
      if residue[lead] != 0:
        f = residue[lead]
        residue = [r - f * x for r, x in zip(residue, b.entries)]
    return all(r == 0 for r in residue)

  def basis_matrix(self) -> RatMatrix:
    """Matrix whose rows are the canonical basis vectors.  Requires dim > 0."""
    if not self.basis:
      raise ValueError("zero subspace has an empty basis")
    return RatMatrix(tuple(b.entries for b in self.basis))

  def __repr__(self) -> str:
    return f"Subspace(dim {self.dim} of R^{self.ambient_dim})"


def intersect(a: Subspace, b: Subspace) -> Subspace:
  """Exact intersection, via the kernel of the stacked coefficient system."""
  if a.ambient_dim != b.ambient_dim:
    raise ValueError("ambient dimensions disagree")
  if a.dim == 0 or b.dim == 0:
    return Subspace.zero(a.ambient_dim)
  # columns: coefficients on a-basis, then on b-basis; rows: ambient coords
  n = a.ambient_dim
  cols = [list(v.entries) for v in a.basis] + [[-x for x in v.entries] for v in b.basis]
  stacked = RatMatrix(tuple(tuple(col[i] for col in cols) for i in range(n)))
  null = kernel_basis(stacked)
  vecs = []
  for c in null.basis:
    v = RatVector.zero(n)
    for coeff, bv in zip(c.entries[: a.dim], a.basis):
      v = v + bv.scale(coeff)
    vecs.append(v)
  return Subspace.span(vecs, n)


def subspace_image(M: RatMatrix, s: Subspace) -> Subspace:
  """Image M(s) = span of M b over basis vectors b of s."""
  if s.ambient_dim != M.n_cols:
    raise ValueError("subspace ambient dimension does not match matrix width")
  return Subspace.span([M.apply(b) for b in s.basis], M.n_rows)


def orthogonal_complement(s: Subspace) -> Subspace:
  if s.dim == 0:
    return Subspace.full(s.ambient_dim)
  return kernel_basis(s.basis_matrix())


def solve_affine_in_subspace(M: RatMatrix, b: RatVector, w: Subspace) -> RatVector | None:
  """Exact u in w with M u = b, or None when no such u exists.

  The returned u is deterministic: coefficients on w's canonical basis with
  free coordinates set to zero.
  """
  if w.ambient_dim != M.n_cols:
    raise ValueError("subspace ambient dimension does not match matrix width")
  if len(b) != M.n_rows:
    raise ValueError("right-hand side length mismatch")
  if w.dim == 0:
    return RatVector.zero(M.n_cols) if b.is_zero() else None
  columns = [M.apply(v) for v in w.basis]
  system = RatMatrix(tuple(tuple(col[i] for col in columns) for i in range(M.n_rows)))
  coeffs = solve(system, b)
  if coeffs is None:
    return None
  u = RatVector.zero(M.n_cols)
  for c, v in zip(coeffs.entries, w.basis):
    u = u + v.scale(c)
  return u


def primitive_integer_vector(v: RatVector) -> RatVector:
  """Scale v to coprime integer entries with positive leading sign."""
  if v.is_zero():
    raise ValueError("zero vector has no primitive form")
  [ints], _ = _integerized_rows([v.entries])
  g = gcd(*ints)
  ints = [x // g for x in ints]
  lead = next(x for x in ints if x != 0)
  if lead < 0:
    ints = [-x for x in ints]
  return RatVector.of(ints)
