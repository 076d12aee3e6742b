"""Exact dense linear algebra over the rationals.

Everything the certificate logic touches goes through this module: ranks,
kernels, images, subspace membership and intersections, and affine solves
restricted to a subspace.  Values are exact and floating point never
enters.  Every elimination runs on Python ints, integer-preserving in the
manner of Bareiss (Math. Comp. 22, 1968): each input row's denominators are
cleared once, ranks and determinants come from fraction-free elimination
with partial pivoting on magnitude, and reduced row echelon form comes from
Gauss-Jordan elimination that divides each updated row by the gcd of its
entries and stops after its forward pass at full column rank.

A `Subspace` keeps its canonical basis as integer rows: the reduced row
echelon rows, each scaled to coprime integers with a positive pivot entry.
That form is unique, so equal subspaces compare equal syntactically, and
kernels, images, memberships, intersections and solves all work on those
rows.  Fractions are built only where a vector leaves the module: a
`RatVector` result, or the `Subspace.basis` view.
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
  def of_integers(rows: tuple[tuple[Fraction, ...], ...],
                  int_rows: list[list[int]]) -> "RatMatrix":
    """The matrix `rows`, whose parser also read its entries as the ints
    `int_rows`: they become `_integer_rows`, with every denominator 1."""
    M = RatMatrix(rows)
    M.__dict__["_integer_rows"] = (int_rows, [1] * len(int_rows))
    return M

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
    return not any(any(row[:i]) for i, row in enumerate(self._integer_rows[0]))

  def is_lower_triangular(self) -> bool:
    return not any(any(row[i + 1:])
                   for i, row in enumerate(self._integer_rows[0]))

  def __repr__(self) -> str:
    body = "; ".join(" ".join(str(a) for a in row) for row in self.rows)
    return f"RatMatrix[{body}]"


# ---------------------------------------------------------------------------
# elimination cores
# ---------------------------------------------------------------------------


def _integerized_rows(rows: Iterable[Sequence[int | Fraction]]
                      ) -> tuple[list[list[int]], list[int]]:
  """Clear denominators once per row.  Returns the integer rows and each
  row's denominator lcm d (original_row = integer_row / d).  Int entries
  pass through: their denominator is 1."""
  int_rows: list[list[int]] = []
  denoms: list[int] = []
  for row in rows:
    d = lcm(*[a.denominator for a in row])
    if d == 1:
      int_rows.append([a.numerator for a in row])
    else:
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


def rref(rows: Sequence[Sequence[int | Fraction]]
         ) -> tuple[list[list[int]], list[int]]:
  """Reduced row echelon form on integers.  Returns (rows, pivot columns).

  The input rows hold ints or Fractions; each row's denominators are
  cleared once.  The returned rows are the nonzero ones only, each scaled
  to coprime integers with a positive entry at its pivot column, so row i
  divided by its entry at pivots[i] is the i-th reduced row over the
  rationals.  That form is unique, so it does not depend on how
  `_integer_rref` reaches it.
  """
  return _integer_rref(_integerized_rows(rows)[0])


def _clear_column(work: list, targets: range, row: Sequence[int], col: int
                  ) -> None:
  """Clear column col of work[i], i in targets, with the pivot row `row`.
  Each new row replaces the old one, divided by the gcd of its entries."""
  p = row[col]
  for i in targets:
    f = work[i][col]
    if f:
      g = gcd(p, f)
      a, b = p // g, f // g
      new = [a * v - b * w for v, w in zip(work[i], row)]
      c = gcd(*new)
      work[i] = [v // c for v in new] if c > 1 else new


def _integer_rref(rows: Sequence[Sequence[int]]
                  ) -> tuple[list[Sequence[int]], list[int]]:
  """`rref` of rows that already hold ints, without clearing denominators.

  A forward pass clears below each pivot, the first nonzero entry of its
  column.  At full column rank the reduced rows are the unit rows, returned
  at once; only a rank-deficient input goes on to clear above its pivots.

  The rows are left as they are: the elimination swaps rows in its own
  copy of the outer list and replaces a row instead of writing into it, so
  cached rows may be passed.  A returned row may be one of the input rows.
  """
  work = list(rows)
  n_rows = len(work)
  n_cols = len(work[0]) if work else 0
  pivots: list[int] = []
  r = 0
  for col in range(n_cols):
    if r == n_rows:
      break
    for pivot_row in range(r, n_rows):
      if work[pivot_row][col]:
        break
    else:
      continue
    row = work[pivot_row]
    c = gcd(*row)
    if c > 1:
      row = [v // c for v in row]
    work[pivot_row] = work[r]
    work[r] = row
    pivots.append(col)
    r += 1
    if r == n_cols:
      return [[int(i == j) for j in range(n_cols)] for i in range(n_cols)], pivots
    _clear_column(work, range(r, n_rows), row, col)
  for k in range(r - 1, 0, -1):
    _clear_column(work, range(k), work[k], pivots[k])
  return ([row if row[p] > 0 else [-v for v in row]
           for row, p in zip(work, pivots)], pivots)


def _kernel_spanners(rows: Sequence[Sequence[int]], pivots: Sequence[int],
                     n: int) -> list[list[int]]:
  """Integer vectors spanning {x : r . x = 0 for every row r}, for rows in
  the form `rref` returns.  With L the lcm of the pivot entries, free
  column f gives the vector with L at f and -r_i[f] * L / r_i[p_i] at each
  pivot column p_i."""
  L = lcm(*(r[p] for r, p in zip(rows, pivots)))
  scales = [L // r[p] for r, p in zip(rows, pivots)]
  taken = set(pivots)
  out = []
  for f in range(n):
    if f in taken:
      continue
    v = [0] * n
    v[f] = L
    for r, p, s in zip(rows, pivots, scales):
      v[p] = -r[f] * s
    out.append(v)
  return out


def _reduced(ambient_dim: int, rows: list[Sequence[int]]) -> "Subspace":
  """The subspace of R^ambient_dim spanned by integer rows."""
  if not rows:
    return Subspace(ambient_dim, ())
  reduced, _ = _integer_rref(rows)
  return Subspace(ambient_dim, tuple(map(tuple, reduced)))


def _pivot_solution(rows: list[list[int]], pivots: list[int], n: int
                    ) -> tuple[list[int], int] | None:
  """The solution of the system whose augmented reduced rows are `rows`
  (right-hand side in column n), free coordinates set to zero, as integers
  over one common denominator; None when a pivot sits in column n."""
  if n in pivots:
    return None
  denom = lcm(*(r[p] for r, p in zip(rows, pivots)))
  x = [0] * n
  for r, p in zip(rows, pivots):
    x[p] = r[n] * (denom // r[p])
  return x, denom


def _integer_matrix(M: RatMatrix) -> list[list[int]]:
  """The rows of L M, L the lcm of M's row denominators: row i of M's
  integer rows times L / d_i.  Read it, never modify it."""
  int_rows, denoms = M._integer_rows
  L = lcm(*denoms)
  if L == 1:
    return int_rows
  return [[(L // d) * v for v in row] for row, d in zip(int_rows, denoms)]


def kernel_and_row_space(M: RatMatrix) -> tuple["Subspace", "Subspace"]:
  """Null space and row space of M, canonical subspaces of R^{n_cols}.

  One `rref` of M's integer rows gives the row space's rows directly.  The
  kernel spanners are built from them in integers and reduced by a second
  `rref` (none when M has full column rank).
  """
  n = M.n_cols
  rows, pivots = _integer_rref(M._integer_rows[0])
  kernel = _reduced(n, _kernel_spanners(rows, pivots, n))
  return kernel, Subspace(n, tuple(map(tuple, rows)))


def kernel_basis(M: RatMatrix) -> "Subspace":
  """Null space of M, as a canonical subspace of R^{n_cols}."""
  return kernel_and_row_space(M)[0]


def image_basis(M: RatMatrix) -> "Subspace":
  """Column space of M, as a canonical subspace of R^{n_rows}: one `rref`
  of the columns of the integer matrix L M."""
  return _reduced(M.n_rows, list(zip(*_integer_matrix(M))))


def solve(M: RatMatrix, b: RatVector) -> RatVector | None:
  """One exact solution of M x = b (free coordinates set to zero), or None."""
  if len(b) != M.n_rows:
    raise ValueError("right-hand side length mismatch")
  int_rows, denoms = M._integer_rows
  [bs], [db] = _integerized_rows([b.entries])
  # row i of [M | b] times d_i db, in integers
  rows, pivots = _integer_rref([[db * v for v in row] + [d * bv] for row, d, bv
                                in zip(int_rows, denoms, bs)])
  solution = _pivot_solution(rows, pivots, M.n_cols)
  if solution is None:
    return None  # pivot in the augmented column: inconsistent
  x, denom = solution
  return RatVector(tuple(Fraction(v, denom) for v in x))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
  """Linear subspace of R^n held as its canonical integer basis.

  `rows` are the rows of the reduced row echelon form of any spanning set,
  each scaled to coprime integers with a positive entry at its pivot
  column.  That form is unique, so two Subspace values are equal exactly
  when they describe the same subspace.  `pivots` lists the pivot columns
  and `basis` the reduced rows as Fraction vectors, each row divided by its
  pivot entry.
  """

  ambient_dim: int
  rows: tuple[tuple[int, ...], ...]

  @staticmethod
  def span(vectors: Iterable[RatVector], ambient_dim: int) -> "Subspace":
    vecs = list(vectors)
    for v in vecs:
      if len(v) != ambient_dim:
        raise ValueError("spanning vector has wrong length")
    return _reduced(ambient_dim, _integerized_rows(v.entries for v in vecs)[0])

  @staticmethod
  def zero(ambient_dim: int) -> "Subspace":
    return Subspace(ambient_dim, ())

  @staticmethod
  def full(ambient_dim: int) -> "Subspace":
    rows = tuple(tuple(int(i == j) for j in range(ambient_dim))
                 for i in range(ambient_dim))
    return Subspace(ambient_dim, rows)

  @property
  def dim(self) -> int:
    return len(self.rows)

  @cached_property
  def pivots(self) -> tuple[int, ...]:
    return tuple(next(j for j, x in enumerate(r) if x) for r in self.rows)

  @cached_property
  def basis(self) -> tuple[RatVector, ...]:
    zero = Fraction(0)
    return tuple(RatVector(tuple(Fraction(v, r[p]) if v else zero for v in r))
                 for r, p in zip(self.rows, self.pivots))

  def contains(self, v: RatVector) -> bool:
    if len(v) != self.ambient_dim:
      raise ValueError(f"vector lives in R^{len(v)}, subspace in R^{self.ambient_dim}")
    [x], _ = _integerized_rows([v.entries])
    # x <- P x - x_p r at each pivot p, over gcd(P, x_p) to keep x small
    for r, p in zip(self.rows, self.pivots):
      f = x[p]
      if f:
        g = gcd(r[p], f)
        a, b = r[p] // g, f // g
        x = [a * s - b * t for s, t in zip(x, r)]
    return not any(x)

  def __repr__(self) -> str:
    return f"Subspace(dim {self.dim} of R^{self.ambient_dim})"


def intersect(a: Subspace, b: Subspace) -> Subspace:
  """Exact intersection, via the kernel of the stacked coefficient system:
  sum_i c_i a_i = sum_j c'_j b_j over the integer rows of a and b."""
  if a.ambient_dim != b.ambient_dim:
    raise ValueError("ambient dimensions disagree")
  if a.dim == 0 or b.dim == 0:
    return Subspace.zero(a.ambient_dim)
  # columns: coefficients on a's rows, then on b's; rows: ambient coords
  a_cols = list(zip(*a.rows))
  stacked = [list(col) + [-x for x in neg]
             for col, neg in zip(a_cols, zip(*b.rows))]
  rows, pivots = _integer_rref(stacked)
  # map stops at a's coefficients, the first a.dim entries of c
  vecs = [[sum(map(mul, c, col)) for col in a_cols]
          for c in _kernel_spanners(rows, pivots, a.dim + b.dim)]
  return _reduced(a.ambient_dim, vecs)


def subspace_image(M: RatMatrix, s: Subspace) -> Subspace:
  """Image M(s), spanned by the images of s's integer rows under L M."""
  if s.ambient_dim != M.n_cols:
    raise ValueError("subspace ambient dimension does not match matrix width")
  scaled = _integer_matrix(M)
  return _reduced(M.n_rows, [[sum(map(mul, row, r)) for row in scaled]
                             for r in s.rows])


def orthogonal_complement(s: Subspace) -> Subspace:
  if s.dim == 0:
    return Subspace.full(s.ambient_dim)
  return _reduced(s.ambient_dim,
                  _kernel_spanners(s.rows, s.pivots, s.ambient_dim))


def solve_affine_in_subspace(M: RatMatrix, b: RatVector, w: Subspace) -> RatVector | None:
  """Exact u in w with M u = b, or None when no such u exists.

  The returned u is deterministic: the solution for coefficients on w's
  canonical basis with free coordinates set to zero.  The solve runs on
  w's integer rows r_j instead, the basis vectors times their positive
  pivot entries.  Scaling a column of the system moves no pivot, so the
  pivot-column solution gives the same u.
  """
  if w.ambient_dim != M.n_cols:
    raise ValueError("subspace ambient dimension does not match matrix width")
  if len(b) != M.n_rows:
    raise ValueError("right-hand side length mismatch")
  if w.dim == 0:
    return RatVector.zero(M.n_cols) if b.is_zero() else None
  int_rows, denoms = M._integer_rows
  [bs], [db] = _integerized_rows([b.entries])
  # row i, times d_i db: (row i of M times d_i) . r_j for each j, then
  # d_i b_i, all in integers
  system = [[db * sum(map(mul, row, r)) for r in w.rows] + [d * bv]
            for row, d, bv in zip(int_rows, denoms, bs)]
  rows, pivots = _integer_rref(system)
  solution = _pivot_solution(rows, pivots, w.dim)
  if solution is None:
    return None
  coeffs, denom = solution
  return RatVector(tuple(Fraction(sum(map(mul, coeffs, col)), denom)
                         for col in zip(*w.rows)))


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
