"""Naive reference computations the benchmark checks the package against.

Textbook Gaussian elimination over Fraction, on plain lists of rows.
Nothing here imports propermap, so a check built from these functions
shares no code with what it checks.
"""

from __future__ import annotations

from fractions import Fraction

SCREEN_KERNEL_GRAM = "kernel-in-gram-kernel"
SCREEN_GRAM_RANK1 = "gram-rank-1"
SCREEN_TRIANGULAR = "triangular"


def rref(rows):
  """Reduced row echelon form of a copy; returns (rows, pivot columns)."""
  a = [[Fraction(x) for x in row] for row in rows]
  n_rows = len(a)
  n_cols = len(a[0]) if a else 0
  pivots = []
  r = 0
  for c in range(n_cols):
    p = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
    if p is None:
      continue
    a[r], a[p] = a[p], a[r]
    inv = 1 / a[r][c]
    a[r] = [x * inv for x in a[r]]
    for i in range(n_rows):
      if i != r and a[i][c] != 0:
        f = a[i][c]
        a[i] = [x - f * y for x, y in zip(a[i], a[r])]
    pivots.append(c)
    r += 1
    if r == n_rows:
      break
  return a, pivots


def rank(rows) -> int:
  return len(rref(rows)[1])


def kernel(rows):
  """Basis of the null space, one list per vector."""
  reduced, pivots = rref(rows)
  n = len(rows[0])
  out = []
  for f in (j for j in range(n) if j not in pivots):
    v = [Fraction(0)] * n
    v[f] = Fraction(1)
    for i, p in enumerate(pivots):
      v[p] = -reduced[i][f]
    out.append(v)
  return out


def det(rows) -> Fraction:
  """Determinant by elimination with row swaps."""
  a = [[Fraction(x) for x in row] for row in rows]
  n = len(a)
  d = Fraction(1)
  for c in range(n):
    p = next((i for i in range(c, n) if a[i][c] != 0), None)
    if p is None:
      return Fraction(0)
    if p != c:
      a[c], a[p] = a[p], a[c]
      d = -d
    d *= a[c][c]
    for i in range(c + 1, n):
      f = a[i][c] / a[c][c]
      if f:
        a[i] = [x - f * y for x, y in zip(a[i], a[c])]
  return d


def matmul(a, b):
  return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def apply(rows, v):
  return [sum(x * y for x, y in zip(row, v)) for row in rows]


def first_screen(rows) -> str | None:
  """Reason of the first structural screen that fires, in the package's
  documented order, or None when none does."""
  gram = matmul(rows, [list(c) for c in zip(*rows)])
  if all(not any(apply(gram, k)) for k in kernel(rows)):
    return SCREEN_KERNEL_GRAM
  if rank(gram) == 1:
    return SCREEN_GRAM_RANK1
  m = len(rows)
  upper = all(rows[i][j] == 0 for i in range(m) for j in range(i))
  lower = all(rows[i][j] == 0 for i in range(m) for j in range(i + 1, m))
  if upper or lower:
    return SCREEN_TRIANGULAR
  return None


def jacobian_det_at(rows, x, k: int = 3) -> Fraction:
  """det of the Jacobian of x + (Ax)^k at an exact point x."""
  ax = apply(rows, x)
  m = len(rows)
  jac = [[(1 if i == j else 0) + k * ax[i] ** (k - 1) * rows[i][j]
          for j in range(m)] for i in range(m)]
  return det(jac)
