"""Coordinatewise vector algebra for the maps under study.

The maps under study are

    F(x)     = x + (A x)^k        (power taken coordinatewise)
    F_hat(x) = x + A (x^k)

for a square rational matrix A and odd power k (k = 3 is the main case).
Coordinatewise products and powers are exact, on `RatVector`s.

Also here: exact recognition of rational k-th roots, and the grouping of a
rational vector's coordinates into perfect-cube-ratio classes.  Cube roots
of rationals whose pairwise ratios are not perfect cubes are linearly
independent over the rationals, so membership of an entrywise cube root in
a rational subspace splits into one exact linear condition per class.  This
is what lets kernel directions with irrational cube roots still be handled
exactly in the certifier.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import RatVector, Subspace, orthogonal_complement

# rational_kth_root_approx is within 10^-APPROX_DIGITS of the true root, so
# a curve built on it keeps decaying well past the largest validation gamma
APPROX_DIGITS = 48


def hprod(x: RatVector, y: RatVector) -> RatVector:
  """Coordinatewise product."""
  if len(x) != len(y):
    raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
  return RatVector(tuple(a * b for a, b in zip(x.entries, y.entries)))


def hpow(x: RatVector, k: int) -> RatVector:
  """Coordinatewise k-th power, k >= 1."""
  if k < 1:
    raise ValueError("power must be >= 1")
  return RatVector(tuple(a ** k for a in x.entries))


def integer_kth_root(n: int, k: int) -> int | None:
  """Exact integer r with r^k = n, or None.  Negative n needs odd k.

  A float seed decides when its root is small enough for float error to
  stay below one; beyond float range, or for larger roots, the integer
  Newton floor `integer_root_floor` decides.
  """
  if n == 0:
    return 0
  if n < 0:
    if k % 2 == 0:
      return None
    r = integer_kth_root(-n, k)
    return None if r is None else -r
  try:
    r = round(n ** (1.0 / k))
  except OverflowError:
    r = None
  if r is not None and r < 2 ** 40:
    # the relative error of the seed is below 1e-13, so an exact root is
    # one of these three
    for cand in (r - 1, r, r + 1):
      if cand >= 0 and cand ** k == n:
        return cand
    return None
  r = integer_root_floor(n, k)
  return r if r ** k == n else None


def rational_kth_root(q: Fraction, k: int) -> Fraction | None:
  """Exact rational r with r^k = q, or None."""
  num = integer_kth_root(q.numerator, k)
  if num is None:
    return None
  den = integer_kth_root(q.denominator, k)
  if den is None:
    return None
  return Fraction(num, den)


def integer_root_floor(n: int, k: int) -> int:
  """floor(n^(1/k)) for n >= 0 by Newton iteration in pure integers."""
  if k < 1:
    raise ValueError("root order must be >= 1")
  if n < 0:
    raise ValueError("floor root needs a nonnegative argument")
  if n == 0:
    return 0
  x = 1 << ((n.bit_length() + k - 1) // k + 1)
  while True:
    y = ((k - 1) * x + n // x ** (k - 1)) // k
    if y >= x:
      return x
    x = y


def rational_kth_root_approx(q: Fraction, k: int) -> Fraction:
  """Rational r with |r - q^(1/k)| < 10^-APPROX_DIGITS.  Negative q needs
  odd k.

  Exact when q has a rational k-th root; otherwise a truncation with a
  power-of-ten denominator.  All arithmetic is integer, so the precision
  is real, not float-limited.
  """
  if k < 1:
    raise ValueError("root order must be >= 1")
  if q < 0:
    if k % 2 == 0:
      raise ValueError("negative argument has no real even root")
    return -rational_kth_root_approx(-q, k)
  exact = rational_kth_root(q, k)
  if exact is not None:
    return exact
  scale = 10 ** APPROX_DIGITS
  # q^(1/k) = (num * den^(k-1))^(1/k) / den
  big = q.numerator * q.denominator ** (k - 1) * scale ** k
  return Fraction(integer_root_floor(big, k), q.denominator * scale)


# ---------------------------------------------------------------------------
# perfect-cube-ratio classes
# ---------------------------------------------------------------------------


def cube_root_classes(g: RatVector) -> list[list[int]]:
  """Group the nonzero coordinate indices of g so that two indices share a
  class exactly when their ratio is the cube of a rational."""
  classes: list[list[int]] = []
  reps: list[Fraction] = []
  for i, a in enumerate(g.entries):
    if a == 0:
      continue
    for cls, rep in zip(classes, reps):
      if rational_kth_root(a / rep, 3) is not None:
        cls.append(i)
        break
    else:
      classes.append([i])
      reps.append(a)
  return classes


def rational_cube_root_direction(g) -> RatVector | None:
  """A rational vector spanning the line of entrywise cube roots of g.

  g is a RatVector or a sequence of ints.  The direction exists exactly
  when all nonzero coordinates of g fall in one perfect-cube-ratio class.
  Zero coordinates stay zero.  Returns None when the cube-root direction is
  irrational.

  The test runs in integers: a RatVector is scaled by the common
  denominator of its entries first, which keeps every ratio.  With f the
  first nonzero entry of the integer vector w, w_i / f = w_i f^2 / f^3 is
  a rational cube exactly when w_i f^2 is an integer cube, and the
  direction entry is its cube root over f.  The first entry that is not a
  cube decides, so Fractions are built only for a direction that exists.
  """
  if isinstance(g, RatVector):
    scale = math.lcm(*(a.denominator for a in g.entries))
    g = [a.numerator * (scale // a.denominator) for a in g.entries]
  f = next((x for x in g if x), 0)
  if f == 0:
    raise ValueError("zero vector has no direction")
  f2 = f * f
  roots = []
  for x in g:
    r = integer_kth_root(x * f2, 3)
    if r is None:
      return None
    roots.append(r)
  return RatVector(tuple([Fraction(r, f) for r in roots]))


def cube_root_in_subspace(g: RatVector, s: Subspace) -> bool:
  """Exact test: does the entrywise real cube root of g lie in s?

  Works even when the cube root is irrational.  For every linear functional
  n vanishing on s, the condition sum_i n_i g_i^(1/3) = 0 splits into one
  rational condition per perfect-cube-ratio class, because cube roots of
  rationals from distinct classes are linearly independent over Q.
  """
  if len(g) != s.ambient_dim:
    raise ValueError("dimension mismatch")
  if g.is_zero():
    return True
  classes = cube_root_classes(g)
  # the complement's integer rows are positive multiples of its basis
  # vectors, which keeps every zero test
  for n in orthogonal_complement(s).rows:
    for cls in classes:
      ref = g.entries[cls[0]]
      total = Fraction(0)
      for i in cls:
        rho = rational_kth_root(g.entries[i] / ref, 3)
        total += n[i] * rho
      if total != 0:
        return False
  return True
