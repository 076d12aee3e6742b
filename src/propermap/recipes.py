"""Witness recipes: the data needed to generate concrete escape points.

A witness recipe encodes an explicit unbounded sequence x_n whose images
under the relevant map stay bounded, refuting properness.  Two construction
kinds exist:

* "simple": x_inf has no zero coordinate.  Points are
      x_n = gamma x_inf + (1/(k gamma^(k-2))) u * x_inf^(-(k-1)),
  which makes x_n^k = gamma^k x_inf^k + gamma u + lower order, so with
  A(x_inf^k) = 0 and A u = -x_inf the image under x + A(x^k) decays like
  1/gamma^(k-2).  Those equations alone refute nothing: the points must
  also lie in Im A, so u * x_inf^(-(k-1)) must too.

* "corank-chain": x_inf is a 0/1 pattern (kernel direction with zeros).
  Points follow the two-stage construction
      x_n = gamma x_inf + (1/(3 gamma^2)) (gamma u1 + gamma^(1/3) v1)
            + gamma^(1/3) r + (1/(3 gamma^(1/3))) w,
  where r is the coordinatewise cube root of the off-support part of u and
  w pairs the second solve v against r^(-2) on r's support.  The image
  under x + A(x^3) decays like gamma^(-1/3).

Recipes carry exact rational data (floats only appear for recipes flagged
numeric) plus an optional diagonal-and-permutation frame: when the matrix
under analysis was conjugated to bring its kernel direction to a leading
0/1 pattern, the recipe refers to the conjugated matrix, and the frame says
how to rebuild it from the original.

`laurent_coords` is the one curve model: each coordinate of x_n as a
Laurent polynomial in t = gamma^(1/3) with rational coefficients.  A
validation expands it once and takes from that expansion the escape
points, each coefficient read as a float once, the residuals x + B(x^k),
which `witness` computes as exact integer polynomials, and the one exact
rule a rational recipe must keep: the curve lies in Im B, and the
residuals keep no positive power of t.  The formulas above are how the
recipes are built; the rule, not these equations, is what is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RatMatrix, RatVector


@dataclass(frozen=True)
class ConjugationFrame:
  """B = P D A D^(-3) P^T with D = diag(diag) and (P x)[i] = x[perm[i]].

  Properness of the map of B is equivalent to that of A, and kernel
  directions transform by x -> P D^3 x.
  """

  perm: tuple[int, ...]
  diag: tuple[Fraction, ...]

  def __post_init__(self):
    m = len(self.perm)
    if sorted(self.perm) != list(range(m)):
      raise ValueError(f"frame field 'perm' must be a permutation of "
                       f"0..{m - 1}, got {list(self.perm)}")
    if len(self.diag) != m:
      raise ValueError("frame field 'diag' must match 'perm' in length")
    for i, d in enumerate(self.diag):
      if d == 0:
        raise ValueError(f"frame field 'diag' has a zero entry at {i}")

  def conjugate(self, A: RatMatrix) -> RatMatrix:
    """B[i][j] = d_i a / d_j^3 with a = A[perm[i]][perm[j]] and d the
    permuted diagonal, built as one Fraction(p_i q_j^3 num(a),
    q_i p_j^3 den(a)) from d = p / q; the cubes are taken once per
    column."""
    m = A.m
    if len(self.perm) != m:
      raise ValueError("frame size does not match matrix")
    ds = [self.diag[o] for o in self.perm]
    cubes = [(d.numerator ** 3, d.denominator ** 3) for d in ds]
    rows = []
    for oi, d in zip(self.perm, ds):
      p, q = d.numerator, d.denominator
      row = [A.rows[oi][oj] for oj in self.perm]
      rows.append(tuple([Fraction(p * q3 * a.numerator, q * p3 * a.denominator)
                         for a, (p3, q3) in zip(row, cubes)]))
    return RatMatrix(tuple(rows))


@dataclass(frozen=True)
class WitnessRecipe:
  """Everything needed to produce escape points x_n at any gamma."""

  kind: str                      # "simple" or "corank-chain"
  x_inf: RatVector
  u: RatVector
  k: int = 3
  v: RatVector | None = None
  u1: RatVector | None = None
  v1: RatVector | None = None
  u_hat_root: RatVector | None = None
  frame: ConjugationFrame | None = None
  numeric: bool = False

  def __post_init__(self):
    if self.kind not in ("simple", "corank-chain"):
      raise ValueError(f"unknown recipe kind {self.kind!r}")
    if self.k < 1:
      raise ValueError("power k must be >= 1")
    n = len(self.x_inf)
    for name in ("u", "v", "u1", "v1", "u_hat_root"):
      vec = getattr(self, name)
      if vec is not None and len(vec) != n:
        raise ValueError(f"recipe field '{name}' lives in dimension "
                         f"{len(vec)}, x_inf in dimension {n}")


def laurent_coords(recipe: WitnessRecipe) -> list[dict]:
  """Each coordinate of x_n as a Laurent polynomial in t = gamma^(1/3).

  The polynomials map exponents to rational coefficients, so the dominant
  orders of x + B(x^k) can cancel exactly instead of in floating point,
  where they would drown the residual at large gamma.  A simple recipe's
  coordinate is t^3 x_inf + t^(-3(k-2)) u / (k x_inf^(k-1)), the second
  coefficient built as one Fraction from the integer parts of u and x_inf.
  """
  m = len(recipe.x_inf)
  coords: list[dict] = [{} for _ in range(m)]

  def add(i, e, c):
    # the exponents of one coordinate are distinct, so nothing accumulates
    if c:
      coords[i][e] = c

  if recipe.kind == "simple":
    k = recipe.k
    low = -3 * (k - 2)
    for i, (xi, ui) in enumerate(zip(recipe.x_inf, recipe.u)):
      add(i, 3, xi)
      if ui:
        add(i, low, Fraction(ui.numerator * xi.denominator ** (k - 1),
                             ui.denominator * k * xi.numerator ** (k - 1)))
    return coords
  u1 = recipe.u1 if recipe.u1 is not None else recipe.u
  for i in range(m):
    add(i, 3, recipe.x_inf[i])
    add(i, -3, u1[i] / 3)
    if recipe.v1 is not None:
      add(i, -5, recipe.v1[i] / 3)
    if recipe.u_hat_root is not None:
      ri = recipe.u_hat_root[i]
      add(i, 1, ri)
      if ri != 0 and recipe.v is not None:
        add(i, -1, recipe.v[i] / (3 * ri ** 2))
  return coords


def _float_polys(coords: list[dict]) -> list[dict]:
  """The Laurent polynomials with each coefficient n/d read as the float
  n / d, which is what `float` returns for it."""
  return [{e: c.numerator / c.denominator for e, c in p.items()}
          for p in coords]


def _evaluate(polys: list[dict], powers: dict) -> list[float]:
  """Float Laurent polynomials at t, given powers[e] = t ** e for each of
  their exponents, each a sum in its exponents' order."""
  return [sum([c * powers[e] for e, c in p.items()]) for p in polys]


def _check_recipe(recipe: WitnessRecipe) -> None:
  """Recipe-internal sanity, raising ValueError: a simple recipe needs a
  fully nonzero x_inf, a nonzero u and k >= 2, a chain recipe a cubic
  nonzero 0/1 pattern x_inf.  Either way the curve's t^3 term x_inf is
  not zero, so its points grow without bound."""
  if recipe.kind == "simple":
    if any(a == 0 for a in recipe.x_inf):
      raise ValueError("simple recipe requires x_inf with no zero coordinate")
    if recipe.u.is_zero():
      raise ValueError("simple recipe with u = 0 is impossible unless x_inf = 0")
    if recipe.k < 2:
      raise ValueError("simple recipe needs k >= 2")
  else:
    support = recipe.x_inf.support()
    if not support or any(recipe.x_inf[i] != 1 for i in support):
      raise ValueError("chain recipe requires a nonzero 0/1 pattern x_inf")
    if recipe.k != 3:
      raise ValueError("chain recipes are cubic only")


def witness_points(recipe: WitnessRecipe, gammas) -> list[tuple[float, ...]]:
  """Concrete escape points at the given gammas, in float coordinates.

  Only recipe-internal sanity is enforced here (matrix equations are the
  validator's job): gammas must be positive, a simple recipe needs a fully
  nonzero x_inf, a nonzero u and k >= 2, a chain recipe needs a cubic
  nonzero 0/1 pattern x_inf (`_check_recipe`).  Each point is `laurent_coords` at
  t = gamma^(1/3).
  """
  if not all(g > 0 for g in gammas):
    raise ValueError("gamma must be positive")
  _check_recipe(recipe)
  polys = _float_polys(laurent_coords(recipe))
  exponents = set().union(*polys)
  points = []
  for g in gammas:
    t = g ** (1.0 / 3.0)
    points.append(tuple(_evaluate(polys, {e: t ** e for e in exponents})))
  return points


def build_witness_point(recipe: WitnessRecipe, gamma: float) -> tuple[float, ...]:
  """The escape point of `witness_points` at one gamma."""
  return witness_points(recipe, (gamma,))[0]
