"""Escape curves: the evidence of a NonProper certificate, and their builders.

An escape curve is an explicit unbounded family of points

    x(t) = sum over e of t^e c_e,    t = gamma^(1/3),

given by its Laurent coefficient vectors c_e in the matrix's own
coordinates.  It refutes properness of x + (Ax)^k when its top exponent is
positive with a nonzero vector, every c_e lies in Im A, and x + A(x^k)
keeps no positive power of t: the one rule `witness.validate_witness`
checks.  `laurent_coords` reads a curve as one Laurent polynomial per
coordinate, which is the form a replay expands.

The decider builds curves by two constructions:

* `simple_curve`, for a direction x_inf with no zero coordinate:
      x = t^3 x_inf + t^(-3(k-2)) u / (k x_inf^(k-1)),
  which makes x^k = t^(3k) x_inf^k + t^3 u + lower order, so with
  A(x_inf^k) = 0 and A u = -x_inf no positive power is left.

* `chain_curve`, for a 0/1 pattern x_inf and its escape chain:
      x = t^3 x_inf + t^(-3) u1 / 3 + t^(-5) v1 / 3 + t r + t^(-1) w / 3,
  where r is the coordinatewise cube root of the off-support part of the
  first solve u, w pairs the second solve v against r^(-2) on r's support,
  and u1 and v1 lift the support parts of u and v into the image.

A chain may be found on a conjugate B = P D A D^(-3) P^T of A (a
`ConjugationFrame`).  With G_M(w) = w + M(w^3), G_B(P D w) = P D G_A(w)
and Im B = P D Im A, so the curve z built for B is the curve
w = D^(-1) P^T z for A, with rational coefficients still.  Every curve
therefore lives in A's coordinates, and no checker sees a frame.  The
formulas above are how curves are built; the rule, not these equations,
is what is checked.
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

  def pull_back(self, z: RatVector) -> RatVector:
    """w = D^(-1) P^T z, the point of A's map that z is for B's:
    w[perm[i]] = z[i] / diag[perm[i]]."""
    w = [Fraction(0)] * len(z)
    for zi, o in zip(z, self.perm):
      w[o] = zi / self.diag[o]
    return RatVector(tuple(w))


@dataclass(frozen=True)
class EscapeCurve:
  """x(t) = sum over e of t^e coefficients[e], t = gamma^(1/3), offered as
  a refutation of properness of x + (Ax)^k.

  The exponents are ints and the coefficients RatVectors of one length,
  kept highest exponent first whatever order they come in, so a replay
  sums every coordinate's terms in one order.  `numeric` marks a curve
  whose coefficients were rounded from floats.
  """

  k: int
  coefficients: dict
  numeric: bool = False

  def __post_init__(self):
    if self.k < 1:
      raise ValueError("power k must be >= 1")
    if not self.coefficients:
      raise ValueError("an escape curve needs at least one term")
    if len({len(v) for v in self.coefficients.values()}) != 1:
      raise ValueError("the coefficient vectors of a curve must have one "
                       "length")
    object.__setattr__(self, "coefficients",
                       dict(sorted(self.coefficients.items(), reverse=True)))

  @property
  def dim(self) -> int:
    return len(next(iter(self.coefficients.values())))


def _curve(k: int, terms: dict, numeric: bool) -> EscapeCurve:
  """The curve of the nonzero vectors among terms."""
  return EscapeCurve(k, {e: v for e, v in terms.items() if not v.is_zero()},
                     numeric)


def simple_curve(x_inf: RatVector, u: RatVector, k: int = 3,
                 numeric: bool = False) -> EscapeCurve:
  """t^3 x_inf + t^(-3(k-2)) u / (k x_inf^(k-1)) for x_inf with no zero
  coordinate and k >= 2, each low coefficient built as one Fraction from
  the integer parts of u and x_inf."""
  low = RatVector(tuple(
    Fraction(ui.numerator * xi.denominator ** (k - 1),
             ui.denominator * k * xi.numerator ** (k - 1))
    for xi, ui in zip(x_inf, u)))
  return _curve(k, {3: x_inf, -3 * (k - 2): low}, numeric)


def chain_curve(x_inf: RatVector, u1: RatVector, v1: RatVector | None = None,
                root: RatVector | None = None, v: RatVector | None = None,
                frame: ConjugationFrame | None = None,
                numeric: bool = False) -> EscapeCurve:
  """t^3 x_inf + t^(-3) u1 / 3 + t^(-5) v1 / 3 + t root + t^(-1) w / 3
  with w = v / root^2 where root is nonzero and 0 elsewhere, each vector
  pulled back through the frame the chain was found in, if any."""
  third = Fraction(1, 3)
  terms = {3: x_inf, -3: u1.scale(third)}
  if v1 is not None:
    terms[-5] = v1.scale(third)
  if root is not None:
    terms[1] = root
    if v is not None:
      terms[-1] = RatVector(tuple(b / (3 * r * r) if r else Fraction(0)
                                  for b, r in zip(v, root)))
  if frame is not None:
    terms = {e: frame.pull_back(z) for e, z in terms.items()}
  return _curve(3, terms, numeric)


def laurent_coords(curve: EscapeCurve) -> list[dict]:
  """Each coordinate of the curve as a Laurent polynomial in t: a dict
  from exponent to its nonzero Fraction coefficient, highest exponent
  first.  With rational coefficients the dominant orders of x + A(x^k)
  can cancel exactly instead of in floating point, where they would drown
  the residual at large gamma."""
  return [{e: c[i] for e, c in curve.coefficients.items() if c[i]}
          for i in range(curve.dim)]


def _float_polys(coords: list[dict]) -> list[dict]:
  """The Laurent polynomials with each coefficient n/d read as the float
  n / d, which is what `float` returns for it."""
  return [{e: c.numerator / c.denominator for e, c in p.items()}
          for p in coords]


def _replay(polys: list[dict], ts: list[float]) -> list[tuple[float, ...]]:
  """Float Laurent polynomials at every t of ts, one point per t.  Each
  polynomial is evaluated at all of them in one pass over its terms, so
  every sum starts from 0 and adds the terms in the polynomial's order;
  each power t ** e is taken once."""
  tpow = {e: [t ** e for t in ts] for e in set().union(*polys)}
  columns = []
  for p in polys:
    acc = [0] * len(ts)
    for e, c in p.items():
      acc = [a + c * w for a, w in zip(acc, tpow[e])]
    columns.append(acc)
  return list(zip(*columns))


def build_witness_point(curve: EscapeCurve, gamma: float) -> tuple[float, ...]:
  """The escape point of the curve at a positive gamma, in float
  coordinates: `laurent_coords` at t = gamma^(1/3).  Nothing about a
  matrix is checked here; that is the validator's job."""
  if not gamma > 0:
    raise ValueError("gamma must be positive")
  t = gamma ** (1.0 / 3.0)
  return _replay(_float_polys(laurent_coords(curve)), [t])[0]
