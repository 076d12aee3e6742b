"""Concrete matrix instances and seeded random samplers.

Three generators live here.  The 3x3 family produces rank-2 matrices with
kernel (1,1,1) that are engineered to fail properness, parametrized by four
free rationals.  The 5x5 shift is a fixed nilpotent example whose map is an
automorphism.  The rank sampler draws random matrices of a prescribed exact
rank for density experiments.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certify import NONPROPER, certify
from .linalg import RatMatrix, as_rat, rank
from .witness import validate_witness

# golden_3x3_params searches free parameters in [-GOLDEN_BOX, GOLDEN_BOX]
GOLDEN_BOX = 3
# sample_rank_r draws the entries of its two factors from
# [-RANK_SAMPLE_BOX, RANK_SAMPLE_BOX]
RANK_SAMPLE_BOX = 3


@dataclass(frozen=True)
class Family3x3Params:
  """Parameters of the 3x3 non-proper family.

  The matrix rows are r1 = (a11, a12, a13), r2 = (a21, a22, a23) and
  r3 = lam*r1 + (1-lam)*r2, with a13 = -(a11+a12) and a23 = -(a21+a22)
  so every row sums to zero and the kernel contains (1, 1, 1).

  Feasibility requires a11 + a13*lam == a21 + a23*lam, the common value
  nonzero, and rows r1, r2 linearly independent.  Use from_free to build
  a valid member from the four free parameters (a11, a12, a22, lam).
  """

  a11: Fraction
  a12: Fraction
  a21: Fraction
  a22: Fraction
  lam: Fraction

  def __post_init__(self):
    for name in ("a11", "a12", "a21", "a22", "lam"):
      object.__setattr__(self, name, as_rat(getattr(self, name)))
    lhs = self.a11 + self.a13 * self.lam
    rhs = self.a21 + self.a23 * self.lam
    if lhs != rhs:
      raise ValueError(
        "equality constraint a11 + a13*lam == a21 + a23*lam fails: "
        f"{lhs} != {rhs}")
    if lhs == 0:
      raise ValueError("feasibility constraint a11 + a13*lam != 0 fails")
    # rank 2 needs rows 1 and 2 independent; row 3 is their combination
    if self.a11 * self.a22 - self.a12 * self.a21 == 0 and \
       self.a11 * self.a23 - self.a13 * self.a21 == 0 and \
       self.a12 * self.a23 - self.a13 * self.a22 == 0:
      raise ValueError(
        "rows (a11,a12,a13) and (a21,a22,a23) are linearly dependent, "
        "so the rank-2 constraint fails")

  @property
  def a13(self) -> Fraction:
    return -(self.a11 + self.a12)

  @property
  def a23(self) -> Fraction:
    return -(self.a21 + self.a22)

  @property
  def mu(self) -> Fraction:
    return 1 - self.lam

  @classmethod
  def from_free(cls, a11, a12, a22, lam) -> "Family3x3Params":
    """Solve the equality constraint for a21 given the four free parameters."""
    a11, a12, a22, lam = (as_rat(x) for x in (a11, a12, a22, lam))
    if lam == 1:
      raise ValueError("lam = 1 leaves a21 undetermined in "
                       "a11 + a13*lam == a21 + a23*lam")
    a13 = -(a11 + a12)
    a21 = (a11 + a13 * lam + a22 * lam) / (1 - lam)
    return cls(a11, a12, a21, a22, lam)


def forge_3x3(p: Family3x3Params) -> RatMatrix:
  """Build the family member for p: rank 2, kernel (1,1,1), non-proper map."""
  r1 = (p.a11, p.a12, p.a13)
  r2 = (p.a21, p.a22, p.a23)
  r3 = tuple(p.lam * x + p.mu * y for x, y in zip(r1, r2))
  return RatMatrix.of([r1, r2, r3])


def _free_parameter_search_order(box: int):
  """Integer 4-tuples in [-box, box]^4 sorted by max-norm, 1-norm, then lex."""
  rng = range(-box, box + 1)
  tuples = [(a, b, c, d) for a in rng for b in rng for c in rng for d in rng]
  tuples.sort(key=lambda t: (max(abs(x) for x in t),
                             sum(abs(x) for x in t), t))
  return tuples


@lru_cache(maxsize=None)
def golden_3x3_params() -> Family3x3Params:
  """Smallest integer free parameters whose member certifies NonProper.

  Searches [-GOLDEN_BOX, GOLDEN_BOX]^4 in (max-norm, 1-norm, lex) order
  and returns the first member that passes construction, certifies
  NonProper, and whose escape curve validates.
  """
  for t in _free_parameter_search_order(GOLDEN_BOX):
    try:
      p = Family3x3Params.from_free(*t)
    except ValueError:
      continue
    A = forge_3x3(p)
    cert = certify(A)
    if cert.verdict != NONPROPER:
      continue
    if validate_witness(A, cert.witness()).passed:
      return p
  raise ValueError("no valid family member with parameters in "
                   f"[-{GOLDEN_BOX}, {GOLDEN_BOX}]")


def golden_3x3() -> RatMatrix:
  """The fixture member of the 3x3 family."""
  return forge_3x3(golden_3x3_params())


def shift_5x5() -> RatMatrix:
  """The fixed 5x5 coordinate shift: (Ax) = (x3, x4, x5, 0, 0)."""
  rows = [[0] * 5 for _ in range(5)]
  rows[0][2] = 1
  rows[1][3] = 1
  rows[2][4] = 1
  return RatMatrix.of(rows)


def sample_rank_r(m: int, r: int, seed: int = 0) -> RatMatrix:
  """Random m x m integer matrix of exact rank r, drawn as a product B*C.

  B is m x r and C is r x m with entries uniform in [-RANK_SAMPLE_BOX,
  RANK_SAMPLE_BOX]; the draw repeats until the product has rank exactly r.
  """
  if not 0 <= r <= m:
    raise ValueError(f"rank {r} is not between 0 and {m}")
  if m < 1:
    raise ValueError("matrix size must be at least 1")
  if r == 0:
    return RatMatrix.zero(m, m)
  box = RANK_SAMPLE_BOX
  rng = random.Random(seed)
  while True:
    B = [[rng.randint(-box, box) for _ in range(r)] for _ in range(m)]
    C = [[rng.randint(-box, box) for _ in range(m)] for _ in range(r)]
    A = RatMatrix.of([[sum(B[i][t] * C[t][j] for t in range(r))
                       for j in range(m)] for i in range(m)])
    if rank(A) == r:
      return A


@dataclass(frozen=True)
class DensityRow:
  """Outcome of one density trial."""

  seed: int
  m: int
  r: int
  verdict: str
  reason: str


@dataclass(frozen=True)
class DensitySummary:
  """All trials of one density experiment plus verdict counts."""

  m: int
  r: int
  trials: int
  seed: int
  rows: tuple[DensityRow, ...]
  counts: dict

  def to_csv(self) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "m", "r", "verdict", "reason"])
    for row in self.rows:
      writer.writerow([row.seed, row.m, row.r, row.verdict, row.reason])
    return buf.getvalue()


def density_experiment(m: int, r: int, trials: int,
                       seed: int = 0) -> DensitySummary:
  """Certify `trials` random rank-r samples; trial i uses seed + i."""
  if trials < 1:
    raise ValueError("trials must be at least 1")
  rows = []
  counts: dict = {}
  for i in range(trials):
    trial_seed = seed + i
    A = sample_rank_r(m, r, seed=trial_seed)
    cert = certify(A)
    rows.append(DensityRow(trial_seed, m, r, cert.verdict, cert.reason))
    counts[cert.verdict] = counts.get(cert.verdict, 0) + 1
  return DensitySummary(m, r, trials, seed, tuple(rows), counts)
