"""Decision engine: certify properness or non-properness of x + (Ax)^3.

The map F(x) = x + (Ax)^3 built from a square rational matrix A is proper
exactly when its companion G(x) = x + A(x^3), restricted to the image of
A A^T, is proper.  Every decision this module makes goes through that
reduction.  Over the rationals Im(A A^T) = Im A and Ker(A A^T) = Ker A^T,
because k^T A A^T k = |A^T k|^2, so the Gram matrix A A^T is never formed.
A certificate records the verdict, the decisive reason, exact evidence,
and an audit trail of everything that was tried.

Proper certificates come from structural screens (kernel conditions, Gram
rank, triangularity, a blocked kernel line) or from exhausting all escape
directions.  NonProper certificates carry a witness recipe whose escape
points can be generated and validated independently.

All decisive arithmetic is exact over the rationals.  Floats appear only
in clearly flagged numeric fallbacks, which can support a NonProper claim
(with a "-numeric" reason suffix) but never a Proper one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache

from .hadamard import (
  cube_root_in_subspace,
  hpow,
  hprod,
  integer_kth_root,
  rational_cube_root_direction,
  rational_kth_root,
  rational_kth_root_approx,
)
from .linalg import (
  RatMatrix,
  RatVector,
  Subspace,
  _integer_matrix,
  _integerized_rows,
  _pivot_solution,
  _reduced,
  as_rat,
  cached,
  det,
  intersect,
  kernel_basis,
  orthogonal_complement,
  primitive_integer_vector,
  rref,
  solve_affine_in_subspace,
  subspace_image,
)
from .recipes import ConjugationFrame, WitnessRecipe, _restrict
from .witness import validate_witness

PROPER = "Proper"
NONPROPER = "NonProper"
UNDECIDED = "Undecided"

# reasons for Proper verdicts
REASON_KERNEL_GRAM = "kernel-in-gram-kernel"
REASON_GRAM_RANK1 = "gram-rank-1"
REASON_TRIANGULAR = "triangular"
REASON_KERNEL_LINE = "kernel-line-blocked"
REASON_CHAIN_UNSAT = "escape-chain-unsat"
REASON_NO_ESCAPE = "no-escape-direction"

# reasons for NonProper verdicts
REASON_ESCAPE = "escape-direction"
REASON_CHAIN = "escape-chain"

# numeric fallbacks append this suffix
NUMERIC_SUFFIX = "-numeric"

# Undecided
REASON_OUT_OF_SCOPE = "outside-decidable-screens"

# linear case k = 1
REASON_LINEAR_INVERTIBLE = "linear-map-invertible"
REASON_LINEAR_SINGULAR = "linear-map-singular"

FLOAT_TOL = 1e-9

# the escape search's note when no cube root of a kernel vector is in Im A
_NO_ROOT_IN_IMAGE = "no cube root of a kernel vector lies in the image"

# the escape search and the corank >= 2 sweep read the same list of at most
# CANDIDATE_CAP rational directions, the cube roots of +-1 kernel combinations
CANDIDATE_CAP = 400


@dataclass(frozen=True)
class AuditEntry:
  """One step of the decision pipeline: what ran and what it concluded."""

  step: str
  outcome: str
  detail: str = ""


@dataclass(frozen=True)
class Certificate:
  verdict: str
  reason: str
  matrix: RatMatrix
  k: int = 3
  evidence: dict = field(default_factory=dict)
  audit: tuple[AuditEntry, ...] = ()

  def __post_init__(self):
    if self.verdict not in (PROPER, NONPROPER, UNDECIDED):
      raise ValueError(f"unknown verdict {self.verdict!r}")

  @property
  def decided(self) -> bool:
    return self.verdict != UNDECIDED

  def witness(self) -> WitnessRecipe | None:
    recipe = self.evidence.get("recipe")
    return recipe if isinstance(recipe, WitnessRecipe) else None


@dataclass(frozen=True)
class ChainStage:
  """One solve of the escape chain: A solution = -target.

  Stage zero's target is x_inf; each later target is the cube root of the
  previous solution's hat part.  Entries are Fractions, or floats once the
  chain has continued in floats.
  """

  target: tuple
  solution: tuple


@dataclass(frozen=True)
class ConditionSetReport:
  """Outcome of the escape-chain conditions for one 0/1 direction.

  `failure` names the first condition that failed when `satisfied` is
  False.  `numeric_only` marks a chain that continued in floats past an
  irrational hat cube root, which can refute but never certify properness.
  `extrapolated` marks a chain that went past the two solves a witness
  recipe displays.
  """

  x_inf: RatVector
  satisfied: bool
  stages: tuple[ChainStage, ...]
  failure: str | None = None
  numeric_only: bool = False
  extrapolated: bool = False

  @property
  def depth(self) -> int:
    return len(self.stages)

  def summary(self) -> dict:
    """The report as certificate evidence carries it through JSON."""
    return {"type": "chain",
            "satisfied": self.satisfied,
            "depth": self.depth,
            "numeric_only": self.numeric_only,
            "extrapolated": self.extrapolated,
            "failure": self.failure}


@dataclass(frozen=True)
class EscapeSearch:
  """Result of looking for x with Ax != 0 and A((Ax)^3) = 0, x in Im(A^T).

  ``image_vector`` is the y = Ax found, or None.  ``none_is_proof`` is True
  when the absence of a candidate is an exact theorem about A rather than
  the failure of a bounded search.  The preimage ``candidate`` x is solved
  in the row space at its first read, from the matrix and row space the
  search keeps; the decision itself only asks whether y exists, so most
  searches never solve it.  The kept inputs take no part in eq or repr.
  """

  image_vector: RatVector | None
  none_is_proof: bool
  note: str = ""
  _preimage_of: tuple[RatMatrix, Subspace] | None = field(
    default=None, compare=False, repr=False)

  @cached
  def candidate(self) -> RatVector | None:
    """The x in the row space with Ax = image_vector, or None."""
    if self.image_vector is None:
      return None
    A, rowspace = self._preimage_of
    x = solve_affine_in_subspace(A, self.image_vector, rowspace)
    if x is None:
      raise AssertionError("image vector without row-space preimage")
    return x


@dataclass(frozen=True)
class NormalizedKernel:
  """Corank-one matrix rewritten so a kernel vector is a 0/1 pattern."""

  matrix: RatMatrix
  frame: ConjugationFrame
  generator: RatVector
  support_size: int


@dataclass(frozen=True)
class Analysis:
  """The per-matrix data the decision steps share, each part computed once.

  `certify` and `verify_certificate` build one per call and hand it to every
  step; the public steps also accept a bare matrix and then build their own.
  Each part is computed at its first read and kept in the object's own
  `__dict__` (`linalg.cached`, which takes no lock), so the object stays
  frozen.  Nothing outlives the object, so no state is shared between
  calls.
  """

  A: RatMatrix

  @cached
  def row_space(self) -> Subspace:
    """One `rref` of A's integer rows."""
    return _reduced(self.A.n_cols, self.A._integer_rows[0])

  @cached
  def kernel(self) -> Subspace:
    return orthogonal_complement(self.row_space)

  @cached
  def rank(self) -> int:
    return self.row_space.dim

  @cached
  def _columns(self) -> list[tuple[int, ...]]:
    """The columns of L A, L the lcm of A's row denominators."""
    return list(zip(*_integer_matrix(self.A)))

  @cached
  def image(self) -> Subspace:
    """Im A, reduced from the r columns of L A at the row space's pivot
    columns, which are a basis of it.  Computed only when read: of the
    screens only the all-ones kernel line reads it."""
    return _reduced(self.A.n_rows,
                    [self._columns[p] for p in self.row_space.pivots])

  @cached
  def cube_root_directions(self) -> tuple[RatVector, ...]:
    """The rational cube-root directions of the kernel combinations of
    `_unit_tuples`, widest support first, then smallest sum of |y|, then
    table order; at most CANDIDATE_CAP of them.

    Take w = D * sum c_j b_j on the canonical kernel basis b_j, with D the
    common denominator, so w is an integer vector.  Each b_j is 1 at its
    pivot p_j and 0 at the other pivots, so w[p_j] = D c_j.

    Only +-1 coefficient tuples are tested.  The pivot identity makes every
    ratio c_j / c_l of nonzero coefficients a ratio of coordinates of w, so
    a rational direction needs each of them to be a rational cube: while
    every |c_j| < 8, a coefficient other than +-1 adds no direction.

    Only the non-pivot coordinates are tested.  Every b_j vanishes before
    its pivot, so the first nonzero entry f of w is w[p] = D c_j = +-D at
    the smallest pivot p with c_j != 0, and f^2 = D^2.  A coordinate x of w
    gives a rational cube x / f = x f^2 / f^3 exactly when x D^2 is an
    integer cube.  At a pivot coordinate x D^2 is 0 or +-D^3, which always
    passes, so `_cube_line` forms the non-pivot coordinates one integer dot
    product at a time and stops at the first that fails.  Only a tuple that
    passes builds its direction, through `rational_cube_root_direction`.

    The directions are pairwise non-parallel without a dedupe: distinct
    primitive sign-normalized tuples span distinct kernel lines, and y^3
    spans the line y came from.
    """
    columns, scale = _integer_columns(self.kernel)
    taken = set(self.kernel.pivots)
    free = [col for i, col in enumerate(columns) if i not in taken]
    scale2 = scale * scale
    found = [rational_cube_root_direction(_combine(c, columns))
             for c in _unit_tuples(self.kernel.dim)
             if _cube_line(c, free, scale2)]
    found.sort(key=lambda v: (-len(v.support()),
                              sum(abs(x) for x in v.entries)))
    return tuple(found[:CANDIDATE_CAP])


def _analysis(A: RatMatrix | Analysis) -> Analysis:
  return A if isinstance(A, Analysis) else Analysis(A)


def _indicator_matrix(m: int, indices) -> RatMatrix:
  idx = set(indices)
  return RatMatrix.diagonal([Fraction(1) if i in idx else Fraction(0)
                             for i in range(m)])


def _repair_solution(u0: RatVector, kernel: Subspace,
                     conditions: list[tuple[RatMatrix, Subspace]]) -> RatVector | None:
  """Adjust u0 by a kernel vector so that L u lands in W for every (L, W).

  The solution set of the original linear system is u0 + Ker; each
  membership constraint is linear, so feasibility is one joint solve over
  the kernel coefficients and the target-subspace coordinates.  The caller
  passes at least one condition and a nonzero kernel: `condition_chain`
  always imposes the support condition, and its kernel holds x_inf.
  """
  # the joint system on the integer rows k_t of the kernel and w_s of each
  # W, row i of each L times its denominator lcm d_i and the whole row times
  # the denominator lcm of u0: scaling a column moves no pivot, so the
  # pivot solution on the rows gives the same vector as on the bases
  [u0_int], [du] = _integerized_rows([u0.entries])
  kdim = kernel.dim
  ncols = kdim + sum(W.dim for _, W in conditions)
  rows: list[list[int]] = []
  col_offset = kdim
  for L, W in conditions:
    int_rows, denoms = L._integer_rows
    for i, (row, d) in enumerate(zip(int_rows, denoms)):
      out = [0] * (ncols + 1)
      for t, k in enumerate(kernel.rows):
        out[t] = du * sum(map(operator.mul, row, k))
      for s, w in enumerate(W.rows):
        out[col_offset + s] = -du * d * w[i]
      out[ncols] = -sum(map(operator.mul, row, u0_int))
      rows.append(out)
    col_offset += W.dim
  solution = _pivot_solution(*rref(rows), ncols)
  if solution is None:
    return None
  coeffs, denom = solution
  c = coeffs[:kdim]
  return RatVector(tuple(a + Fraction(sum(map(operator.mul, c, col)), denom)
                         for a, col in zip(u0.entries, zip(*kernel.rows))))


def _solve_preferring_zero_tail(u0: RatVector, kernel: Subspace,
                                conditions: list[tuple[RatMatrix, Subspace]],
                                tail_indices) -> RatVector | None:
  """Like _repair_solution, but first try to also zero out a tail block.

  The chain conditions quantify over all solutions of each linear solve;
  a solution whose next tail vanishes ends the recursion, so it is
  preferred whenever one exists.
  """
  tail = list(tail_indices)
  if tail:
    m = len(u0)
    zero_tail = (_indicator_matrix(m, tail), Subspace.zero(m))
    attempt = _repair_solution(u0, kernel, conditions + [zero_tail])
    if attempt is not None:
      return attempt
  return _repair_solution(u0, kernel, conditions)


@cache
def _unit_tuples(dim: int) -> tuple[tuple[int, ...], ...]:
  """The coefficient tuples with entries in {-1, 0, 1} and first nonzero
  entry 1, sorted by (sum of |c|, has a -1, c).  Up to dim 4 every such
  tuple; past that those with one or two nonzero entries, plus those with
  no zero entry: all of them up to dim 8, only the all-ones tuple beyond.

  The table depends only on dim, so it is built once per process and
  returned as a tuple that no caller can change.
  """
  from itertools import combinations, product

  out = []
  for k in (range(1, dim + 1) if dim <= 4 else (1, 2, dim)):
    tails = list(product((1, -1), repeat=k - 1)) if k <= 8 else [(1,) * (k - 1)]
    for support in combinations(range(dim), k):
      for tail in tails:
        c = [0] * dim
        for i, x in zip(support, (1, *tail)):
          c[i] = x
        out.append(tuple(c))
  out.sort(key=lambda c: (sum(map(abs, c)), -1 in c, c))
  return tuple(out)


def _integer_columns(space: Subspace) -> tuple[list[tuple[int, ...]], int]:
  """The coordinates of the canonical basis scaled to integers: one tuple
  per coordinate holding that entry of every basis vector times D, the
  common denominator of the basis entries, and D itself.  Each integer row
  is primitive, so its basis vector's denominator is its pivot entry and D
  is the lcm of the pivot entries."""
  scale = math.lcm(*(r[p] for r, p in zip(space.rows, space.pivots)))
  columns = list(zip(*[[x * (scale // r[p]) for x in r]
                       for r, p in zip(space.rows, space.pivots)]))
  return columns, scale


def _combine(c: tuple[int, ...], columns: list[tuple[int, ...]]
             ) -> tuple[int, ...]:
  """The integer combination sum c_j B_j of the scaled basis B, one
  `sum(map(mul, c, column))` per coordinate."""
  return tuple([sum(map(operator.mul, c, col)) for col in columns])


def _cube_line(c: tuple[int, ...], free: list[tuple[int, ...]],
               scale2: int) -> bool:
  """Whether x * scale2 is an integer cube for every coordinate
  x = sum c_j col_j of the combination, over the given columns; stops at
  the first that is not."""
  for col in free:
    if integer_kth_root(sum(map(operator.mul, c, col)) * scale2, 3) is None:
      return False
  return True


def _disjoint_supports(rows) -> bool:
  seen: set[int] = set()
  for row in rows:
    s = {i for i, x in enumerate(row) if x}
    if seen & s:
      return False
    seen |= s
  return True


def necessary_escape_search(A: RatMatrix | Analysis) -> EscapeSearch:
  """Look for x in the row space with Ax != 0 and A((Ax)^3) = 0.

  Any unbounded sequence with bounded images has, after normalization, a
  limit direction y = Ax of this kind, so when provably none exists the
  map is proper outright.  Emptiness is proved exactly for invertible
  matrices, corank one (through cube-ratio classes, even when the cube
  root is irrational), and kernels with a disjoint-support basis of
  rational cube-root directions.

  The image is read only by the branches that test against it.  A kernel
  line with a rational cube-root direction d is one membership test: the
  roots meet Im A in span(d) when d is in it and in zero otherwise.  In the
  bounded search each direction is tested for membership in Im A.  The
  search returns the direction y it found inside Im A; its row-space
  preimage, which then exists, is solved only when the result's
  `candidate` is read.
  """
  an = _analysis(A)
  A = an.A
  m = A.m
  if an.rank == m:
    return EscapeSearch(None, True,
                        "matrix invertible: only Ax = 0 solves A((Ax)^3) = 0")
  K, rowspace = an.kernel, an.row_space

  def found(y: RatVector) -> EscapeSearch:
    return EscapeSearch(y, True, "candidate found", (A, rowspace))

  if _disjoint_supports(K.rows):
    # each integer row is its basis vector times a positive scale, which
    # keeps the support and the cube-root direction
    directions = [rational_cube_root_direction(r) for r in K.rows]
    if all(d is not None for d in directions):
      # cube roots act per coordinate, so with disjoint supports every cube
      # root of a kernel vector is a combination of the per-vector roots
      if K.dim == 1:
        # a line's roots meet the image in span(d) or in zero; d's first
        # nonzero entry is 1, so d is the widest combination of span(d)
        [d] = directions
        if not an.image.contains(d):
          return EscapeSearch(None, True, _NO_ROOT_IN_IMAGE)
        return found(d)
      meet = intersect(Subspace.span(directions, m), an.image)
      if meet.dim == 0:
        return EscapeSearch(None, True, _NO_ROOT_IN_IMAGE)
      # the widest-support combination, the first in table order on ties
      columns, scale = _integer_columns(meet)
      widest = max((_combine(c, columns)
                    for c in _unit_tuples(meet.dim)),
                   key=lambda w: sum(1 for x in w if x))
      return found(RatVector(tuple(Fraction(x, scale) for x in widest)))
  if K.dim == 1:
    g = RatVector.of(K.rows[0])
    # one basis vector always has disjoint supports, so a kernel line gets
    # here only when its cube root is irrational
    if not cube_root_in_subspace(g, an.image):
      return EscapeSearch(None, True,
                          "kernel-line cube root avoids the image")
    return EscapeSearch(None, False,
                        "an escape image vector exists but is irrational")
  for d in an.cube_root_directions:
    if an.image.contains(d):
      return found(d)
  return EscapeSearch(None, False,
                      "bounded search over rational directions found nothing")


def _kernel_in_gram_kernel(an: Analysis) -> bool:
  """Ker A inside Ker(A A^T), tested as A^T k = 0 on a kernel basis: over
  the rationals Ker(A A^T) = Ker A^T.  The sums run on integers: the
  columns of A scaled by one common L and the kernel's integer rows, which
  leaves every zero test unchanged."""
  if an.kernel.dim == 0:
    return True
  return all(sum(map(operator.mul, col, k)) == 0
             for k in an.kernel.rows for col in an._columns)


def _gram_kernel_evidence(an: Analysis) -> dict | None:
  """The evidence the kernel-in-gram-kernel screen writes for A, or None
  when it does not fire."""
  if not _kernel_in_gram_kernel(an):
    return None
  kdim = an.kernel.dim
  return {"kernel_dim": kdim,
          "note": ("matrix invertible" if kdim == 0 else
                   f"all {kdim} kernel direction(s) also kill the Gram "
                   "matrix")}


def _orientation(A: RatMatrix) -> str | None:
  """Which triangle A lies in, "upper" before "lower", or None."""
  if A.is_upper_triangular():
    return "upper"
  if A.is_lower_triangular():
    return "lower"
  return None


def sufficient_screens(A: RatMatrix | Analysis
                       ) -> tuple[Certificate | None, list[AuditEntry]]:
  """Structural conditions, each alone implying properness, tried in order.

  The screens: every kernel vector of A also kills A A^T, tested as
  A^T k = 0 (which covers invertible, symmetric and antisymmetric
  matrices); A A^T has rank one, that is, A has rank one;
  A is triangular; the kernel is the all-ones line and the ones vector
  misses the reduced subspace or its image.
  """
  an = _analysis(A)
  A = an.A
  audit: list[AuditEntry] = []

  evidence = _gram_kernel_evidence(an)
  if evidence is not None:
    audit.append(AuditEntry("screen:kernel-in-gram-kernel", "fires",
                            evidence["note"]))
    return Certificate(PROPER, REASON_KERNEL_GRAM, A, evidence=evidence), audit
  audit.append(AuditEntry("screen:kernel-in-gram-kernel", "no"))

  if an.rank == 1:
    audit.append(AuditEntry("screen:gram-rank-1", "fires"))
    cert = Certificate(PROPER, REASON_GRAM_RANK1, A,
                       evidence={"gram_rank": 1})
    return cert, audit
  audit.append(AuditEntry("screen:gram-rank-1", "no"))

  orientation = _orientation(A)
  if orientation is not None:
    audit.append(AuditEntry("screen:triangular", "fires", orientation))
    cert = Certificate(PROPER, REASON_TRIANGULAR, A,
                       evidence={"orientation": orientation})
    return cert, audit
  audit.append(AuditEntry("screen:triangular", "no"))

  cert = _ones_kernel_screen(an, audit)
  if cert is not None:
    return cert, audit
  return None, audit


def _ones_kernel_screen(an: Analysis,
                        audit: list[AuditEntry]) -> Certificate | None:
  A, K = an.A, an.kernel
  if K.dim != 1:
    audit.append(AuditEntry("screen:kernel-line-blocked", "skipped",
                            "kernel is not a line"))
    return None
  if any(x != 1 for x in K.rows[0]):
    audit.append(AuditEntry("screen:kernel-line-blocked", "skipped",
                            "kernel line is not the all-ones direction"))
    return None
  g = RatVector.of(K.rows[0])
  V = an.image
  in_V = V.contains(g)
  in_AV = solve_affine_in_subspace(A, g, V) is not None
  if not (in_V and in_AV):
    which = ("the reduced subspace" if not in_V
             else "the image of the reduced subspace")
    audit.append(AuditEntry("screen:kernel-line-blocked", "fires",
                            f"all-ones direction misses {which}"))
    return Certificate(PROPER, REASON_KERNEL_LINE, A,
                       evidence={"generator": g,
                                 "in_reduced_subspace": in_V,
                                 "reachable_from_reduced_subspace": in_AV})
  audit.append(AuditEntry("screen:kernel-line-blocked", "no",
                          "all-ones direction reaches the reduced subspace "
                          "and its image"))
  return None


def escape_direction_check(A: RatMatrix, V: Subspace, x_inf: RatVector
                           ) -> tuple[bool, RatVector | None, str]:
  """Full characterization for a limit direction with no zero coordinate.

  Inside the subspace V the direction x_inf escapes (unbounded points with
  bounded images under x + A(x^3)) exactly when A(x_inf^3) = 0 and -x_inf
  has a preimage u inside V * x_inf^2.  Returns (satisfied, u, note).
  """
  if any(a == 0 for a in x_inf):
    raise ValueError("direction has zero coordinates: use condition_chain")
  if not A.residual_zero(hpow(x_inf, 3)):
    return False, None, "x_inf^3 is not in the kernel"
  scaled = Subspace.span([hprod(b, hpow(x_inf, 2)) for b in V.basis],
                         V.ambient_dim)
  u = solve_affine_in_subspace(A, -x_inf, scaled)
  if u is None:
    return False, None, "-x_inf has no preimage in V * x_inf^2"
  return True, u, "escape direction confirmed"


def normalize_kernel_direction(A: RatMatrix, g: RatVector) -> NormalizedKernel:
  """Conjugate A so the kernel vector g becomes a leading 0/1 pattern.

  Every entry of g must be the cube of a rational; the diagonal scaling
  divides coordinate i by that cube root, and coordinates are permuted to
  put the support first.  The conjugated matrix has the same properness
  status as A.
  """
  m = A.m
  if len(g) != m:
    raise ValueError("kernel vector dimension does not match the matrix")
  if g.is_zero():
    raise ValueError("kernel direction must be nonzero")
  if not A.residual_zero(g):
    raise ValueError("vector is not in the kernel")
  roots: list[Fraction] = []
  for i, a in enumerate(g):
    if a == 0:
      roots.append(Fraction(1))
      continue
    r = rational_kth_root(a, 3)
    if r is None:
      raise ValueError(
        f"coordinate {i} ({a}) is not a rational cube; this kernel "
        "direction cannot be normalized exactly")
    roots.append(r)
  support = list(g.support())
  others = [i for i in range(m) if i not in set(support)]
  perm = tuple(support + others)
  diag = tuple(Fraction(1) / roots[i] if g[i] != 0 else Fraction(1)
               for i in range(m))
  frame = ConjugationFrame(perm=perm, diag=diag)
  B = frame.conjugate(A)
  gen = RatVector.of([1] * len(support) + [0] * len(others))
  if not B.residual_zero(gen):
    raise AssertionError("normalization lost the kernel direction")
  return NormalizedKernel(matrix=B, frame=frame, generator=gen,
                          support_size=len(support))


class _FloatChain:
  """Float-mode continuation of an escape chain once exact roots run out."""

  def __init__(self, A: RatMatrix, V: Subspace, pr_V: Subspace):
    import numpy as np
    self.np = np
    self.A = np.array([[float(A.entry(i, j)) for j in range(A.m)]
                       for i in range(A.m)])
    self.m = A.m
    self.q = self._orthobasis(V)
    self.q_pr = self._orthobasis(pr_V)

  def _orthobasis(self, s: Subspace):
    np = self.np
    if s.dim == 0:
      return np.zeros((self.m, 0))
    basis = np.array([[float(x) for x in b] for b in s.basis]).T
    q, _ = np.linalg.qr(basis)
    return q

  def solve(self, b):
    np = self.np
    x, *_ = np.linalg.lstsq(self.A, b, rcond=None)
    ok = np.linalg.norm(self.A @ x - b) <= FLOAT_TOL * max(1.0, float(np.linalg.norm(b)))
    return (x, True) if ok else (None, False)

  def contains(self, q, v) -> bool:
    np = self.np
    n = float(np.linalg.norm(v))
    if n < 1e-14:
      return True
    proj = q @ (q.T @ v)
    return bool(np.linalg.norm(v - proj) <= FLOAT_TOL * max(1.0, n))


def condition_chain(A: RatMatrix | Analysis,
                    x_inf: RatVector) -> ConditionSetReport:
  """The escape-chain conditions for a 0/1 limit direction x_inf.

  V is the reduced subspace Im A.  Stage zero solves A u = -x_inf and needs
  x_inf in V and the support part of u in pr(V), the projection of V to the
  support.  While the latest solution has nonzero entries on the remaining
  off-support block, the chain takes the cube root of that hat part,
  requires it to lie in V, solves A v = -root with the paired part of v
  (v / root^2 on the hat entries) in V and the support part of v in pr(V),
  and recurses on the block where the hat was zero.  Each membership is
  quantified over the whole solution family of its solve (kernel
  adjustments), and solutions whose next tail vanishes are preferred,
  ending the recursion.  The block shrinks on every pass, so the chain
  ends after at most m stages.

  At the first irrational hat cube root the chain continues in floats and
  the report is flagged numeric_only.
  """
  support = x_inf.support()
  if not support:
    raise ValueError("direction must be nonzero")
  if any(x_inf[i] != 1 for i in support):
    raise ValueError("condition_chain needs a 0/1 direction; normalize first")
  an = _analysis(A)
  A, K, V = an.A, an.kernel, an.image
  m = len(x_inf)
  pr = _indicator_matrix(m, support)
  pr_V = subspace_image(pr, V)
  stages: list[ChainStage] = []
  extrapolated = False

  def report(satisfied, failure=None, numeric=False):
    return ConditionSetReport(x_inf=x_inf, satisfied=satisfied,
                              stages=tuple(stages), failure=failure,
                              numeric_only=numeric, extrapolated=extrapolated)

  if not A.residual_zero(x_inf):
    return report(False, "x_inf^3 is not in the kernel")
  if not V.contains(x_inf):
    return report(False, "x_inf is not in the reduced subspace")
  full = Subspace.full(m)
  u0 = solve_affine_in_subspace(A, -x_inf, full)
  if u0 is None:
    return report(False, "-x_inf has no preimage")
  block = [i for i in range(m) if i not in support]
  v = _solve_preferring_zero_tail(u0, K, [(pr, pr_V)], block)
  if v is None:
    return report(False, "no preimage of -x_inf has its support part in pr(V)")
  stages.append(ChainStage(tuple(x_inf.entries), tuple(v.entries)))

  while True:
    hat = _restrict(v, block)
    if hat.is_zero():
      return report(True)
    nz = [i for i in block if hat[i] != 0]
    extrapolated = len(stages) >= 2
    roots = [rational_kth_root(hat[i], 3) if i in nz else Fraction(0)
             for i in range(m)]
    if None in roots:
      break
    root = RatVector.of(roots)
    if not V.contains(root):
      return report(False, "cube root of the hat vector leaves V")
    v0 = solve_affine_in_subspace(A, -root, full)
    if v0 is None:
      return report(False, "hat cube root has no preimage")
    pair_mat = RatMatrix.diagonal(
      [Fraction(1) / root[i] ** 2 if i in nz else Fraction(0)
       for i in range(m)])
    block = [i for i in block if i not in nz]
    v = _solve_preferring_zero_tail(v0, K, [(pair_mat, V), (pr, pr_V)], block)
    if v is None:
      return report(False, "no preimage satisfies the pairing and support "
                    "memberships")
    stages.append(ChainStage(tuple(root.entries), tuple(v.entries)))

  # float continuation from the first irrational hat cube root
  fc = _FloatChain(A, V, pr_V)
  np = fc.np
  vf = [float(t) for t in v.entries]
  while True:
    block = [i for i in block if i not in nz]
    root_f = np.array([float(np.cbrt(vf[i])) if i in nz else 0.0
                       for i in range(m)])
    if not fc.contains(fc.q, root_f):
      return report(False, "cube root of the hat vector leaves V", numeric=True)
    vf, ok = fc.solve(-root_f)
    if not ok:
      return report(False, "hat cube root has no preimage", numeric=True)
    paired = np.array([vf[i] / root_f[i] ** 2 if i in nz else 0.0
                       for i in range(m)])
    prv = np.array([vf[i] if i in support else 0.0 for i in range(m)])
    if not (fc.contains(fc.q, paired) and fc.contains(fc.q_pr, prv)):
      return report(False, "second-stage membership failed numerically",
                    numeric=True)
    stages.append(ChainStage(tuple(float(t) for t in root_f),
                             tuple(float(t) for t in vf)))
    nz = [i for i in block if abs(vf[i]) > FLOAT_TOL]
    if not nz:
      return report(True, numeric=True)
    extrapolated = len(stages) >= 2


def _chain_recipe(report: ConditionSetReport, V: Subspace,
                  frame: ConjugationFrame | None) -> WitnessRecipe | None:
  """Convert a satisfied depth <= 2 exact chain into a witness recipe."""
  if not report.satisfied or report.numeric_only or report.depth > 2:
    return None
  pr = _indicator_matrix(len(report.x_inf), report.x_inf.support())
  u = RatVector.of([as_rat(x) for x in report.stages[0].solution])
  # lifts: the vectors of V whose support parts match those of u and v
  u1 = solve_affine_in_subspace(pr, pr.apply(u), V)
  if u1 is None:
    return None
  if report.depth == 1:
    return WitnessRecipe(kind="corank-chain", x_inf=report.x_inf, u=u,
                         u1=u1, frame=frame)
  stage = report.stages[1]
  root = RatVector.of([as_rat(x) for x in stage.target])
  v = RatVector.of([as_rat(x) for x in stage.solution])
  v1 = solve_affine_in_subspace(pr, pr.apply(v), V)
  if v1 is None:
    return None
  return WitnessRecipe(kind="corank-chain", x_inf=report.x_inf, u=u, v=v,
                       u1=u1, v1=v1, u_hat_root=root, frame=frame)


def _numeric_chain_recipe(report: ConditionSetReport,
                          frame: ConjugationFrame | None) -> WitnessRecipe | None:
  """Float chain to a recipe with limited-denominator rational entries."""
  if not report.satisfied or report.depth > 2:
    return None

  def vec(values) -> RatVector:
    out = []
    for x in values:
      if isinstance(x, Fraction):
        out.append(x)
      elif isinstance(x, float):
        out.append(Fraction(x).limit_denominator(10 ** 12))
      else:
        out.append(as_rat(x))
    return RatVector.of(out)

  u = vec(report.stages[0].solution)
  if report.depth == 1:
    return WitnessRecipe(kind="corank-chain", x_inf=report.x_inf, u=u, u1=u,
                         frame=frame, numeric=True)
  stage = report.stages[1]
  return WitnessRecipe(kind="corank-chain", x_inf=report.x_inf, u=u,
                       v=vec(stage.solution), u1=u, v1=vec(stage.solution),
                       u_hat_root=vec(stage.target), frame=frame, numeric=True)


def _decide_direction(an: Analysis, y: RatVector) -> Certificate:
  """Decide one rational direction y whose cube y^3 lies in the kernel.

  With no zero coordinate the direct escape characterization decides: y
  outside A's image V, the reduced subspace, or failing the escape check
  blocks the direction (Proper), passing it gives a simple witness.  V is
  tested first, before any solve.  With zeros, y is brought to a 0/1
  pattern and the chain conditions decide: unsatisfied and exact is
  Proper, satisfied with a depth of at most two gives a chain witness, and
  anything else is Undecided.  The audit holds only this direction's
  steps.
  """
  A, V = an.A, an.image
  audit: list[AuditEntry] = []

  def cert(verdict: str, reason: str, **evidence) -> Certificate:
    return Certificate(verdict, reason, A, evidence=evidence,
                       audit=tuple(audit))

  if all(a != 0 for a in y):
    if V.contains(y):
      ok, u, note = escape_direction_check(A, V, y)
      audit.append(AuditEntry("escape-direction",
                              "satisfied" if ok else "fails", note))
      if ok:
        recipe = WitnessRecipe(kind="simple", x_inf=y, u=u)
        return cert(NONPROPER, REASON_ESCAPE, recipe=recipe, direction=y, u=u)
    else:
      audit.append(AuditEntry("membership", "fails",
                              "kernel cube root is outside the reduced subspace"))
      note = "direction not in reduced subspace"
    return cert(PROPER, REASON_KERNEL_LINE,
                generator=primitive_integer_vector(hpow(y, 3)), direction=y,
                failed=note)

  # zeros present: bring the direction to a 0/1 pattern, then run the chain
  anB, frame, x_pat = an, None, y
  if any(a not in (0, 1) for a in y.entries):
    norm = normalize_kernel_direction(A, hpow(y, 3))
    anB, frame, x_pat = Analysis(norm.matrix), norm.frame, norm.generator
    audit.append(AuditEntry("normalize", "done",
                            f"support size {norm.support_size}"))
  rep = condition_chain(anB, x_pat)
  audit.append(AuditEntry("condition-chain",
                          "satisfied" if rep.satisfied else "unsatisfied",
                          rep.failure or f"depth {rep.depth}"))
  if not rep.satisfied:
    if rep.numeric_only:
      return cert(UNDECIDED, REASON_OUT_OF_SCOPE, chain=rep,
                  note="numeric chain unsatisfied; properness cannot be "
                  "certified from floats")
    return cert(PROPER, REASON_CHAIN_UNSAT, chain=rep)
  if rep.numeric_only:
    recipe = _numeric_chain_recipe(rep, frame)
    reason = REASON_CHAIN + NUMERIC_SUFFIX
  else:
    recipe = _chain_recipe(rep, anB.image, frame)
    reason = REASON_CHAIN
    if recipe is None:
      audit.append(AuditEntry("witness", "unsupported",
                              f"chain depth {rep.depth} has no closed-form "
                              "points"))
  if recipe is not None:
    return cert(NONPROPER, reason, recipe=recipe, chain=rep)
  return cert(UNDECIDED, REASON_OUT_OF_SCOPE, chain=rep)


def corank1_decide(A: RatMatrix | Analysis) -> Certificate:
  """Decision procedure when the kernel of A is one line: what `certify`
  decides for such a matrix once no structural screen has fired.

  The escape search runs first, and a line whose cube roots provably miss
  the image ends no-escape-direction.  A rational cube-root direction
  inside the image is decided by `_decide_direction`: with no zero
  coordinate the direct escape characterization is an equivalence; with
  zeros the direction goes through the chain conditions, where an
  unsatisfied exact chain proves properness, a satisfied one of depth at
  most two gives a witness and a deeper one ends Undecided.  A chain that
  needs an irrational cube root switches to floats and ends NonProper with
  a "-numeric" reason, or Undecided.  An irrational direction whose cube
  root lies in the image gets a numeric fallback that can only refute.
  """
  an = _analysis(A)
  if an.kernel.dim != 1:
    raise ValueError("corank1_decide requires a matrix of corank exactly one")
  return _after_search(an, necessary_escape_search(an))


def _after_search(an: Analysis, search: EscapeSearch) -> Certificate:
  """The decision once the escape search has run, its audit entry first.

  Provable emptiness is Proper.  A kernel line is decided on the direction
  the search found inside the image, or, when that direction is irrational
  (no image vector), by the numeric fallback.  A wider kernel goes through
  the sweep of cube-root directions inside the image, where only a witness
  decides.  Every NonProper passes the float witness validation.
  """
  A = an.A
  audit = [AuditEntry(
    "escape-search",
    "candidate" if search.image_vector is not None else
    ("provably empty" if search.none_is_proof else "nothing found"),
    search.note)]
  if search.image_vector is None and search.none_is_proof:
    return Certificate(PROPER, REASON_NO_ESCAPE, A,
                       evidence={"note": search.note}, audit=tuple(audit))

  K = an.kernel
  if K.dim == 1:
    g = RatVector.of(K.rows[0])
    audit.append(AuditEntry("kernel-line", "found",
                            "primitive generator (" +
                            ", ".join(str(x) for x in g) + ")"))
    if search.image_vector is None:
      return _validated(A, _corank1_irrational(A, g, an.image, audit))
    decided = _decide_direction(an, search.image_vector)
    return _validated(A, replace(decided, audit=tuple(audit) + decided.audit))

  # a direction outside Im A can only end Proper, which the sweep ignores
  candidates = kernel_cuberoot_candidates(an)
  inside = [y for y in candidates if an.image.contains(y)]
  audit.append(AuditEntry("candidate-sweep", "enumerated",
                          f"{len(candidates)} rational direction(s), "
                          f"{len(inside)} in the image"))
  for y in inside:
    decided = _decide_direction(an, y)
    audit.extend(decided.audit)
    # a kernel combination is not the whole kernel, so only a witness decides
    if decided.verdict == NONPROPER:
      return _validated(A, replace(decided, audit=tuple(audit)))
  return Certificate(UNDECIDED, REASON_OUT_OF_SCOPE, A,
                     evidence={"note": "no screen fired and the candidate "
                               "sweep was not decisive"},
                     audit=tuple(audit))


def _corank1_irrational(A: RatMatrix, g: RatVector, V: Subspace,
                        audit: list[AuditEntry]) -> Certificate:
  """Kernel direction whose irrational cube root lies in the reduced
  subspace V: a numeric escape check that can only refute."""
  audit.append(AuditEntry("membership", "holds",
                          "irrational kernel cube root lies in the reduced "
                          "subspace"))
  if any(x == 0 for x in g):
    return Certificate(UNDECIDED, REASON_OUT_OF_SCOPE, A,
                       evidence={"note": "irrational kernel direction with "
                                 "zeros is outside the decidable screens"},
                       audit=tuple(audit))
  # the true direction g^(1/3) is irrational: work with a rational stand-in
  # so close (10^-48) that the recipe's residuals keep decaying well past
  # the largest validation gamma
  x_tilde = RatVector.of([rational_kth_root_approx(a, 3) for a in g])
  cols = [hprod(b, hpow(x_tilde, 2)) for b in V.basis]
  images = [A.apply(col).entries for col in cols]
  M = RatMatrix(tuple(tuple(im[i] for im in images) for i in range(A.m)))
  # least squares in exact arithmetic: normal equations are always solvable
  Mt = M.transpose()
  c = solve_affine_in_subspace(Mt.matmul(M), Mt.apply(-x_tilde),
                               Subspace.full(M.n_cols))
  u = RatVector.zero(A.m)
  if c is not None:
    for j, col in enumerate(cols):
      u = u + col.scale(c[j])
  resid = A.apply(u) + x_tilde
  resid_norm = math.sqrt(sum(float(t) * float(t) for t in resid))
  scale = math.sqrt(sum(float(t) * float(t) for t in x_tilde))
  if c is not None and resid_norm <= FLOAT_TOL * max(1.0, scale):
    recipe = WitnessRecipe(kind="simple", x_inf=x_tilde, u=u, numeric=True)
    audit.append(AuditEntry("escape-direction", "satisfied numerically",
                            f"residual {resid_norm:.2e}"))
    return Certificate(NONPROPER, REASON_ESCAPE + NUMERIC_SUFFIX, A,
                       evidence={"recipe": recipe}, audit=tuple(audit))
  audit.append(AuditEntry("escape-direction", "unsatisfied numerically",
                          f"residual {resid_norm:.2e}"))
  return Certificate(UNDECIDED, REASON_OUT_OF_SCOPE, A,
                     evidence={"note": "irrational direction; the numeric test "
                               "found no escape but cannot prove properness"},
                     audit=tuple(audit))


def kernel_cuberoot_candidates(A: RatMatrix | Analysis) -> list[RatVector]:
  """Rational directions y with y^3 in Ker(A), widest support first: the
  cube roots of the +-1 kernel combinations of `_unit_tuples`, at most
  CANDIDATE_CAP of them (see `Analysis.cube_root_directions`)."""
  return list(_analysis(A).cube_root_directions)


def certify(A: RatMatrix) -> Certificate:
  """Decide properness of x + (Ax)^3 and certify the verdict.

  Pipeline: the structural screens; when none fires, the exact search for
  escape raw material, whose provable emptiness proves properness; then a
  kernel line's direction, decided by `corank1_decide` as a direct call
  decides it, or a sweep of the kernel cube-root directions inside Im A,
  each decided like the corank-one direction, until one refutes
  properness.  The first decisive step wins.  One Analysis of A serves
  every step.  The audit trail opens with the escape search, marked
  skipped when a screen decided, then the screens' entries and everything
  evaluated after them.
  """
  an = Analysis(A)
  screen_cert, screen_audit = sufficient_screens(an)
  if screen_cert is not None:
    audit = [AuditEntry("escape-search", "skipped",
                        "a structural screen decided first")] + screen_audit
    return Certificate(screen_cert.verdict, screen_cert.reason, A,
                       evidence=screen_cert.evidence, audit=tuple(audit))

  cert = (corank1_decide(an) if an.kernel.dim == 1 else
          _after_search(an, necessary_escape_search(an)))
  return replace(cert, audit=cert.audit[:1] + tuple(screen_audit)
                 + cert.audit[1:])


def _validated(A: RatMatrix, cert: Certificate) -> Certificate:
  """Run the float validator over any NonProper witness before returning."""
  if cert.verdict != NONPROPER:
    return cert
  recipe = cert.witness()
  if recipe is None:
    return Certificate(UNDECIDED, REASON_OUT_OF_SCOPE, A,
                       evidence=dict(cert.evidence,
                                     note="refutation lacked a recipe"),
                       audit=cert.audit)
  rep = validate_witness(A, recipe)
  if rep.passed:
    return cert
  audit = cert.audit + (AuditEntry("witness-validation", "failed",
                                   rep.note or "residuals did not decay"),)
  return Certificate(UNDECIDED, REASON_OUT_OF_SCOPE, A,
                     evidence=dict(cert.evidence,
                                   note="witness validation failed"),
                     audit=audit)


def k1_properness(A: RatMatrix) -> Certificate:
  """Exact decision for the linear case x + Ax: proper iff I + A invertible.

  The evidence is the determinant, or a primitive kernel vector of I + A
  along which the whole line maps to zero.
  """
  M = RatMatrix.identity(A.m).add(A)
  d = det(M)
  if d != 0:
    return Certificate(PROPER, REASON_LINEAR_INVERTIBLE, A, k=1,
                       evidence={"determinant": d})
  z = RatVector.of(kernel_basis(M).rows[0])
  return Certificate(NONPROPER, REASON_LINEAR_SINGULAR, A, k=1,
                     evidence={"determinant": Fraction(0), "kernel_vector": z})


def verify_certificate(A: RatMatrix, cert: Certificate) -> bool:
  """Independently re-establish the decisive condition a certificate names.

  The certificate's matrix must be A.  The two are compared by their
  canonical integer rows, which a JSON parse of integer literals supplies,
  so no Fraction is compared.  The power must be the one the reason is
  about: the linear reasons hold at k = 1, every other reason only at
  k = 3, and a witness recipe must be for the certificate's k.  Evidence
  whose vectors or frame do not fit A's size fails.
  Proper reasons are recomputed from A alone, through a fresh Analysis,
  and the certificate must carry exactly the evidence that the deciding
  step writes for A, value for value and of the same type (1 is not true,
  nor 2.0 the integer 2): a screen's fields, the escape search's note, or
  what `_decide_direction` writes for A's kernel line, with a chain report
  compared in the summary form a JSON round trip leaves.  A
  kernel-line-blocked certificate may instead carry the all-ones screen's
  evidence (`certify` writes the screen's, a direct `corank1_decide` call
  the other).  NonProper reasons re-run the witness validation, whose pass
  requires the recipe equations to hold exactly (rational recipes) or
  within tolerance (numeric ones).
  """
  if cert.matrix._integer_rows != A._integer_rows:
    return False
  reason = cert.reason
  if cert.k == 1:
    M = RatMatrix.identity(A.m).add(A)
    if reason == REASON_LINEAR_INVERTIBLE:
      return cert.verdict == PROPER and det(M) != 0
    if reason == REASON_LINEAR_SINGULAR:
      z = cert.evidence.get("kernel_vector")
      return (cert.verdict == NONPROPER and isinstance(z, RatVector)
              and len(z) == A.m and not z.is_zero() and M.residual_zero(z))
    return False
  if cert.k != 3:
    return False
  an = Analysis(A)
  evidence = cert.evidence
  if cert.verdict == PROPER:
    if reason == REASON_KERNEL_GRAM:
      return _same(evidence, _gram_kernel_evidence(an))
    if reason == REASON_GRAM_RANK1:
      return an.rank == 1 and _same(evidence, {"gram_rank": 1})
    if reason == REASON_TRIANGULAR:
      orientation = _orientation(A)
      return (orientation is not None
              and _same(evidence, {"orientation": orientation}))
    if reason in (REASON_KERNEL_LINE, REASON_CHAIN_UNSAT):
      K = an.kernel
      if K.dim != 1:
        return False
      if reason == REASON_KERNEL_LINE and all(x == 1 for x in K.rows[0]):
        screen = _ones_kernel_screen(an, [])
        if screen is not None and _same(screen.evidence, evidence):
          return True
      y = rational_cube_root_direction(K.rows[0])
      if y is None:
        return False
      decided = _decide_direction(an, y)
      return (decided.verdict == PROPER and decided.reason == reason
              and _same(_evidence_form(decided.evidence),
                        _evidence_form(evidence)))
    if reason == REASON_NO_ESCAPE:
      s = necessary_escape_search(an)
      return (s.image_vector is None and s.none_is_proof
              and _same(evidence, {"note": s.note}))
    return False
  if cert.verdict == NONPROPER:
    recipe = cert.witness()
    if recipe is None or recipe.k != cert.k or not _recipe_fits(recipe, A.m):
      return False
    return validate_witness(A, recipe).passed
  return False


def _evidence_form(evidence: dict) -> dict:
  """Evidence as a JSON round trip leaves it, for comparison: a chain
  report becomes its summary, and the constant "mode": "S" that older
  chain summaries carry is dropped."""
  chain = evidence.get("chain")
  if isinstance(chain, ConditionSetReport):
    return dict(evidence, chain=chain.summary())
  if isinstance(chain, dict) and chain.get("mode") == "S":
    return dict(evidence, chain={k: v for k, v in chain.items() if k != "mode"})
  return evidence


def _same(a, b) -> bool:
  """a == b, with every value of the same type on both sides, down through
  dicts and lists: == alone takes true for 1 and 2.0 for 2, which are
  different evidence."""
  if type(a) is not type(b):
    return False
  if type(a) is dict:
    return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
  if type(a) is list or type(a) is tuple:
    return len(a) == len(b) and all(map(_same, a, b))
  return a == b


def _recipe_fits(recipe: WitnessRecipe, m: int) -> bool:
  """Whether the recipe lives in R^m: its x_inf has length m, which the
  recipe's own check extends to every vector, and its frame, if any, has
  size m."""
  return (len(recipe.x_inf) == m
          and (recipe.frame is None or len(recipe.frame.perm) == m))
