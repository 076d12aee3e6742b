"""Jacobian determinants of the maps x + (Ax)^k and related screens.

The Jacobian of F(x) = x + (Ax)^k is I + k diag(y^(k-1)) A with y = Ax.  A
matrix A is a Drużkowski matrix when det JF is identically 1; for k = 3
those are the matrices whose map is a polynomial automorphism candidate in
the classical sense.  `is_druzkowski` decides this exactly.  Expanding
det(I + D A) over principal minors (Drużkowski, Math. Ann. 264, 1983) gives

    det JF(x) = 1 + sum_s P_s(y),
    P_s(y) = sum_{|S| = s} k^s det(A_SS) prod_{i in S} y_i^(k-1),

with P_s homogeneous of degree s(k-1), so det JF is identically 1 exactly
when every P_s vanishes on the image of A.  With B a basis of that image,
P_s(Bt) is a form of degree d = s(k-1) in r = rank A variables, and it is
zero exactly when it vanishes on the simplex lattice {t in N^r : |t| = d},
which is unisolvent for such forms (Chung and Yao, SIAM J. Numer. Anal. 14,
1977).  A failing lattice point y gives an exact counterexample: along a
preimage x of y, det JF(mu x) - 1 is a nonzero polynomial in mu^(k-1) with
no constant term and at most r - 1 nonzero roots, so one of mu = 1..r is
not a root.

Each term of det(A_SS) follows a permutation of S, whose cycles are cycles
of the support digraph of A (an edge i -> j when a_ij != 0, self-loops
included).  So a principal minor can be nonzero only when every index of S
lies on such a cycle, and the walk forms only those minors.

Also here: the search for a sign vector delta and global sign s making
s * delta_i * delta_j * a_ij nonnegative for every entry.  That is a
two-coloring problem solved with a parity union-find.  The outcome is
reported as an informational note; it is never a properness verdict by
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .linalg import (RatMatrix, RatVector, det, image_basis,
                     nonzero_principal_minors, solve)

# most minors plus (lattice point, minor) products one test evaluates
LATTICE_CAP = 200_000


def jacobian_at_point(A: RatMatrix, x: RatVector, k: int = 3) -> RatMatrix:
  """Numeric (exact rational) Jacobian at a point."""
  ax = A.apply(x)
  m = A.m
  rows = []
  for i in range(m):
    s = Fraction(k) * ax[i] ** (k - 1)
    rows.append(tuple(
        (Fraction(1) if i == j else Fraction(0)) + s * A.entry(i, j)
        for j in range(m)))
  return RatMatrix(tuple(rows))


@dataclass(frozen=True)
class UnimodularReport:
  """Outcome of the det JF == 1 test, with enough data to audit it.

  `unimodular` is None when deciding would pass LATTICE_CAP; the note then
  names the size of the walk.  Every False carries a counterexample point
  with exact det JF != 1.
  """

  unimodular: bool | None
  k: int
  counterexample: RatVector | None = None
  note: str = ""

  def __bool__(self) -> bool:
    return self.unimodular is True


def _simplex_lattice(r: int, d: int):
  """The points t of N^r with t_1 + ... + t_r = d."""
  if r == 1:
    yield (d,)
    return
  for first in range(d + 1):
    for rest in _simplex_lattice(r - 1, d - first):
      yield (first,) + rest


def _refute(A: RatMatrix, k: int, y: RatVector, r: int,
            note: str) -> UnimodularReport:
  """Report False with the first of x, 2x, .., rx off det JF = 1, Ax = y."""
  x = solve(A, y)
  for mu in range(1, r + 1):
    value = det(jacobian_at_point(A, x.scale(mu), k))
    if value != 1:
      return UnimodularReport(False, k, counterexample=x.scale(mu),
                              note=f"{note}; det JF = {value} there")
  raise AssertionError("det JF - 1 along x has more roots than its degree")


def is_druzkowski(A: RatMatrix, k: int = 3) -> UnimodularReport:
  """Decide exactly whether det JF is identically 1 for x + (Ax)^k.

  For k >= 2 an A whose support digraph has no cycle is unimodular at
  once (every principal minor vanishes), and a full-rank A is refuted at
  once (P_m = k^m det A prod y_i^(k-1) is nonzero).  Otherwise the levels
  s = 1..rank A are walked in order, each forming only the minors on
  cycle indices, when reached, and stopping at the first lattice point
  where P_s is nonzero.  Past LATTICE_CAP evaluated minors and (point,
  minor) products the answer is None.
  """
  if k < 1:
    raise ValueError("power k must be >= 1")
  m = A.m
  if k == 1:
    value = det(RatMatrix.identity(m).add(A))
    if value == 1:
      return UnimodularReport(True, k, note="det JF = det(I + A) = 1")
    return UnimodularReport(False, k, counterexample=RatVector.zero(m),
                            note=f"det JF = det(I + A) = {value}")
  cycle = _cycle_indices(A)
  if not cycle:
    return UnimodularReport(True, k, note="the support digraph of A has no "
                                          "cycle, so every P_s is zero")
  # integer basis vectors leave the lattice test unchanged: scaling the
  # image coordinates does not change whether a form vanishes
  basis = image_basis(A).rows
  r = len(basis)
  if r == m:
    return _refute(A, k, RatVector.of([1] * m), r,
                   note="A is invertible, so P_m is nonzero")
  on_cycles = RatMatrix(tuple(tuple(A.rows[i][j] for j in cycle)
                              for i in cycle))
  work = 0
  for s in range(1, r + 1):
    work += comb(len(cycle), s)
    if work > LATTICE_CAP:
      return _capped(k, f"the {comb(len(cycle), s)} principal minors of "
                        f"size {s}")
    # the common factor k^s does not change whether P_s vanishes
    minors = [(tuple(cycle[i] for i in S), c)
              for S, c in nonzero_principal_minors(on_cycles, s)]
    if not minors:
      continue
    d = s * (k - 1)
    for t in _simplex_lattice(r, d):
      work += len(minors)
      if work > LATTICE_CAP:
        return _capped(k, f"{comb(d + r - 1, r - 1)} lattice points x "
                          f"{len(minors)} minors at level {s}")
      y = [sum(tj * b[i] for tj, b in zip(t, basis)) for i in range(m)]
      powers = [v ** (k - 1) for v in y]
      if sum(c * prod(powers[i] for i in S) for S, c in minors) != 0:
        return _refute(A, k, RatVector.of(y), r,
                       note=f"P_{s} is nonzero at y = A x")
  return UnimodularReport(True, k, note=f"P_s vanishes on its image lattice "
                                        f"for s = 1..{r} ({work} evaluations)")


def _cycle_indices(A: RatMatrix) -> list[int]:
  """The indices on a cycle of the support digraph of A, in order: i
  reaches itself along edges i -> j with a_ij != 0."""
  m = A.m
  succ = [[j for j in range(m) if A.rows[i][j] != 0] for i in range(m)]
  out = []
  for i in range(m):
    seen: set[int] = set()
    stack = list(succ[i])
    while stack:
      j = stack.pop()
      if j not in seen:
        seen.add(j)
        stack.extend(succ[j])
    if i in seen:
      out.append(i)
  return out


def _capped(k: int, size: str) -> UnimodularReport:
  return UnimodularReport(None, k, note=f"undecided: {size} pass "
                                        f"LATTICE_CAP = {LATTICE_CAP}")


# ---------------------------------------------------------------------------
# sign patterns
# ---------------------------------------------------------------------------


class _ParityUnionFind:
  """Union-find where each node carries its sign parity relative to the root."""

  def __init__(self, n: int):
    self.parent = list(range(n))
    self.rank = [0] * n
    self.parity = [0] * n  # parity to parent

  def find(self, i: int) -> tuple[int, int]:
    if self.parent[i] == i:
      return i, 0
    root, par = self.find(self.parent[i])
    self.parent[i] = root
    self.parity[i] ^= par
    return root, self.parity[i]

  def union(self, i: int, j: int, parity: int) -> bool:
    """Enforce parity(i) xor parity(j) == parity.  False on contradiction."""
    ri, pi = self.find(i)
    rj, pj = self.find(j)
    if ri == rj:
      return (pi ^ pj) == parity
    if self.rank[ri] < self.rank[rj]:
      ri, rj = rj, ri
      pi, pj = pj, pi
    self.parent[rj] = ri
    self.parity[rj] = pi ^ pj ^ parity
    if self.rank[ri] == self.rank[rj]:
      self.rank[ri] += 1
    return True


@dataclass(frozen=True)
class SignPattern:
  """delta in {-1, +1}^m and global sign s with sign(a_ij) = s * delta_i * delta_j
  on every nonzero entry."""

  delta: tuple[int, ...]
  global_sign: int


def find_sign_pattern(A: RatMatrix) -> SignPattern | None:
  """Search for a sign vector making all entries share one signed pattern.

  Feasibility is equivalent to: delta_i delta_j delta_k delta_l a_ij a_kl >= 0
  for all index pairs.  Tries global sign +1 then -1; each attempt is a
  two-coloring solved by parity union-find.  Returns None when both fail.
  """
  m = A.m
  nonzero = [(i, j, 1 if A.entry(i, j) > 0 else -1)
             for i in range(m) for j in range(m) if A.entry(i, j) != 0]
  for s in (1, -1):
    uf = _ParityUnionFind(m)
    ok = True
    for i, j, sign in nonzero:
      want = s * sign            # delta_i * delta_j must equal this
      if i == j:
        if want != 1:            # delta_i^2 = 1 always
          ok = False
          break
        continue
      if not uf.union(i, j, 0 if want == 1 else 1):
        ok = False
        break
    if not ok:
      continue
    delta = []
    for i in range(m):
      _, par = uf.find(i)
      delta.append(1 if par == 0 else -1)
    pattern = SignPattern(tuple(delta), s)
    if _sign_pattern_holds(A, pattern):
      return pattern
  return None


def _sign_pattern_holds(A: RatMatrix, p: SignPattern) -> bool:
  m = A.m
  for i in range(m):
    for j in range(m):
      a = A.entry(i, j)
      if a == 0:
        continue
      if (1 if a > 0 else -1) != p.global_sign * p.delta[i] * p.delta[j]:
        return False
  return True


def invertibility_verdict(A: RatMatrix, properness_verdict: str, *,
                          jacobian_never_vanishes: bool = False,
                          k: int = 3) -> str:
  """Combine a properness verdict with Jacobian information.

  A continuously differentiable map whose Jacobian never vanishes is a
  global diffeomorphism exactly when it is proper; and a continuous
  bijection of R^m is automatically a homeomorphism, hence proper.  So:
  NonProper always means not invertible; Proper plus a never-vanishing
  Jacobian means invertible; anything else is undetermined.
  """
  if properness_verdict == "NonProper":
    return "not invertible"
  if properness_verdict == "Proper":
    if jacobian_never_vanishes or is_druzkowski(A, k).unimodular:
      return "invertible"
  return "undetermined"
