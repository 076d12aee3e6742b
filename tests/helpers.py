"""Independent oracles and samplers shared by the test modules.

Everything here is deliberately naive: plain Gaussian elimination and
cofactor expansion over Fraction, and brute-force float grids, with no
imports from the package's linear algebra.  Slow but obviously correct, so
package results can be checked against an implementation that shares no
code with them.  The one exception, `chain_first_decide`, composes the
package's own steps in the order a shortcut skips, so the shortcut can be
checked against the long way round.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import propermap
from propermap.linalg import RatMatrix, RatVector


def src_env() -> dict[str, str]:
  """The environment with the directory of the package under test first
  on PYTHONPATH, so a child process imports the same copy."""
  src = str(Path(propermap.__file__).resolve().parents[1])
  return dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [src, os.environ.get("PYTHONPATH")])))


def naive_rank(rows: list[list[Fraction]]) -> int:
  """Row-reduce a copy with textbook Gaussian elimination and count pivots."""
  a = [[Fraction(x) for x in row] for row in rows]
  if not a:
    return 0
  n_rows, n_cols = len(a), len(a[0])
  r = 0
  for c in range(n_cols):
    pivot = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
    if pivot is None:
      continue
    a[r], a[pivot] = a[pivot], a[r]
    inv = 1 / a[r][c]
    a[r] = [x * inv for x in a[r]]
    for i in range(n_rows):
      if i != r and a[i][c] != 0:
        f = a[i][c]
        a[i] = [x - f * y for x, y in zip(a[i], a[r])]
    r += 1
    if r == n_rows:
      break
  return r


def naive_det(rows: list[list[Fraction]]) -> Fraction:
  """Cofactor expansion along the first row."""
  n = len(rows)
  if n == 1:
    return Fraction(rows[0][0])
  total = Fraction(0)
  for j in range(n):
    if rows[0][j] == 0:
      continue
    minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
    sign = 1 if j % 2 == 0 else -1
    total += sign * Fraction(rows[0][j]) * naive_det(minor)
  return total


def naive_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
  """Gauss-Jordan elimination over Fraction, first nonzero entry as pivot.
  Returns (rows, pivot columns), zero rows last."""
  work = [[Fraction(x) for x in row] for row in rows]
  n_rows = len(work)
  n_cols = len(work[0]) if work else 0
  pivots: list[int] = []
  r = 0
  for c in range(n_cols):
    if r == n_rows:
      break
    pivot = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
    if pivot is None:
      continue
    work[r], work[pivot] = work[pivot], work[r]
    p = work[r][c]
    work[r] = [x / p for x in work[r]]
    for i in range(n_rows):
      if i != r and work[i][c] != 0:
        f = work[i][c]
        work[i] = [x - f * y for x, y in zip(work[i], work[r])]
    pivots.append(c)
    r += 1
  return work, pivots


def naive_integer_rref(rows) -> tuple[list[list[int]], list[int]]:
  """`naive_rref` in the form `linalg.rref` returns: the nonzero reduced
  rows only, each times the lcm of its denominators.  A reduced row has 1
  at its pivot, so that makes it coprime integers with a positive pivot."""
  reduced, pivots = naive_rref(rows)
  out = []
  for row in reduced[:len(pivots)]:
    d = 1
    for x in row:
      d = d * x.denominator // math.gcd(d, x.denominator)
    out.append([int(x * d) for x in row])
  return out, pivots


def naive_solve_in_subspace(rows, b, spanning) -> list[Fraction] | None:
  """u in the span of `spanning` with M u = b (M given by its rows), or
  None.  Solves for coefficients on the reduced basis of the span, free
  coordinates set to zero, by Gauss-Jordan elimination over Fraction."""
  n = len(rows[0])
  reduced, pivots = naive_rref(spanning)
  basis = reduced[:len(pivots)]
  if not basis:
    return [Fraction(0)] * n if all(x == 0 for x in b) else None
  images = [[sum(Fraction(a) * v for a, v in zip(row, bv)) for row in rows]
            for bv in basis]
  aug = [[im[i] for im in images] + [Fraction(b[i])] for i in range(len(rows))]
  red, piv = naive_rref(aug)
  k = len(basis)
  if k in piv:
    return None
  c = [Fraction(0)] * k
  for i, p in enumerate(piv):
    c[p] = red[i][k]
  return [sum(cj * bv[t] for cj, bv in zip(c, basis)) for t in range(n)]


def rows_of(A: RatMatrix) -> list[list[Fraction]]:
  return [[A.entry(i, j) for j in range(A.n_cols)] for i in range(A.n_rows)]


def f_hat_exact(A: RatMatrix, x: RatVector, k: int = 3) -> RatVector:
  """x + A(x^k) computed from scratch in Fractions."""
  xk = [a ** k for a in x]
  return RatVector.of([
      x[i] + sum(A.entry(i, j) * xk[j] for j in range(A.m))
      for i in range(A.m)])


def conjugate_oracle(perm, diag, A: RatMatrix) -> RatMatrix:
  """B = P D A D^(-3) P^T entry by entry in Fractions:
  B[i][j] = diag[perm[i]] A[perm[i]][perm[j]] / diag[perm[j]]^3."""
  return RatMatrix(tuple(
      tuple(diag[oi] * A.entry(oi, oj) / diag[oj] ** 3 for oj in perm)
      for oi in perm))


def f_exact(A: RatMatrix, x: RatVector, k: int = 3) -> RatVector:
  """x + (Ax)^k computed from scratch in Fractions."""
  ax = [sum(A.entry(i, j) * x[j] for j in range(A.m)) for i in range(A.m)]
  return RatVector.of([x[i] + ax[i] ** k for i in range(A.m)])


def laurent_residual_oracle(B: RatMatrix, coords: list[dict], k: int
                            ) -> list[dict]:
  """x + B(x^k) as Laurent polynomials with Fraction coefficients, for x
  given by one {exponent: coefficient} dict per coordinate.  Each
  coordinate's k-th power is k convolutions in Fractions, starting from the
  constant 1, and B is applied entry by entry.  Exponents keep the order in
  which the sums first meet them; zero coefficients are dropped."""
  def mul(p, q):
    out = {}
    for e1, c1 in p.items():
      for e2, c2 in q.items():
        out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return out

  pows = []
  for p in coords:
    acc = {0: Fraction(1)}
    for _ in range(k):
      acc = mul(acc, p)
    pows.append(acc)
  out = []
  for i, p in enumerate(coords):
    acc = dict(p)
    for j, pk in enumerate(pows):
      bij = B.entry(i, j)
      if bij:
        for e, c in pk.items():
          acc[e] = acc.get(e, Fraction(0)) + bij * c
    out.append({e: c for e, c in acc.items() if c != 0})
  return out


def naive_jacobian(A: RatMatrix, x, k: int = 3) -> list[list[Fraction]]:
  """I + k diag((Ax)^(k-1)) A, entry by entry."""
  m = A.m
  ax = [sum(A.entry(i, j) * x[j] for j in range(m)) for i in range(m)]
  return [[(1 if i == j else 0) + k * ax[i] ** (k - 1) * A.entry(i, j)
           for j in range(m)] for i in range(m)]


def naive_unimodular(A: RatMatrix, k: int = 3) -> bool:
  """det JF == 1 on the grid {0..(k-1)m}^m.

  det JF has degree at most (k-1)m in each variable, and a tensor grid with
  one more value per axis than that degree is unisolvent, so the grid
  decides whether det JF is identically 1.
  """
  m = A.m
  for point in itertools.product(range((k - 1) * m + 1), repeat=m):
    if naive_det(naive_jacobian(A, point, k)) != 1:
      return False
  return True


def sphere_grid_min(A: RatMatrix, r: float, k: int = 3,
                    points: int = 2 ** 16) -> float:
  """min |x + (Ax)^k| over `points` spread-out points of the sphere of
  radius r: equally spaced angles for m = 2, a Fibonacci lattice for m = 3.
  An upper bound on the sphere's true minimum, found without descent."""
  m = A.m
  Af = np.array([[float(A.entry(i, j)) for j in range(m)] for i in range(m)])
  i = np.arange(points)
  if m == 2:
    t = 2.0 * np.pi * i / points
    X = np.column_stack([np.cos(t), np.sin(t)])
  elif m == 3:
    z = 1.0 - 2.0 * (i + 0.5) / points
    rho = np.sqrt(1.0 - z * z)
    t = np.pi * (3.0 - np.sqrt(5.0)) * i
    X = np.column_stack([rho * np.cos(t), rho * np.sin(t), z])
  else:
    raise ValueError("sphere grids cover m = 2 and m = 3 only")
  X = r * X
  F = X + (X @ Af.T) ** k
  return float(np.sqrt((F * F).sum(axis=1)).min())


def rand_int_matrix(rng: random.Random, m: int, box: int = 3) -> RatMatrix:
  return RatMatrix.of([[rng.randint(-box, box) for _ in range(m)]
                       for _ in range(m)])


def rand_rat_matrix(rng: random.Random, m: int, box: int = 3) -> RatMatrix:
  """Random matrix mixing integers and small fractions."""
  def cell():
    num = rng.randint(-box, box)
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)
  return RatMatrix.of([[cell() for _ in range(m)] for _ in range(m)])


def rand_rat_rank(rng: random.Random, m: int, r: int) -> RatMatrix:
  """m x m matrix of exact rank r with small fractional entries, drawn as a
  product of an m x r and an r x m factor."""
  def cell():
    return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))
  while True:
    B = [[cell() for _ in range(r)] for _ in range(m)]
    C = [[cell() for _ in range(m)] for _ in range(r)]
    rows = [[sum((B[i][t] * C[t][j] for t in range(r)), Fraction(0))
             for j in range(m)] for i in range(m)]
    if naive_rank(rows) == r:
      return RatMatrix.of(rows)


def rand_symmetric(rng: random.Random, m: int, box: int = 3) -> RatMatrix:
  M = rand_int_matrix(rng, m, box)
  return RatMatrix.of([[M.entry(i, j) + M.entry(j, i) for j in range(m)]
                       for i in range(m)])


def rand_antisymmetric(rng: random.Random, m: int, box: int = 3) -> RatMatrix:
  M = rand_int_matrix(rng, m, box)
  return RatMatrix.of([[M.entry(i, j) - M.entry(j, i) for j in range(m)]
                       for i in range(m)])


def rand_invertible(rng: random.Random, m: int, box: int = 3) -> RatMatrix:
  while True:
    A = rand_int_matrix(rng, m, box)
    if naive_det(rows_of(A)) != 0:
      return A


def rand_upper_triangular(rng: random.Random, m: int, box: int = 3) -> RatMatrix:
  return RatMatrix.of([[rng.randint(-box, box) if j >= i else 0
                        for j in range(m)] for i in range(m)])


def ones_kernel_sample(rng: random.Random, m: int, box: int = 3) -> RatMatrix:
  """Corank-1 matrix whose kernel is exactly the all-ones line."""
  while True:
    partial = [[rng.randint(-box, box) for _ in range(m - 1)]
               for _ in range(m)]
    rows = [r + [-sum(r)] for r in partial]
    if naive_rank([[Fraction(x) for x in r] for r in rows]) == m - 1:
      return RatMatrix.of(rows)


def planted_pattern(rng: random.Random, m: int, box: int = 2) -> RatMatrix:
  """Corank-1 matrix whose kernel is a random 0/1 pattern of support >= 2:
  one support column is minus the sum of the other support columns."""
  while True:
    rows = [[rng.randint(-box, box) for _ in range(m)] for _ in range(m)]
    support = rng.sample(range(m), rng.randint(2, m))
    lead, rest = support[0], support[1:]
    for row in rows:
      row[lead] = -sum(row[j] for j in rest)
    if naive_rank([[Fraction(x) for x in r] for r in rows]) == m - 1:
      return RatMatrix.of(rows)


def two_pattern_kernel(rng: random.Random, box: int = 2) -> RatMatrix:
  """4x4 or 5x5 matrix whose kernel holds two disjoint 0/1 pairs."""
  m = rng.choice([4, 5])
  idx = list(range(m))
  rng.shuffle(idx)
  rows = [[rng.randint(-box, box) for _ in range(m)] for _ in range(m)]
  for row in rows:
    row[idx[0]] = -row[idx[1]]
    row[idx[2]] = -row[idx[3]]
  return RatMatrix.of(rows)


def two_class_kernel(rng: random.Random, box: int = 2) -> RatMatrix:
  """4x4 matrix A = U W with kernel containing (1, 1, 2, 2), whose cube root
  is irrational, and image containing (1, 1, 0, 0) and (0, 0, 1, 1), which
  holds that cube root whatever its two cube-ratio classes scale to."""
  g = [1, 1, 2, 2]
  u3 = [rng.randint(-box, box) for _ in range(4)]
  U = [[1, 0, u3[0]], [1, 0, u3[1]], [0, 1, u3[2]], [0, 1, u3[3]]]
  W = []
  for _ in range(3):
    r = [rng.randint(-box, box) for _ in range(3)]
    r.append(Fraction(-(r[0] * g[0] + r[1] * g[1] + r[2] * g[2]), g[3]))
    W.append(r)
  return RatMatrix.of([[sum(U[i][t] * W[t][j] for t in range(3))
                        for j in range(4)] for i in range(4)])


def family_member(rng: random.Random) -> RatMatrix:
  """A `forge_3x3` member with Fraction entries: four free parameters
  p / q, p in [-6, 6] and q in {1, 1, 2, 3}, redrawn until they are
  feasible, in the order the bench's family-3 stratum draws them."""
  from propermap.forge import Family3x3Params, forge_3x3

  def free():
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
  while True:
    try:
      p = Family3x3Params.from_free(free(), free(), free(), free())
    except ValueError:
      continue
    return forge_3x3(p)


def full_minor_walk(A: RatMatrix, k: int = 3) -> bool:
  """det JF == 1 for k >= 2, from the principal-minor expansion over every
  index set: each P_s must vanish on the simplex lattice of degree s(k-1)
  over a basis of Im A.  No index set is skipped, whatever the support."""
  m = A.m
  cols = [[A.entry(i, j) for i in range(m)] for j in range(m)]
  reduced, pivots = naive_rref(cols)
  basis = reduced[:len(pivots)]
  r = len(basis)
  for s in range(1, r + 1):
    minors = []
    for S in itertools.combinations(range(m), s):
      c = naive_det([[A.entry(i, j) for j in S] for i in S])
      if c != 0:
        minors.append((S, c))
    if not minors:
      continue
    d = s * (k - 1)
    # stars and bars: r - 1 bars among d + r - 1 slots give t, |t| = d
    for bars in itertools.combinations(range(d + r - 1), r - 1):
      edges = (-1,) + bars + (d + r - 1,)
      t = [edges[i + 1] - edges[i] - 1 for i in range(r)]
      y = [sum(tj * b[i] for tj, b in zip(t, basis)) for i in range(m)]
      total = Fraction(0)
      for S, c in minors:
        term = c
        for i in S:
          term *= y[i] ** (k - 1)
        total += term
      if total != 0:
        return False
  return True


def naive_cube_root(n: int) -> int | None:
  """The integer cube root of n, by bisection, or None when n is no cube."""
  a = abs(n)
  lo, hi = 0, 1
  while hi ** 3 < a:
    hi *= 2
  while lo < hi:
    mid = (lo + hi) // 2
    if mid ** 3 < a:
      lo = mid + 1
    else:
      hi = mid
  if lo ** 3 != a:
    return None
  return lo if n >= 0 else -lo


def naive_cube_direction(v) -> RatVector | None:
  """The entrywise cube roots of v / v_f, v_f the first nonzero entry of
  v, when every one of them is rational; None otherwise."""
  lead = next(Fraction(x) for x in v if x != 0)
  out = []
  for x in v:
    q = Fraction(x) / lead
    num, den = naive_cube_root(q.numerator), naive_cube_root(q.denominator)
    if num is None or den is None:
      return None
    out.append(Fraction(num, den))
  return RatVector.of(out)


def reference_candidates(basis, table) -> list[RatVector]:
  """Every combination sum c_j b_j for the coefficient tuples c of `table`,
  formed in Fractions, one per line, sorted by (-support, sum of |c|,
  mixed signs, c)."""
  scored, seen = [], set()
  for c in table:
    v = [sum((coef * b[i] for coef, b in zip(c, basis)), Fraction(0))
         for i in range(len(basis[0]))]
    lead = next((x for x in v if x != 0), None)
    if lead is None:
      continue
    line = tuple(x / lead for x in v)
    if line in seen:
      continue
    seen.add(line)
    mixed = any(x < 0 for x in c)
    support = sum(1 for x in v if x != 0)
    scored.append((-support, sum(abs(x) for x in c), mixed, c, v))
  scored.sort(key=lambda t: t[:4])
  return [RatVector.of(t[4]) for t in scored]


def reference_kernel_directions(basis, table, count: int) -> list[RatVector]:
  """The rational cube-root directions of the first `count` reference
  candidates, every candidate tested."""
  out = []
  for v in reference_candidates(basis, table)[:count]:
    d = naive_cube_direction(v)
    if d is not None:
      out.append(d)
  return out


def chain_first_decide(A: RatMatrix, y: RatVector):
  """The certificate `certify._decide_direction` gives for y, reached
  without testing y against Im A first: a direction with zeros is
  normalized unless it is a 0/1 pattern, the conjugate gets a fresh
  Analysis, and the escape chain runs from its first check."""
  # the package exports a function named certify, so the module is looked up
  C = importlib.import_module("propermap.certify")
  from propermap.hadamard import hpow
  from propermap.linalg import primitive_integer_vector
  from propermap.recipes import WitnessRecipe

  audit = []

  def cert(verdict, reason, **evidence):
    return C.Certificate(verdict, reason, A, evidence=evidence,
                         audit=tuple(audit))

  V = C.Analysis(A).image
  if all(a != 0 for a in y):
    if V.contains(y):
      ok, u, note = C.escape_direction_check(A, V, y)
      audit.append(C.AuditEntry("escape-direction",
                                "satisfied" if ok else "fails", note))
      if ok:
        recipe = WitnessRecipe(kind="simple", x_inf=y, u=u)
        return cert(C.NONPROPER, C.REASON_ESCAPE, recipe=recipe, direction=y,
                    u=u)
    else:
      audit.append(C.AuditEntry("membership", "fails", "kernel cube root is "
                                "outside the reduced subspace"))
      note = "direction not in reduced subspace"
    return cert(C.PROPER, C.REASON_KERNEL_LINE,
                generator=primitive_integer_vector(hpow(y, 3)), direction=y,
                failed=note)
  if all(a in (0, 1) for a in y.entries):
    B, frame, x_pat = A, None, y
  else:
    norm = C.normalize_kernel_direction(A, hpow(y, 3))
    B, frame, x_pat = norm.matrix, norm.frame, norm.generator
    audit.append(C.AuditEntry("normalize", "done",
                              f"support size {norm.support_size}"))
  anB = C.Analysis(B)
  rep = C.condition_chain(anB, x_pat)
  audit.append(C.AuditEntry("condition-chain",
                            "satisfied" if rep.satisfied else "unsatisfied",
                            rep.failure or f"depth {rep.depth}"))
  if not rep.satisfied:
    if rep.numeric_only:
      return cert(C.UNDECIDED, C.REASON_OUT_OF_SCOPE, chain=rep,
                  note="numeric chain unsatisfied; properness cannot be "
                  "certified from floats")
    return cert(C.PROPER, C.REASON_CHAIN_UNSAT, chain=rep)
  if rep.numeric_only:
    recipe = C._numeric_chain_recipe(rep, frame)
    reason = C.REASON_CHAIN + C.NUMERIC_SUFFIX
  else:
    recipe = C._chain_recipe(rep, anB.image, frame)
    reason = C.REASON_CHAIN
    if recipe is None:
      audit.append(C.AuditEntry("witness", "unsupported",
                                f"chain depth {rep.depth} has no closed-form "
                                "points"))
  if recipe is not None:
    return cert(C.NONPROPER, reason, recipe=recipe, chain=rep)
  return cert(C.UNDECIDED, C.REASON_OUT_OF_SCOPE, chain=rep)
