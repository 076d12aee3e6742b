"""Witness validation, the sphere-minimum probe, and general powers.

A NonProper certificate is only as good as its escape curve, so this
module checks the curve's one exact rule and regenerates its points at a
geometric schedule of scales, measuring in floating point everything the
refutation claims: residuals decaying, point norms growing, directions
converging.  One validation expands the curve once.  The points come from
it, and so do the residuals x + A(x^k): exact integer Laurent polynomials,
whose growing orders cancel before any coefficient is read as a float.
For a rational curve the same expansion decides, exactly, the rule that
makes it a refutation: it lies in Im A, and its residuals keep no positive
power of t.  The module also hosts the general-power witness constructor
and a numeric properness probe that minimizes the map norm over spheres
of growing radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .linalg import RatMatrix, RatVector, Subspace, image_basis, kernel_basis
from .recipes import (
  EscapeCurve,
  _float_polys,
  _replay,
  laurent_coords,
  simple_curve,
)

DEFAULT_GAMMAS = tuple(10.0 ** e for e in range(1, 7))

# seeded random starts per sphere, and the round cap of one descent
PROBE_RANDOM_STARTS = 8
PROBE_ITERATIONS = 150

# relative tolerance of a numeric curve's positive-order residuals
NUMERIC_REL_TOL = 1e-6

# the report notes of a curve that breaks the witness rule
EQUATIONS_FAIL = "x + A(x^k) keeps a positive power of t"
LEAVES_IMAGE = "the escape curve leaves Im A"


def _loglog_slope(xs, ys) -> float | None:
  """Least-squares slope of log y against log x, each y floored at 1e-300;
  None when the x values leave the fit undetermined."""
  logs = [(math.log(x), math.log(max(y, 1e-300))) for x, y in zip(xs, ys)]
  n = len(logs)
  sx = sum(t[0] for t in logs)
  sy = sum(t[1] for t in logs)
  sxx = sum(t[0] * t[0] for t in logs)
  sxy = sum(t[0] * t[1] for t in logs)
  denom = n * sxx - sx * sx
  if denom <= 0:
    return None
  return (n * sxy - sx * sy) / denom


@dataclass(frozen=True)
class WitnessValidationReport:
  """Measured behaviour of a curve's escape points along a gamma schedule."""

  gammas: tuple[float, ...]
  residuals: tuple[float, ...]
  point_norms: tuple[float, ...]
  direction_errors: tuple[float, ...]
  invariant_ok: bool
  rejected: bool
  fitted_decay_exponent: float | None
  negative_image_coordinates: bool
  passed: bool
  note: str = ""


def _float_matrix(A: RatMatrix):
  return [[float(A.entry(i, j)) for j in range(A.n_cols)]
          for i in range(A.n_rows)]


def _apply_f(mat, x):
  return [sum(row[j] * x[j] for j in range(len(x))) for row in mat]


def _norm(x) -> float:
  return math.sqrt(sum([t * t for t in x]))


def _integer_powers(coords: list[dict], k: int
                    ) -> tuple[int, list[dict], list[dict]]:
  """(D, P, P^k): D the common denominator of every coefficient, P_i = D x_i
  with integer coefficients, and the k-th power of each P_i, by k - 1
  convolutions on ints."""
  D = math.lcm(*(c.denominator for p in coords for c in p.values()))
  ints = [{e: c.numerator * (D // c.denominator) for e, c in p.items()}
          for p in coords]
  pows = []
  for p in ints:
    acc = p
    for _ in range(k - 1):
      prod: dict = {}
      for e1, c1 in acc.items():
        for e2, c2 in p.items():
          prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
      acc = prod
    pows.append(acc)
  return D, ints, pows


def _laurent_residuals(A: RatMatrix, coords: list[dict], k: int
                       ) -> list[dict]:
  """Coordinates of x + A(x^k) as Laurent polynomials in t = gamma^(1/3),
  for x given by its `laurent_coords`, with float coefficients.

  The expansion is exact and runs on ints.  With `_integer_powers`' D and
  P, and row i of A equal to a_i / d_i (A's integer rows), residual i is
  the integer polynomial D^(k-1) d_i P_i + sum_j a_ij P_j^k over D^k d_i.
  Each nonzero coefficient is then read as a float once, by int true
  division, which rounds correctly.
  """
  D, ints, pows = _integer_powers(coords, k)
  int_rows, denoms = A._integer_rows
  out = []
  for p, row, d in zip(ints, int_rows, denoms):
    scale = D ** (k - 1) * d
    acc = {e: scale * c for e, c in p.items()}
    for aij, pk in zip(row, pows):
      if aij:
        for e, c in pk.items():
          acc[e] = acc.get(e, 0) + aij * c
    q = D * scale
    out.append({e: n / q for e, n in acc.items() if n})
  return out


def _numeric_rule_ok(coords: list[dict], resid_polys: list[dict],
                     k: int) -> bool:
  """The tolerance rule of a numeric curve: at each positive order e its
  residual coefficient r_e = x_e + A (x^k)_e is at most NUMERIC_REL_TOL
  times max(1, |x_e|, |(x^k)_e|), the sizes of the two terms that must
  cancel.  Im A is not checked."""
  D, _, pows = _integer_powers(coords, k)
  Dk = D ** k
  for e in {e for p in resid_polys for e in p if e > 0}:
    scale = max(1.0, _norm([float(p.get(e, 0)) for p in coords]),
                _norm([p.get(e, 0) / Dk for p in pows]))
    if _norm([p.get(e, 0.0) for p in resid_polys]) > NUMERIC_REL_TOL * scale:
      return False
  return True


def _curve_defect(A: RatMatrix, curve: EscapeCurve, resid_polys: list[dict],
                  image: Subspace | None = None) -> tuple[int, bool] | None:
  """Where an exact curve, with the `_laurent_residuals` of x + A(x^k),
  breaks the witness rule; None when it keeps it.

  The rule: no residual keeps a term of positive order in t, and every
  coefficient vector of the curve lies in Im A (`image`, or one
  `image_basis(A)` when it is not given).  The first failure found is
  returned as (e, True) for the highest order e > 0 the residuals keep,
  else as (e, False) for the highest exponent whose vector leaves Im A.

  Why the rule refutes properness: write the curve x = A y with y in A's
  row space, and put z = y - pi_ker(F(y)) for F(y) = y + (A y)^k.  Then
  A F(y) = x + A(x^k) stays bounded, so pi_row F(y) does, and F(z) =
  pi_row F(y) stays bounded while |z| >= |y| grows without bound.
  """
  kept = [e for p in resid_polys for e in p if e > 0]
  if kept:
    return max(kept), True
  V = image if image is not None else image_basis(A)
  for e, c in curve.coefficients.items():
    if not V.contains(c):
      return e, False
  return None


def validate_witness(A: RatMatrix, curve: EscapeCurve,
                     gammas: tuple[float, ...] = DEFAULT_GAMMAS,
                     image: Subspace | None = None
                     ) -> WitnessValidationReport:
  """Check an escape curve's rule, then regenerate its points and measure
  whether the refutation holds up.

  The curve is in A's own coordinates and the map measured is
  x + A(x^k); boundedness of those images along a curve in Im A transfers
  to non-properness of x + (Ax)^k.  A curve whose top exponent is not
  positive, or whose top vector is zero, does not grow: it is reported
  rejected, with invariant_ok false, and not replayed.  Otherwise its
  invariants are the witness rule of `_curve_defect`, read off one
  expansion: for a rational curve, exactly, every coefficient vector lies
  in Im A (`image`, when the caller already holds it) and no residual keeps
  a positive power of t; for a numeric one, every positive-order residual
  coefficient is within tolerance (`_numeric_rule_ok`).  A curve passes
  when its invariants hold, point norms strictly grow, direction errors
  shrink, and residuals decay with a fitted log-log slope at most -0.2 (or
  stay within twice their small-gamma level).  Curves whose invariants
  fail are still evaluated so the report shows the residual growth.  A
  curve whose vectors do not fit A's size raises ValueError.
  """
  if len(gammas) < 2:
    raise ValueError("need at least two gammas to judge a trend")
  if not all(map(math.isfinite, gammas)):
    raise ValueError("gammas must be finite")
  if any(g <= 0 for g in gammas):
    raise ValueError("gammas must be positive")
  gammas = tuple(sorted(float(g) for g in gammas))
  if any(a == b for a, b in zip(gammas, gammas[1:])):
    # a repeated scale cannot show the point norms strictly growing
    raise ValueError("gammas must be distinct")
  if curve.dim != A.n_cols:
    raise ValueError(f"matrix is {A.n_rows}x{A.n_cols}, curve vectors have "
                     f"length {curve.dim}")

  top = next(iter(curve.coefficients))
  x_top = curve.coefficients[top]
  if top <= 0 or x_top.is_zero():
    return WitnessValidationReport(
      gammas=gammas, residuals=(), point_norms=(), direction_errors=(),
      invariant_ok=False, rejected=True,
      fitted_decay_exponent=None, negative_image_coordinates=False,
      passed=False, note="curve rejected: " + (
        f"its top exponent {top} is not positive" if top <= 0
        else f"its top vector, at t^{top}, is zero"))

  k = curve.k
  x_ref = [float(t) for t in x_top]
  ref_norm = _norm(x_ref)
  x_hat = [t / ref_norm for t in x_ref]

  # one expansion gives the points and, in closed form, the residual
  # coordinates: the gamma^k-order terms cancel exactly in the integer
  # coefficients, so evaluation stays accurate at scales where the direct
  # float computation of x + A(x^k) loses every significant digit to
  # cancellation
  coords = laurent_coords(curve)
  resid_polys = _laurent_residuals(A, coords, k)
  if curve.numeric:
    note = "" if _numeric_rule_ok(coords, resid_polys, k) else EQUATIONS_FAIL
  else:
    defect = _curve_defect(A, curve, resid_polys, image)
    note = ("" if defect is None else EQUATIONS_FAIL if defect[1]
            else LEAVES_IMAGE)
  invariant_ok = not note

  ts = [g ** (1.0 / 3.0) for g in gammas]
  points = _replay(_float_polys(coords), ts)
  residuals = [_norm(r) for r in _replay(resid_polys, ts)]
  norms = [_norm(x) for x in points]
  dir_errors = [_norm([a / n - b for a, b in zip(x, x_hat)])
                for x, n in zip(points, norms)]
  # only even powers have an image sign to watch
  negative_image = False
  if k % 2 == 0:
    Af = _float_matrix(A)
    negative_image = any(t < -1e-12 for x in points for t in _apply_f(Af, x))

  slope = _loglog_slope(gammas, residuals)

  norms_grow = all(b > a for a, b in zip(norms, norms[1:]))
  floor = 1e-14
  dirs_shrink = (all(b <= max(a * (1 + 1e-9), floor)
                     for a, b in zip(dir_errors, dir_errors[1:]))
                 and dir_errors[-1] <= max(dir_errors[0], floor))
  early = max(residuals[0], residuals[1])
  resid_ok = (slope is not None and slope <= -0.2) or \
      max(residuals) <= 2.0 * early
  passed = invariant_ok and norms_grow and dirs_shrink and resid_ok
  return WitnessValidationReport(
    gammas=gammas, residuals=tuple(residuals), point_norms=tuple(norms),
    direction_errors=tuple(dir_errors), invariant_ok=invariant_ok,
    rejected=False, fitted_decay_exponent=slope,
    negative_image_coordinates=negative_image, passed=passed, note=note)


# ---------------------------------------------------------------------------
# sphere-minimum probe
# ---------------------------------------------------------------------------


def _newton_table(Af):
  """The probe's bordered Newton systems as one linear map, for the m x m
  float matrix Af (a numpy array).

  Returns (T, eye): T has shape (3m, (m+1)^2) and eye is the flattened
  (m+1) x (m+1) matrix that is the identity on its leading m x m block and
  zero elsewhere.  For row vectors w, d and u of length m,
  hstack([w, d, u]) @ T + eye is the row-major flattening of
  [[I + diag(d) A + A^T diag(d) + A^T diag(w) A, u], [u^T, 0]].  Row i of T
  holds outer(A_i, A_i), row m + p the two places d_p enters diag(d) A +
  A^T diag(d), and row 2m + p the two border slots of u_p.
  """
  import numpy as np
  m = len(Af)
  p = np.arange(m)
  T = np.zeros((3 * m, m + 1, m + 1))
  T[:m, :m, :m] = Af[:, :, None] * Af[:, None, :]
  T[m + p, p, :m] += Af
  T[m + p, :m, p] += Af
  T[2 * m + p, p, m] = 1.0
  T[2 * m + p, m, p] = 1.0
  eye = np.zeros((m + 1, m + 1))
  eye[p, p] = 1.0
  return T.reshape(3 * m, -1), eye.ravel()


@dataclass(frozen=True)
class MuProbeReport:
  """Minimum map norm over spheres of doubling radius, and the trend."""

  radii: tuple[float, ...]
  mu_values: tuple[float, ...]
  classification: str       # GrowthObserved | BoundedObserved | Inconclusive
  seed: int
  note: str = ""


def probe_mu(A: RatMatrix, k: int = 3, seed: int = 0,
             radii: "tuple[float, ...] | None" = None) -> MuProbeReport:
  """Estimate mu(r) = min over the r-sphere of the norm of x + (Ax)^k.

  Proper maps drive mu to infinity; along an escape curve mu collapses.
  The probe runs damped Riemannian Newton descent from curated and seeded
  random starts (plus dense sampling in dimension at most 3) on spheres
  of radius 2^0 .. 2^10 by default, entirely in floats, deterministically
  for a fixed seed.  Every descent is a row of a numpy array with its own
  radius and damping.  A row leaves the batch at its rounding floor, the
  first trial whose value differs from its own by at most 1e-12 of it,
  so each sphere's value is a converged local minimum rather than
  wherever a round cap stopped; and its damping grows faster with every
  rejection in a row, so an overshooting start wastes few rounds.  All
  descents share one batch, which the fixed starts of every sphere begin.
  The chained rows (continuation up the radii, then refinement back down)
  join it once every sphere has a stopped row and no more fixed rows run
  than the chain has jobs, each from the best result so far; a job joins
  again whenever the results before it give it a new start, until every
  job's start agrees with them, and each (job, start) descends once.  It
  observes rather than proves: the outcome is GrowthObserved,
  BoundedObserved, or Inconclusive.

  A schedule should start near radius 1 and at most double from one
  radius to the next.  The continuation from the sphere before is what
  finds a narrow escape valley, and the radii check accepts any increasing
  schedule: `golden_3x3()`, whose map has an exact escape curve, reads
  BoundedObserved on 1, 2, 4, 8 and on 2^10 .. 2^13, but GrowthObserved
  on 1e5 .. 1e8 and on 2^24 .. 2^27.
  """
  if isinstance(k, bool) or not isinstance(k, int) or k < 1:
    # powers() would measure another map: at k = 0 it returns (Ax)^2
    raise ValueError(f"k must be a positive integer, got {k!r}")
  import numpy as np
  m = A.m
  Af = np.array(_float_matrix(A), dtype=float)
  rng = np.random.default_rng(seed)
  if radii is None:
    radii = [float(2 ** j) for j in range(11)]
  else:
    radii = [float(r) for r in radii]
    if not all(map(math.isfinite, radii)):
      # NaN passes every ordering test, and a NaN or inf radius makes every
      # point and value on its sphere NaN, so no minimum is measured there
      raise ValueError("radii must be finite")
    if len(radii) < 4 or any(r <= 0 for r in radii) or \
       any(b <= a for a, b in zip(radii, radii[1:])):
      raise ValueError("radii must be at least four increasing positive values")
  n = len(radii)

  AfT = np.ascontiguousarray(Af.T)
  ones_m = np.ones(m)

  def row_dots(X, Y):
    # on arrays this small a product with a ones vector is the cheapest
    # row sum numpy offers
    return (X * Y) @ ones_m

  def row_norms(X):
    return np.sqrt(row_dots(X, X))
  def powers(AX):
    # (AX)^(k-2), (AX)^(k-1) and (AX)^k by repeated products: numpy's **
    # calls libm pow per element, several times the cost of a multiply.
    # At k = 1 the first enters only with the Hessian weight k(k-1) = 0.
    if k == 1:
      return 0.0, np.ones_like(AX), AX
    P, P1 = 1.0, AX
    for _ in range(k - 2):
      P, P1 = P1, P1 * AX
    return P, P1, P1 * AX

  def evaluate(X):
    # every row's descent state [w | d | x | F] and squared map norm |F|^2,
    # for a = Ax, F = x + a^k, d = k a^(k-1) and w = d^2 + k(k-1) F a^(k-2)
    P2, P1, Pk = powers(X @ AfT)
    F = X + Pk
    D = k * P1
    W = D * D + k * (k - 1) * F * P2
    return np.concatenate([W, D, X, F], axis=1), row_dots(F, F)

  def h(X):
    # squared map norm of every row of X
    return evaluate(X)[1]

  starts = []
  ones = np.ones(m) / math.sqrt(m)
  starts.append(ones)
  starts.append(-ones)
  for b in kernel_basis(A).basis:
    kb = np.array([float(t) for t in b])
    nkb = np.linalg.norm(kb)
    if nkb > 0:
      for base in (kb / nkb, -kb / nkb):
        starts.append(base)
        # kernel directions are stationary points on the sphere, so
        # jittered copies let descent leave the saddle toward any valley
        for scale in (1e-2, 1e-1):
          jit = base + scale * rng.normal(size=m)
          starts.append(jit / np.linalg.norm(jit))
        cubed = powers(base)[2]
        ncb = np.linalg.norm(cubed)
        if ncb > 0:
          for sgn in (1.0, -1.0):
            for scale in (1e-2, 1e-1):
              jit = sgn * cubed / ncb + scale * rng.normal(size=m)
              starts.append(jit / np.linalg.norm(jit))
  for _ in range(PROBE_RANDOM_STARTS):
    v = rng.normal(size=m)
    starts.append(v / np.linalg.norm(v))
  starts = np.array(starts)
  dense = None
  if m == 1:
    dense = np.array([[1.0], [-1.0]])
  elif m == 2:
    t = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    dense = np.column_stack([np.cos(t), np.sin(t)])
  elif m == 3:
    i = np.arange(128)
    z = 1.0 - 2.0 * (i + 0.5) / 128
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = math.pi * (3.0 - math.sqrt(5.0)) * i
    dense = np.column_stack([rad * np.cos(th), rad * np.sin(th), z])

  table, eye = _newton_table(Af)
  # the diagonal of the leading m x m block of a flattened bordered matrix
  shift = slice(0, m * (m + 2), m + 2)
  # the x columns of a descent state [w | d | x | F]
  xcols = slice(2 * m, 3 * m)

  def descend(S, R, join):
    """Damped Riemannian Newton descent from every row of S on the sphere
    of radius R[row] (Absil, Mahony and Sepulchre 2008, ch. 6), in one
    batch that rows may join while it runs.

    At x, with a = Ax, F = x + a^k and d = k a^(k-1), the half squared
    norm |F|^2 / 2 has gradient g = F + A^T(d F) and Hessian H = I +
    diag(d) A + A^T diag(d) + A^T diag(d^2 + k(k-1) F a^(k-2)) A.  A step
    s solves the bordered system [[H - sigma I + lam I, u], [u^T, 0]]
    [s; nu] = [-g; 0] with u = x/r and sigma = g.u/r: a Newton step of
    the Riemannian Hessian on the tangent space, shifted by lam.  A row
    accepts the trial point r (x + s)/|x + s| only on strict decrease, and
    then carries the trial's state (see evaluate) instead of recomputing
    it.  Its lam starts at 1e-6 (1 + sum |H|) of its own first matrix and
    moves by the Levenberg-Marquardt rule of Madsen, Nielsen and Tingleff
    (2004): an accepted step divides lam by 3, and a rejected one
    multiplies it by a factor that starts at 4 and doubles with every
    rejection in a row; a singular system counts as rejected.  Apart from
    its diagonal shift the bordered matrix is linear in w = d^2 + k(k-1) F
    a^(k-2), d and u, so one matmul of [w | d | u] with the per-matrix
    table of _newton_table, plus the identity, builds every row's matrix,
    and lam - sigma is added through a strided view of the diagonal.  A
    row stops, and leaves the batch, once a trial's value differs from its
    own by at most 1e-12 of it (after the trial is accepted if it is
    lower): the rounding floor, below which no step changes the minimum
    found.  It also stops once its step is at most 1e-13 r, once lam
    exceeds 1e12, or after PROBE_ITERATIONS rounds of its own.

    Rows are numbered in the order they join, those of S first.  Row i's
    squared map norm and point are out_f[i] and out_x[i]: inf and its start
    until it stops.  In every round where rows stop, join(ids, out_f,
    out_x) receives their numbers and returns None or the unit starts and
    radii (S, R) of rows that join the batch.  The loop ends when no row is
    left, and descend returns out_f and out_x.  Up to matmul rounding, a
    row's result does not depend on the other rows.
    """
    Z, fx = evaluate(S * R[:, None])
    out_f, out_x = np.full(len(Z), np.inf), Z[:, xcols].copy()
    rows = np.arange(len(Z))  # the number of every working row
    born = np.zeros(len(Z), dtype=int)  # the round every working row joined
    lam = grow = np.empty(0)
    fresh = len(Z)  # working rows, at the end, still without a lam
    t = 0
    while len(rows):
      D, X, F = Z[:, m:2 * m], Z[:, xcols], Z[:, 3 * m:]
      G = F + (D * F) @ Af
      U = X / R[:, None]
      M = np.concatenate([Z[:, :2 * m], U], axis=1) @ table
      M += eye
      n_rows = len(rows)
      if fresh:
        H = M[-fresh:].reshape(fresh, m + 1, m + 1)[:, :m, :m]
        lam = np.concatenate([lam, 1e-6 * (1.0 + np.abs(H).sum(axis=(1, 2)))])
        grow = np.concatenate([grow, np.full(fresh, 4.0)])
        fresh = 0
      M[:, shift] += (lam - row_dots(G, U) / R)[:, None]
      M = M.reshape(n_rows, m + 1, m + 1)
      rhs = np.zeros((n_rows, m + 1, 1))
      rhs[:, :m, 0] = -G
      ok = True
      try:
        sol = np.linalg.solve(M, rhs)
      except np.linalg.LinAlgError:
        # one singular system fails the whole batched call: solve the rows
        # one by one, and a singular row's step is rejected
        sol = np.zeros_like(rhs)
        ok = np.ones(n_rows, dtype=bool)
        for i in range(n_rows):
          try:
            sol[i] = np.linalg.solve(M[i], rhs[i])
          except np.linalg.LinAlgError:
            ok[i] = False
      s = sol[:, :m, 0]
      tiny = ok & (row_norms(s) <= 1e-13 * R)
      trial = X + s
      trial *= (R / row_norms(trial))[:, None]
      Zt, ft = evaluate(trial)
      better = ok & ~tiny & (ft < fx)
      done = tiny | (ok & (np.abs(fx - ft) <= 1e-12 * fx))
      np.copyto(Z, Zt, where=better[:, None])
      np.copyto(fx, ft, where=better)
      lam = np.where(better, lam / 3.0, lam * grow)
      grow = np.where(better, 4.0, grow * 2.0)
      done |= lam > 1e12
      t += 1
      # born is non-decreasing, so born[0] is the oldest working row
      if t - born[0] >= PROBE_ITERATIONS:
        done |= t - born >= PROBE_ITERATIONS
      if done.any():
        ids = rows[done]
        out_f[ids], out_x[ids] = fx[done], Z[done, xcols]
        new = join(ids, out_f, out_x)
        keep = ~done
        Z, fx, R, rows = Z[keep], fx[keep], R[keep], rows[keep]
        lam, grow, born = lam[keep], grow[keep], born[keep]
        if new is not None:
          S, R_new = new
          Z_new, fx_new = evaluate(S * R_new[:, None])
          fresh = len(S)
          rows = np.concatenate([rows, len(out_f) + np.arange(fresh)])
          Z, fx = np.concatenate([Z, Z_new]), np.concatenate([fx, fx_new])
          R = np.concatenate([R, R_new])
          born = np.concatenate([born, np.full(fresh, t)])
          out_f = np.concatenate([out_f, np.full(fresh, np.inf)])
          out_x = np.concatenate([out_x, Z_new[:, xcols]])
    return out_f, out_x

  # the fixed starts depend on no descent result, so every sphere's block
  # starts at once; the first minimum of a block is its sphere's best
  if dense is None:
    blocks = [starts] * n
  else:
    # one h call ranks the dense set on every sphere at once
    vals = h((np.array(radii)[:, None, None] * dense).reshape(-1, m))
    best = np.argsort(vals.reshape(n, -1), axis=1, kind="stable")[:, :3]
    blocks = [np.vstack([starts, dense[b]]) for b in best]
  fixed = np.vstack(blocks)
  n_fixed, size = len(fixed), len(blocks[0])
  waiting = n_fixed  # fixed rows still descending
  # the spheres' squared minima and unit directions over the stopped fixed
  # rows, kept until another fixed row stops
  fixed_best = None

  # the chain: continuation descends sphere i from sphere i-1's best, which
  # tracks a valley upward (without it the narrow escape channels of
  # non-proper maps are unfindable); backward refinement then descends
  # sphere i from sphere i+1's refined best, removing spurious bumps from
  # the measured envelope.  Each job is (sphere, sphere its start comes from).
  chain = [(i, i - 1) for i in range(1, n)] + \
      [(i, i + 1) for i in range(n - 2, -1, -1)]
  ran = {}  # (job, start bytes) -> (fx, dir) of its descent, None while it runs
  keys = []  # the (job, start bytes) of every chained row, in joining order

  def settle(out_f, out_x):
    # the spheres' bests from the stopped rows: a job's result counts only
    # if it descended from the start the results before it now give.
    # Returns the squared minima, and the start and radius of every job
    # whose start never ran, which is marked running.
    nonlocal fixed_best
    if fixed_best is None:
      block = out_f[:n_fixed].reshape(n, size)
      first = [i * size + int(np.argmin(row)) for i, row in enumerate(block)]
      best = out_x[first]
      fixed_best = out_f[first].tolist(), list(best / row_norms(best)[:, None])
    mu_sq, best_dirs = list(fixed_best[0]), list(fixed_best[1])
    stale = []
    for job, (i, src) in enumerate(chain):
      key = (job, best_dirs[src].tobytes())
      if key not in ran:
        ran[key] = None
        keys.append(key)
        stale.append((best_dirs[src], radii[i]))
      elif ran[key] is not None:
        f, d = ran[key]
        # the warm row wins ties; a refinement must strictly improve
        if (f <= mu_sq[i]) if src < i else (f < mu_sq[i]):
          mu_sq[i], best_dirs[i] = f, d
    return mu_sq, stale

  def join(ids, out_f, out_x):
    # the chain joins in a wave once every sphere has a stopped fixed row
    # and no more fixed rows run than the chain has jobs; when the last
    # fixed row stops, and whenever a chained row stops, the jobs whose
    # start changed join.  Each (job, start) runs at most once.
    nonlocal waiting, fixed_best
    # ids ascend, and the fixed rows are numbered first
    cut = len(ids) if ids[-1] < n_fixed else int((ids < n_fixed).sum())
    if cut:
      waiting -= cut
      fixed_best = None
    if cut < len(ids):
      X = out_x[ids[cut:]]
      for i, d in zip(ids[cut:], X / row_norms(X)[:, None]):
        ran[keys[i - n_fixed]] = (float(out_f[i]), d)
    if cut == len(ids) and waiting and (
        keys or waiting > len(chain)
        or not (out_f[:n_fixed] < np.inf).reshape(n, size).any(axis=1).all()):
      return None
    stale = settle(out_f, out_x)[1]
    if stale:
      return (np.array([d for d, _ in stale]),
              np.array([r for _, r in stale]))

  mu_sq = settle(*descend(fixed, np.repeat(radii, size), join))[0]
  mu_values = [math.sqrt(v) for v in mu_sq]

  slope = _loglog_slope(radii[-4:], mu_values[-4:])
  running_max = list(itertools.accumulate(mu_values, max))
  slope_max = _loglog_slope(radii[-4:], running_max[-4:])
  global_min = min(mu_values)
  tail = mu_values[-4:]
  # the slowest genuine growth channel is the cube-root balance near a
  # blocked kernel line, mu ~ r^(1/3), so the growth cut sits below 1/3
  growth_cut = 0.25
  if max(tail) <= max(3.0 * global_min, 1e-9):
    cls = "BoundedObserved"
  elif slope >= growth_cut:
    cls = "GrowthObserved"
  elif slope_max >= growth_cut and slope > -0.2:
    # the minimum over a sphere need not be monotone in the radius: a proper
    # map can have a genuine local pocket that drags the plain tail slope
    # down, while the running maximum still climbs
    cls = "GrowthObserved"
  else:
    cls = "Inconclusive"
  return MuProbeReport(radii=tuple(radii), mu_values=tuple(mu_values),
                       classification=cls, seed=seed,
                       note=f"tail slope {slope:.3f}")


# ---------------------------------------------------------------------------
# general powers
# ---------------------------------------------------------------------------


def general_k_witness(A: RatMatrix, x_inf: RatVector, u: RatVector,
                      k: int) -> EscapeCurve:
  """Escape curve of x + (Ax)^k from a fully nonzero limit direction.

  The curve is `simple_curve`: t^3 x_inf + t^(-3(k-2)) u / (k x_inf^(k-1)),
  and it must keep the exact witness rule `validate_witness` checks
  (`_curve_defect`).  Its residuals keep t^(3k) unless A(x_inf^k) = 0 and
  t^3 unless A u + x_inf = 0; then both x_inf and u * x_inf^(1-k) must lie
  in Im A.  A failure raises ValueError naming the failed equation or the
  term that leaves Im A.  The data refutes properness for this power
  only: another k asks another equation of x_inf and u.
  """
  if not isinstance(k, int) or k < 2:
    raise ValueError("power k must be an integer >= 2")
  if len(x_inf) != A.n_cols or len(u) != A.n_cols:
    raise ValueError(f"matrix is {A.n_rows}x{A.n_cols}, x_inf and u have "
                     f"lengths {len(x_inf)} and {len(u)}")
  if any(a == 0 for a in x_inf):
    raise ValueError("x_inf must have no zero coordinate")
  curve = simple_curve(x_inf, u, k)
  defect = _curve_defect(A, curve, _laurent_residuals(
    A, laurent_coords(curve), k))
  if defect is None:
    return curve
  e, kept = defect
  if kept:
    equation = "A(x_inf^k) = 0" if e == 3 * k else "A u + x_inf = 0"
    raise ValueError(f"precondition {equation} fails")
  raise ValueError(f"the curve's t^{e} term leaves Im A")
