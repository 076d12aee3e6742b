"""Seeded corpora, the request each workload sends, and its output checks.

Every corpus is a stream: an optional prefix of fixed fixtures, then a cycle
of strata repeated with fresh random draws.  Runs stop only at cycle
boundaries, so every run measures the same mix of strata whatever its
length.  Item i depends only on the workload name, the seed and i.

Why each workload exists (see README.md for the full table):

* screen_mix: every verdict comes from a structural screen; exercises the
  escape search whose result a fired screen throws away.
* corank1_mix: corank-1 matrices with a planted 0/1 kernel pattern; reaches
  every corank-1 reason and rechecks each decisive certificate.
* corank_sweep: rank-r samples at corank 2..4; candidate enumeration and
  cube-root classes, all Undecided today.
* observe: the float tools (sphere probe, Druzkowski test, witness replay).
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

# The shortest sphere schedule probe_mu accepts (the command line takes it as
# --radii 1,2,4,8).  It runs the same descent, continuation and
# classification code as the default 11-radius schedule at about a third of
# the cost, so a run holds ~40 observe requests instead of ~12; with ~12 the
# run-to-run spread of the observe metrics was 0.1-0.2 of their median.
PROBE_RADII = (1.0, 2.0, 4.0, 8.0)
ESCAPE_SEARCH = "certify.necessary_escape_search"
ROUNDTRIP = "jsonio.roundtrip"
BENCH_SPANS = (ROUNDTRIP,)
STAGES = ("certify", "verify", "observe")


@dataclass
class Item:
  rows: tuple
  matrix: object
  stratum: str
  probe_seed: int = 0
  certificate: object = None   # observe: certify(matrix), made with the item


@dataclass
class Record:
  """Outcome of one request: histogram key, timings and check results."""

  key: str
  request_ns: int
  stages: dict = field(default_factory=dict)
  failure: str | None = None
  undecided: bool = False
  numeric: bool = False
  probe_disagree: bool = False
  wasted_searches: int = 0


# ---------------------------------------------------------------------------
# matrix generators
# ---------------------------------------------------------------------------


def _rand_rows(rng, m, box):
  return [[rng.randint(-box, box) for _ in range(m)] for _ in range(m)]


def _symmetric(rng, m, pm):
  a = _rand_rows(rng, m, 3)
  return [[a[i][j] + a[j][i] for j in range(m)] for i in range(m)]


def _antisymmetric(rng, m, pm):
  a = _rand_rows(rng, m, 3)
  return [[a[i][j] - a[j][i] for j in range(m)] for i in range(m)]


def _invertible(rng, m, pm):
  while True:
    a = _rand_rows(rng, m, 3)
    if oracles.det(a) != 0:
      return a


def _upper_triangular(rng, m, pm):
  return [[rng.randint(-3, 3) if j >= i else 0 for j in range(m)]
          for i in range(m)]


def _rank_one(rng, m, pm):
  while True:
    u = [rng.randint(-3, 3) for _ in range(m)]
    v = [rng.randint(-3, 3) for _ in range(m)]
    if any(u) and any(v):
      return [[u[i] * v[j] for j in range(m)] for i in range(m)]


def _planted_pattern(rng, m, pm):
  """Entries in [-2, 2]; one column is minus the sum of the other columns of
  a random 0/1 support, so that support is the whole kernel."""
  while True:
    rows = _rand_rows(rng, m, 2)
    support = rng.sample(range(m), rng.randint(2, m))
    lead, rest = support[0], support[1:]
    for row in rows:
      row[lead] = -sum(row[j] for j in rest)
    if oracles.rank(rows) == m - 1:
      return rows


def _ones_kernel(rng, m, pm):
  """Corank one with kernel exactly the all-ones line, entries in [-3, 3]."""
  while True:
    rows = [[rng.randint(-3, 3) for _ in range(m - 1)] for _ in range(m)]
    rows = [r + [-sum(r)] for r in rows]
    if oracles.rank(rows) == m - 1:
      return rows


def _family_member(rng, pm):
  def free():
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
  while True:
    try:
      p = pm.forge.Family3x3Params.from_free(free(), free(), free(), free())
    except ValueError:
      continue
    return pm.forge.forge_3x3(p).rows


def _sized(build, m):
  return lambda rng, pm: build(rng, m, pm)


def _rank_sample(m, r):
  return lambda rng, pm: pm.forge.sample_rank_r(
    m, r, seed=rng.randrange(2 ** 31)).rows


def _fixture(name):
  return lambda rng, pm: getattr(pm.forge, name)().rows


_SCREEN_KINDS = (("symmetric", _symmetric), ("antisymmetric", _antisymmetric),
                    ("invertible", _invertible),
                    ("upper-triangular", _upper_triangular),
                    ("rank-one", _rank_one))


@dataclass(frozen=True)
class Workload:
  name: str
  kind: str                    # "decide" or "observe"
  cycle: tuple                 # (stratum, generator) pairs
  prefix: tuple = ()
  screen_oracle: bool = False


WORKLOADS = {w.name: w for w in (
  Workload(
    "screen_mix",
    "decide",
    tuple((f"{label}-{m}", _sized(build, m))
          for m in range(2, 7) for label, build in _SCREEN_KINDS),
    screen_oracle=True),
  Workload(
    "corank1_mix",
    "decide",
    tuple([(f"planted-{3 + i % 2}", _sized(_planted_pattern, 3 + i % 2))
           for i in range(9)] + [("family-3", _family_member)])),
  Workload(
    "corank_sweep",
    "decide",
    tuple((f"rank-{m}-{r}", _rank_sample(m, r))
          for m, r in ((4, 2), (5, 3), (6, 3), (6, 4), (8, 4)))),
  Workload(
    "observe",
    "observe",
    (("ones-kernel-3", _sized(_ones_kernel, 3)),
     ("ones-kernel-4", _sized(_ones_kernel, 4)),
     ("family-3", _family_member)),
    prefix=(("golden-3x3", _fixture("golden_3x3")),
            ("shift-5x5", _fixture("shift_5x5")))),
)}


# ---------------------------------------------------------------------------
# corpus stream
# ---------------------------------------------------------------------------


class Corpus:
  """The item stream of one workload and seed, built on demand.

  Items are dropped once sent unless `retain` is set, so memory does not
  grow with the number of requests a run manages to send.
  """

  def __init__(self, workload: Workload, seed: int, pm):
    self.workload = workload
    self.pm = pm
    self.rng = random.Random(f"{workload.name}/{seed}")
    self.retain = False
    self.items: list[Item | None] = []
    self.sent = 0
    self.strata: Counter = Counter()
    self._seen: set[int] = set()
    self._duplicates = 0

  @property
  def prefix_len(self) -> int:
    return len(self.workload.prefix)

  def at_boundary(self, i: int) -> bool:
    """True when items [0, i) are the prefix plus whole cycles (at least one)."""
    done = i - self.prefix_len
    return done > 0 and done % len(self.workload.cycle) == 0

  def build(self, n: int) -> None:
    while len(self.items) < n:
      self.items.append(self._make(len(self.items)))

  def take(self, i: int) -> Item:
    """Item i, to be sent; items are taken in order, replays allowed."""
    self.build(i + 1)
    item = self.items[i]
    if i == self.sent:
      self.sent += 1
      self.strata[item.stratum] += 1
      key = hash(item.rows)
      self._duplicates += key in self._seen
      self._seen.add(key)
    if not self.retain:
      self.items[i] = None
    return item

  def duplicate_share(self) -> float:
    """Share of the items sent whose matrix was already sent before."""
    return self._duplicates / self.sent if self.sent else 0.0

  def _make(self, i: int) -> Item:
    w = self.workload
    if i < self.prefix_len:
      stratum, gen = w.prefix[i]
    else:
      stratum, gen = w.cycle[(i - self.prefix_len) % len(w.cycle)]
    rows = tuple(tuple(Fraction(x) for x in row) for row in gen(self.rng, self.pm))
    # fixtures are probed with the command line's default seed, as users do;
    # drawn matrices get a drawn probe seed
    probe_seed = 0 if i < self.prefix_len else self.rng.randrange(2 ** 31)
    item = Item(rows=rows, matrix=self.pm.linalg.RatMatrix.of(rows),
                stratum=stratum, probe_seed=probe_seed)
    if w.kind == "observe":
      item.certificate = self.pm.certify.certify(item.matrix)
    return item


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def _span(trace, name):
  return trace.span(name) if trace is not None else nullcontext()


def _decide(pm, w: Workload, item: Item, trace) -> Record:
  A = item.matrix
  searches = trace.calls(ESCAPE_SEARCH) if trace is not None else 0
  t0 = time.perf_counter_ns()
  cert = pm.certify.certify(A)
  t1 = time.perf_counter_ns()
  rec = Record(key=f"{cert.verdict}/{cert.reason}", request_ns=t1 - t0,
               stages={"certify": t1 - t0},
               undecided=not cert.decided,
               numeric=cert.reason.endswith("-numeric"))
  if cert.decided:
    with _span(trace, ROUNDTRIP):
      text = pm.jsonio.dumps(pm.jsonio.certificate_to_json(cert))
      back = pm.jsonio.certificate_from_json(json.loads(text))
    ok = pm.certify.verify_certificate(A, back)
    t2 = time.perf_counter_ns()
    rec.stages["verify"] = t2 - t1
    rec.request_ns = t2 - t0
    if not ok:
      rec.failure = "certificate fails verify_certificate after a JSON round trip"
  fired = any(a.step.startswith("screen:") and a.outcome == "fires"
              for a in cert.audit)
  if trace is not None and fired:
    rec.wasted_searches = trace.calls(ESCAPE_SEARCH) - searches
  if w.screen_oracle and rec.failure is None:
    want = oracles.first_screen(item.rows)
    if want is None or (cert.verdict, cert.reason) != ("Proper", want):
      rec.failure = f"screen oracle expects Proper/{want}, got {rec.key}"
  return rec


def _observe(pm, item: Item) -> Record:
  A, cert = item.matrix, item.certificate
  t0 = time.perf_counter_ns()
  probe = pm.witness.probe_mu(A, seed=item.probe_seed, radii=PROBE_RADII)
  dz = pm.keller.is_druzkowski(A)
  replay = None
  if cert.verdict == "NonProper":
    replay = pm.witness.validate_witness(A, cert.witness())
  t1 = time.perf_counter_ns()
  expected = {"Proper": "GrowthObserved", "NonProper": "BoundedObserved"}
  rec = Record(key=f"{cert.verdict}/{cert.reason}/{probe.classification}/"
                   f"unimodular={dz.unimodular}",
               request_ns=t1 - t0, stages={"observe": t1 - t0},
               undecided=not cert.decided,
               numeric=cert.reason.endswith("-numeric"),
               probe_disagree=expected.get(cert.verdict) != probe.classification)
  if replay is not None and not replay.passed:
    rec.failure = "NonProper witness fails validate_witness"
  elif dz.unimodular:
    point = random.Random(item.probe_seed).choices(range(-5, 6), k=len(item.rows))
    if oracles.jacobian_det_at(item.rows, point) != 1:
      rec.failure = f"is_druzkowski says unimodular but det JF{point} != 1"
  return rec


def request(pm, w: Workload, item: Item, trace=None) -> Record:
  """Send one request and check its outputs; exceptions count as failures."""
  start = time.perf_counter_ns()
  try:
    if w.kind == "observe":
      return _observe(pm, item)
    return _decide(pm, w, item, trace)
  except Exception as err:  # noqa: BLE001 - a failed request is a result
    return Record(key="exception", request_ns=time.perf_counter_ns() - start,
                  failure=f"{type(err).__name__}: {err}")
