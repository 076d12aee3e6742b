"""Seeded benchmark of propermap: decide, recheck and observe.

Run from the repository root:

  python3 bench/run.py --workload screen_mix --seed 1 --seconds 25 --trace 0

The package is imported from ./src of the same checkout, never from an
installed copy.  One process, one thread: the BLAS and OpenMP pools numpy
could start are pinned to a single thread before numpy is imported.

With --trace 0 the run measures end-to-end metrics on an untraced closed
loop.  With --trace 1 it runs an untraced pass for half the time, then the
same requests again with every layer wrapped (see spans.py), and reports
per-layer metrics plus the tracing overhead.  Metric names and units come
from BENCHMARK.json at the repository root.  Every line but the last is a
human-readable report; the last line is the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
  os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402  (imported before any timing: it is not the package's)

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("linalg", "hadamard", "certify", "recipes", "witness", "keller",
           "jsonio", "forge")
SETUP_REPEATS = 5
# items built at set-up; the rest of the stream is built during the run,
# outside every request's timer
SETUP_CYCLES = 4
REFERENCE_INTERVAL_NS = 500_000_000
# nominal duration of reference_work, the unit setup_s is expressed in
REFERENCE_S = 0.010


class SetupError(RuntimeError):
  pass


def load_package() -> SimpleNamespace:
  """(Re)import propermap from ./src and return its modules."""
  for name in [n for n in sys.modules
               if n == "propermap" or n.startswith("propermap.")]:
    del sys.modules[name]
  try:
    pkg = importlib.import_module("propermap")
  except ImportError as err:
    raise SetupError(f"cannot import propermap from {SRC}: {err}") from err
  if Path(pkg.__file__).resolve().parent != (SRC / "propermap").resolve():
    raise SetupError(f"propermap was imported from {pkg.__file__}, "
                     f"not from {SRC}")
  return SimpleNamespace(**{m: importlib.import_module(f"propermap.{m}")
                            for m in MODULES})


def set_up(workload, seed: int):
  """Import the package and build the first cycles of the corpus."""
  pm = load_package()
  corpus = workloads.Corpus(workload, seed, pm)
  corpus.build(corpus.prefix_len + SETUP_CYCLES * len(workload.cycle))
  return pm, corpus


def reference_work():
  """Fixed work in the package's mix of exact Fraction elimination and small
  numpy steps, 10-15 ms on one core of a 2-core x86-64 VM.

  Shared hosts change a core's speed by tens of per cent over seconds to
  minutes.  Timing this work between requests, in the same process, gives
  the run's current speed; end-to-end times are reported in units of it.
  """
  for _ in range(8):
    oracles.rank(_REFERENCE_ROWS)
  x = numpy.ones(4)
  for _ in range(600):
    x = numpy.tanh(_REFERENCE_MIX @ x + x ** 3)
  return x


_REFERENCE_ROWS = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4)
                    for j in range(6)] for i in range(6)]
_REFERENCE_MIX = numpy.array([[0.5, -0.25, 0.125, 0.0],
                              [0.25, 0.5, 0.0, -0.125],
                              [0.0, 0.125, 0.5, 0.25],
                              [-0.125, 0.0, 0.25, 0.5]])


def time_reference(since_ns: int) -> float:
  """Mean duration of the reference work, run once per REFERENCE_INTERVAL_NS
  elapsed since `since_ns`, so long requests get as many samples of the
  machine's speed as short ones."""
  blocks = max(1, (time.perf_counter_ns() - since_ns) // REFERENCE_INTERVAL_NS)
  start = time.perf_counter_ns()
  for _ in range(blocks):
    reference_work()
  return (time.perf_counter_ns() - start) / blocks


class Pass:
  """What one pass measured, kept as aggregates so that the benchmark's own
  memory grows by a few array slots per request, whatever the throughput."""

  def __init__(self):
    self.request_ns = array("q")
    self.stage_ns = {stage: array("q") for stage in workloads.STAGES}
    self.histogram = Counter()
    self.counts = Counter()
    self.failures: list[str] = []
    self.wasted_searches = 0
    self.reference_ns = array("d")   # mean duration of the reference work
    self.reference_at = array("q")   # requests done when it ran
    self.wall_ns = 0

  def __len__(self) -> int:
    return len(self.request_ns)

  def add(self, rec) -> None:
    self.request_ns.append(rec.request_ns)
    for stage, ns in rec.stages.items():
      self.stage_ns[stage].append(ns)
    self.histogram[rec.key] += 1
    self.counts.update(undecided=rec.undecided, numeric=rec.numeric,
                       probe_disagree=rec.probe_disagree,
                       failed=rec.failure is not None)
    if rec.failure is not None and len(self.failures) < 10:
      self.failures.append(rec.failure)
    self.wasted_searches += rec.wasted_searches

  def add_reference(self, since_ns: int) -> None:
    self.reference_ns.append(time_reference(since_ns))
    self.reference_at.append(len(self))

  @property
  def ref_ms(self) -> float:
    """Mean duration of the reference work over the pass."""
    return statistics.fmean(self.reference_ns) / 1e6

  def request_refs(self) -> list:
    """Each request's time over the mean of the reference runs just before
    and just after it."""
    out = []
    j = 0
    for i, ns in enumerate(self.request_ns):
      while self.reference_at[j + 1] <= i:
        j += 1
      out.append(ns / ((self.reference_ns[j] + self.reference_ns[j + 1]) / 2))
    return out

  def shares(self) -> dict:
    n = len(self)
    return {f"{name}_share": self.counts[name] / n
            for name in ("undecided", "numeric", "failed", "probe_disagree")}


def run_pass(pm, corpus, seconds: float | None = None, count: int | None = None,
             trace=None) -> Pass:
  """Closed loop with one caller: next request after the previous one.

  Stops after `count` requests, or at the first cycle boundary once
  `seconds` have passed.  The reference work runs at the start, at the end
  and between requests once REFERENCE_INTERVAL_NS has passed, outside every
  request's timer.
  """
  run = Pass()
  gc.collect()
  start = time.perf_counter_ns()
  run.add_reference(start)
  last_reference = time.perf_counter_ns()
  while True:
    run.add(workloads.request(pm, corpus.workload, corpus.take(len(run)),
                              trace))
    n = len(run)
    now = time.perf_counter_ns()
    if count is not None:
      if n == count:
        break
    elif corpus.at_boundary(n) and now - start >= seconds * 1e9:
      break
    if now - last_reference >= REFERENCE_INTERVAL_NS:
      run.add_reference(last_reference)
      last_reference = time.perf_counter_ns()
  run.add_reference(last_reference)
  run.wall_ns = time.perf_counter_ns() - start
  return run


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def timing(values_ns) -> dict:
  """Throughput (per second of request time), median and p90 in ms."""
  t = quantiles([v / 1e6 for v in values_ns])
  return {"per_s": 1e3 / t["mean"], "p50_ms": t["p50"], "p90_ms": t["p90"],
          "samples": t["samples"]}


def quantiles(values) -> dict:
  p90 = (statistics.quantiles(values, n=10, method="inclusive")[8]
         if len(values) > 1 else values[0])
  return {"mean": statistics.fmean(values), "p50": statistics.median(values),
          "p90": p90, "samples": len(values)}


def stage_metrics(run: Pass) -> dict:
  """Raw times of the whole request and of each stage the workload runs."""
  out = {}
  samples = {"request": run.request_ns, **run.stage_ns}
  for stage, values in samples.items():
    if values:
      t = timing(values)
      for key, unit in (("per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms")):
        out[f"{stage}_{key}"] = {"value": t[key], "unit": unit,
                                 "samples": t["samples"]}
  for name, value in run.shares().items():
    out[name] = {"value": value, "unit": "ratio", "samples": len(run)}
  return out


def end_to_end(run: Pass, setup_s: float) -> dict:
  """Request times in units of the reference work (see reference_work)."""
  t = quantiles(run.request_refs())
  return {"setup_s": setup_s,
          "request_rate_ref": 1.0 / t["mean"],
          "request_p50_ref": t["p50"],
          "request_p90_ref": t["p90"],
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(trace, traced: Pass, untraced: Pass, duplicate_share) -> dict:
  """Per-request layer metrics of the traced pass, by metric name."""
  n = len(traced)
  out = {"trace.overhead_ratio":
         sum(traced.request_refs()) / sum(untraced.request_refs()) - 1.0,
         "linalg.max_coeff_bits": trace.max_coeff_bits,
         "outcome.duplicate_share": duplicate_share}
  searches = trace.calls(workloads.ESCAPE_SEARCH)
  out["certify.escape_search_wasted_ratio"] = (
    traced.wasted_searches / searches if searches else 0.0)
  roots = trace.calls("hadamard.rational_cube_root_direction")
  out["hadamard.rational_cube_root_direction.hit_ratio"] = (
    trace.cube_root_hits / roots if roots else 0.0)
  layer_ns = Counter()
  for name, (calls, self_ns) in trace.stats.items():
    out[f"{name}.calls"] = calls / n
    out[f"{name}.self_ms"] = self_ns / 1e6 / n
    layer_ns[name.split(".")[0]] += self_ns
  for layer in spans.LAYERS:
    out[f"{layer}.self_ms"] = layer_ns[layer] / 1e6 / n
  out["bench.residual_ms"] = (traced.wall_ns - sum(layer_ns.values())) / 1e6 / n
  for name, value in traced.shares().items():
    out[f"outcome.{name}"] = value
  return out


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
  """HEAD of the checkout when it is a git work tree; read, not executed."""
  git = ROOT / ".git"
  try:
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
      return head
    ref = head[5:]
    if (git / ref).is_file():
      return (git / ref).read_text().strip()
    for line in (git / "packed-refs").read_text().splitlines():
      if line.endswith(" " + ref):
        return line.split()[0]
  except OSError:
    pass
  return None


def environment(args) -> dict:
  return {"python": platform.python_version(),
          "numpy": numpy.__version__,
          "machine": platform.machine(),
          "nproc": os.cpu_count(),
          "cpus_usable": len(os.sched_getaffinity(0)),
          "threads": {v: os.environ[v] for v in THREAD_VARS},
          "git_commit": git_commit(),
          "workload": args.workload, "seed": args.seed,
          "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared_metrics() -> dict:
  with open(ROOT / "BENCHMARK.json") as fh:
    spec = json.load(fh)
  return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
          "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
  parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  parser.add_argument("--workload", required=True,
                      choices=sorted(workloads.WORKLOADS))
  parser.add_argument("--seed", type=int, required=True)
  parser.add_argument("--seconds", type=float, required=True,
                      help="measuring time; 0 runs a single cycle")
  parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
  args = parser.parse_args(argv)
  workload = workloads.WORKLOADS[args.workload]
  sys.path.insert(0, str(SRC))

  try:
    declared = declared_metrics()
    setup_times, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
      # free the previous set-up first: collecting its garbage, or paging in
      # fresh memory beside it, is not part of this set-up
      gc.collect()
      before = time_reference(time.perf_counter_ns())
      start = time.perf_counter_ns()
      pm, corpus = set_up(workload, args.seed)
      elapsed = time.perf_counter_ns() - start
      after = time_reference(time.perf_counter_ns())
      setup_times.append(elapsed / 1e9)
      setup_refs.append(elapsed / ((before + after) / 2))
  except (SetupError, OSError, ValueError, KeyError) as err:
    print(f"set-up failed: {err}", file=sys.stderr)
    return 2
  # like request times, set-up times are taken against the reference work;
  # REFERENCE_S converts that back to seconds at a fixed reference speed
  setup_s = statistics.median(setup_refs) * REFERENCE_S

  report = {"environment": environment(args),
            "setup_s": {"median": setup_s, "raw_s": setup_times}}
  checks = []
  if args.trace:
    corpus.retain = True    # the traced pass replays the untraced one
    untraced = run_pass(pm, corpus, seconds=args.seconds / 2)
    with spans.LayerTrace(workloads.BENCH_SPANS) as trace:
      run = run_pass(pm, corpus, count=len(untraced), trace=trace)
    passes = (untraced, run)
    values = per_layer(trace, run, untraced, corpus.duplicate_share())
    wanted = declared["per_layer"]
    closes = (sum(s for _, s in trace.stats.values()) + trace.hook_ns
              == trace.top_ns) and values["bench.residual_ms"] >= 0
    checks = [("traced and untraced histograms are identical",
               untraced.histogram == run.histogram),
              ("layer self times plus residual equal the traced wall time",
               closes)]
  else:
    run = run_pass(pm, corpus, seconds=args.seconds)
    passes = (run,)
    values = end_to_end(run, setup_s)
    wanted = declared["end_to_end"]
  missing = sorted(set(wanted) - set(values))
  checks.append((f"every declared metric is measured (missing: {missing})",
                 not missing))

  failed = sum(p.counts["failed"] for p in passes)
  report.update({
    "requests": len(run),
    "pass_wall_s": run.wall_ns / 1e9,
    "reference_ms": {"mean": run.ref_ms, "samples": len(run.reference_ns)},
    "duplicate_share": corpus.duplicate_share(),
    "histogram": dict(sorted(run.histogram.items())),
    "strata": dict(sorted(corpus.strata.items())),
    "stage_metrics": stage_metrics(run),
    "checks": {name: ok for name, ok in checks},
    "failures": [f for p in passes for f in p.failures][:10],
  })
  if args.trace:
    report["layer_metrics_all"] = values
  print(json.dumps({"report": report}, indent=1, sort_keys=True))
  result = {"correct": not failed and all(ok for _, ok in checks),
            "attempted": sum(len(p) for p in passes),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in wanted.items() if name in values}}
  print(json.dumps(result))
  return 0


if __name__ == "__main__":
  sys.exit(main())
