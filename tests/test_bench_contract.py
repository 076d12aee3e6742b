"""The benchmark's declared call counts name spans its trace opens, and its
trace sees the package's eliminations.

`bench/run.py` reports `<name>.calls` only for names the trace recorded, so
a declared count whose function was renamed or deleted would show only as
an incorrect traced bench run, and an elimination moved behind a private
name would read 0 calls.  The names come from the bench's own `LayerTrace`
and `BENCH_SPANS`, imported from `bench/`.
"""

import importlib
import json
from pathlib import Path

from propermap import jsonio
from propermap.certify import certify, verify_certificate
from propermap.forge import golden_3x3

ROOT = Path(__file__).resolve().parent.parent


def _bench_modules(monkeypatch):
  """The bench's `spans` and `workloads`, with every traced layer loaded."""
  monkeypatch.syspath_prepend(str(ROOT / "bench"))
  spans = importlib.import_module("spans")
  for layer in spans.LAYERS:
    importlib.import_module(f"propermap.{layer}")
  return spans, importlib.import_module("workloads")


def test_every_declared_call_count_names_a_traced_span(monkeypatch):
  spans, workloads = _bench_modules(monkeypatch)
  declared = [m["name"].removesuffix(".calls")
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())
              ["per_layer"] if m["name"].endswith(".calls")]
  assert declared
  with spans.LayerTrace(workloads.BENCH_SPANS) as trace:
    traced = set(trace.stats)
  missing = [name for name in declared if name not in traced]
  assert not missing, f"declared call counts with no traced span: {missing}"


def test_the_trace_sees_every_elimination(monkeypatch):
  # certify, JSON round trip and verify, as a bench request runs them: the
  # seven eliminations `test_elimination_budget_of_a_request` pins for
  # golden_3x3 all go through the public `linalg.rref`
  spans, workloads = _bench_modules(monkeypatch)
  A = golden_3x3()
  with spans.LayerTrace(workloads.BENCH_SPANS) as trace:
    cert = certify(A)
    back = jsonio.certificate_from_json(
      json.loads(jsonio.dumps(jsonio.certificate_to_json(cert))))
    assert verify_certificate(A, back)
  assert trace.calls("linalg.rref") == 7
  assert trace.max_coeff_bits > 0
