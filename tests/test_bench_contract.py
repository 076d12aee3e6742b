"""The benchmark's declared call counts name spans its trace opens.

`bench/run.py` reports `<name>.calls` only for names the trace recorded, so
a declared count whose function was renamed or deleted would show only as
an incorrect traced bench run.  The names come from the bench's own
`LayerTrace` and `BENCH_SPANS`, imported from `bench/`.
"""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_declared_call_count_names_a_traced_span(monkeypatch):
  monkeypatch.syspath_prepend(str(ROOT / "bench"))
  spans = importlib.import_module("spans")
  workloads = importlib.import_module("workloads")
  for layer in spans.LAYERS:
    importlib.import_module(f"propermap.{layer}")
  declared = [m["name"].removesuffix(".calls")
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())
              ["per_layer"] if m["name"].endswith(".calls")]
  assert declared
  with spans.LayerTrace(workloads.BENCH_SPANS) as trace:
    traced = set(trace.stats)
  missing = [name for name in declared if name not in traced]
  assert not missing, f"declared call counts with no traced span: {missing}"
