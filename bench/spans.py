"""Per-layer trace of propermap, taken from outside the package.

`LayerTrace` wraps every public function of each layer module, in every
namespace that bound it (`certify` holds its own references to `rank`,
`kernel_basis` and others through `from .linalg import ...`), plus the
`RatMatrix.gram` method.  Each wrapper records calls and self time: the
span's duration minus the durations of the spans it caused.  Leaving the
`with` block restores every patched name.

Nothing here changes what a wrapped function computes; the benchmark checks
that by comparing verdict histograms of a traced and an untraced pass over
the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("linalg", "hadamard", "certify", "recipes", "witness", "keller",
          "jsonio")
# methods traced besides the module-level public functions: (module, class, name)
METHODS = (("linalg", "RatMatrix", "gram"),)


def _coeff_bits(rows) -> int:
  """Largest numerator or denominator bit length among rational entries."""
  best = 0
  for row in rows:
    for q in row:
      best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
  return best


class LayerTrace:
  """Aggregated spans for one traced pass.

  `stats[name]` is `[calls, self_ns]`; names are `<layer>.<function>`.
  `top_ns` is the summed duration of spans entered with no open span, so
  the self times of all names plus `hook_ns` add up to it exactly.
  """

  def __init__(self, span_names=()):
    # benchmark-side span names are listed up front so they report zero
    # counts on workloads that never open them
    self.stats: dict[str, list[int]] = {name: [0, 0] for name in span_names}
    self.top_ns = 0
    self.hook_ns = 0
    self.max_coeff_bits = 0
    self.cube_root_hits = 0
    self._stack: list[int] = []
    self._patched: list[tuple[object, str, object]] = []
    self._hooks = {
      "linalg.rref": self._rref_hook,
      "linalg.rank": self._rank_hook,
      "hadamard.rational_cube_root_direction": self._cube_root_hook,
    }

  def calls(self, name: str) -> int:
    return self.stats.get(name, (0, 0))[0]

  # ---- counters measured at the layer boundary --------------------------

  def _rref_hook(self, args, result):
    reduced, _ = result
    self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(args[0]),
                              _coeff_bits(reduced))

  def _rank_hook(self, args, result):
    self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(args[0].rows))

  def _cube_root_hook(self, args, result):
    if result is not None:
      self.cube_root_hits += 1

  # ---- spans ------------------------------------------------------------

  def _close(self, stat, start: int) -> None:
    elapsed = time.perf_counter_ns() - start
    child = self._stack.pop()
    stat[0] += 1
    stat[1] += elapsed - child
    if self._stack:
      self._stack[-1] += elapsed
    else:
      self.top_ns += elapsed

  def _run_hook(self, hook, args, result) -> None:
    # hook time is benchmark work: keep it out of the enclosing span's self
    start = time.perf_counter_ns()
    hook(args, result)
    spent = time.perf_counter_ns() - start
    self.hook_ns += spent
    if self._stack:
      self._stack[-1] += spent
    else:
      self.top_ns += spent

  def wrap(self, name: str, fn):
    stat = self.stats.setdefault(name, [0, 0])
    hook = self._hooks.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
      self._stack.append(0)
      start = time.perf_counter_ns()
      try:
        result = fn(*args, **kwargs)
      finally:
        self._close(stat, start)
      if hook is not None:
        self._run_hook(hook, args, result)
      return result

    return traced

  @contextmanager
  def span(self, name: str):
    """A benchmark-side span, for work made of several layer calls."""
    stat = self.stats.setdefault(name, [0, 0])
    self._stack.append(0)
    start = time.perf_counter_ns()
    try:
      yield
    finally:
      self._close(stat, start)

  # ---- patching ---------------------------------------------------------

  def install(self) -> None:
    """Wrap the layers' public functions wherever the package bound them."""
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
      mod = sys.modules[f"propermap.{layer}"]
      for attr, value in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
            and value.__module__ == mod.__name__):
          wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "propermap" or n.startswith("propermap.")]
    for ns in namespaces:
      for attr, value in list(vars(ns).items()):
        wrapper = wrappers.get(id(value))
        if wrapper is not None:
          self._patch(ns, attr, wrapper)
    for layer, cls_name, attr in METHODS:
      cls = getattr(sys.modules[f"propermap.{layer}"], cls_name)
      self._patch(cls, attr, self.wrap(f"{layer}.{attr}", vars(cls)[attr]))

  def _patch(self, owner, attr: str, value) -> None:
    self._patched.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, value)

  def restore(self) -> None:
    while self._patched:
      owner, attr, original = self._patched.pop()
      setattr(owner, attr, original)

  def __enter__(self):
    self.install()
    return self

  def __exit__(self, *exc):
    self.restore()
    return False
