"""In-memory spans around calls into qsynapse's public layer functions.

Each span wraps a function at the name its caller uses (for example
``qsynapse.harness.simulate_network``), so the program itself is not
changed.  A span records its name, layer, op id, parent span, start and
end, and a work count read from the call's arguments or result.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

_CSV_WRITERS = ("write_trace_csv", "write_quantum_csv", "write_calibration_csv")


def _spikes(args, result):
    return len(result)


def _lif(args, result):
    return {"neuron_steps": result.n_steps * result.v.shape[1],
            "crossings": int(result.spike_times.size)}


def _windows(args, result):
    traj, qcfg = args[0], args[1]
    stride = int(round(qcfg.window_ms / traj.dt_ms))
    degenerate = sum(1 for r in result if r.degenerate)
    return {"circuit_steps": (len(result) - degenerate) * stride,
            "degenerate_windows": degenerate}


def _shots(args, result):
    return args[1]


def _csv_bytes(args, result):
    return os.path.getsize(args[-1])


# (module, attribute, layer key, count function)
TARGETS = (
    ("qsynapse.cli", "load_config", "scenario.load", None),
    ("qsynapse.cli", "run_scenario", "harness.self", None),
    ("qsynapse.cli", "run_fusion_demo", "harness.self", None),
    ("qsynapse.cli", "write_fusion_csv", "harness.csv", _csv_bytes),
    ("qsynapse.harness", "generate_poisson", "spikes.generate", _spikes),
    ("qsynapse.harness", "merge_trains", "spikes.merge", None),
    ("qsynapse.harness", "simulate_network", "lif.simulate", _lif),
    ("qsynapse.harness", "window_crossings", "lif.readout", None),
    ("qsynapse.harness", "measure_firing_probability", "lif.readout", None),
    ("qsynapse.calibration", "measure_firing_probability", "lif.readout", None),
    ("qsynapse.harness", "run_quantum_windows", "synapse.windows", _windows),
    ("qsynapse.harness", "settle_circuit", "synapse.settle", None),
    ("qsynapse.calibration", "settle_circuit", "synapse.settle", None),
    ("qsynapse.harness", "measure", "engine.measure", _shots),
    ("qsynapse.calibration", "measure", "engine.measure", _shots),
    ("qsynapse.harness", "calibrate", "calibration.calibrate", None),
) + tuple(("qsynapse.harness", name, "harness.csv", _csv_bytes) for name in _CSV_WRITERS)

ROOT = "qsynapse.cli.main"


class Tracer:
    """Records spans while installed; ``op`` tags every span with its op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name: str, layer: str, fn, count):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "layer": layer, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": perf_counter(), "end": None, "count": None}
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if count is not None:
                span["count"] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, layer, count in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", layer, orig, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def call(self, op: int, fn, *args):
        """Run one op under the root span ``qsynapse.cli.main``."""
        self.op = op
        return self._wrap(ROOT, "cli.self", fn, None)(*args)


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
