"""Spans around the program's public functions, for the traced run.

`Tracer.install` replaces each traced function with a wrapper in every
spintex module that holds it (and on the class, for methods), so calls
through imported names are seen too.  Spans stay in memory as
[name, start, end, parent, run id, work] rows and are written out when
the run ends.  Nothing in the program changes; `uninstall` restores it.
"""

import json
import os
import sys
import time

# module, attribute path, work measured per call
TRACED = (
    ("runner", "run_simulate", None),
    ("runner", "run_sweep_kappa", None),
    ("runner", "analyze_run", None),
    ("runner", "build_evolver", None),
    ("runner", "initial_field", None),
    ("dynamics", "evolve", None),
    ("dynamics", "Evolver.step", None),
    ("dynamics", "Evolver.energy_per_atom", None),
    ("field", "zeeman_like_apply", "sites"),
    ("field", "rotate_spinor", None),
    ("field", "spin_density", None),
    ("dipole", "interaction_kernel", None),
    ("dipole", "DipolarCoupling.field_of", None),
    ("analysis", "power_spectrum", None),
    ("analysis", "order_parameters", None),
    ("analysis", "detect_vortices", None),
    ("analysis", "growth_rate", None),
    ("io_text", "write_snapshot", "bytes_out"),
    ("io_text", "read_snapshot", "bytes_in"),
    ("io_text", "write_timeseries", None),
)


def span_name(module: str, attr: str) -> str:
    """Layer-qualified name: dynamics.Evolver.step -> dynamics.step."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, run_id, work]
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self.run_id = 0

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.run_id, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, work: int = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = work
        self._stack.pop()

    def _wrap(self, name: str, fn, work: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            done = 0
            try:
                if work == "bytes_in":
                    done = os.path.getsize(args[0])
                out = fn(*args, **kwargs)
                if work == "sites":
                    done = args[0].shape[-2] * args[0].shape[-1]
                elif work == "bytes_out":
                    done = os.path.getsize(args[0])
                return out
            finally:
                tracer.close(idx, done)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spintex" or name.startswith("spintex.")]
        for mod_name, attr, work in TRACED:
            owner = sys.modules[f"spintex.{mod_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(span_name(mod_name, attr), original, work)
            self._patch(owner, leaf, wrapper)
            if path:
                continue
            # every module that imported the function by name
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original and mod is not owner:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "run_id", "work")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so their covered
    time is the sum of their durations.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_totals(spans: list) -> dict:
    """name -> {calls, s, self_s, work} summed over all spans of that name."""
    own = self_times(spans)
    out = {}
    for span, self_s in zip(spans, own):
        row = out.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "work": 0})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += self_s
        row["work"] += span[5]
    return out
