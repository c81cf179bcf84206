"""Spans recorded from outside the solver.

For the length of a traced run, ``Tracer.patched`` replaces the module
attributes through which ``solve_once`` and ``kgma_run`` reach each layer
with wrappers that record one span per call: name, start, end, parent
span and solve id.  Spans stay in memory until the run ends.  A name that
no longer exists is reported as unmeasured and left alone, so its time
falls into the self time of its caller.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, what to keep from the return value)
TARGETS = (
    ("carptdsc.harness", "kgma_run", None),
    ("carptdsc.harness", "stage2", None),
    ("carptdsc.memetic", "kgis_population", lambda r: r[1]),
    ("carptdsc.memetic", "sbx_crossover", None),
    ("carptdsc.memetic", "_kgslss_state", lambda r: r[1]),
    ("carptdsc.memetic", "merge_split", None),
    ("carptdsc.memetic", "evaluate_solution", None),
    ("carptdsc.memetic", "stochastic_rank", None),
    ("carptdsc.departure", "gss", None),
    ("carptdsc.departure", "ncs", None),
)


class Tracer:
    """In-memory span log.  Span ids are indices into ``spans``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent id, solve id, info]
        self.unmeasured = []
        self.solve_id = None
        self._stack = []

    @contextmanager
    def span(self, name, info_of=None):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, info_of):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    rec[5] = info_of(result)
                return result
        return traced

    @contextmanager
    def patched(self):
        """Wrap every reachable target; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, info_of in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.unmeasured.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(attr, fn, info_of))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def per_solve(self):
        """{solve id: {span name: [calls, inclusive s, self s, infos]}}."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, sid, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, []]))
        for i, (name, t0, t1, parent, sid, info) in enumerate(self.spans):
            agg = out[sid][name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child_time[i]
            if info is not None:
                agg[3].append(info)
        return out

    def write(self, path):
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, sid, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "solve": sid, "info": info}) + "\n")
