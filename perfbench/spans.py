"""Spans around the public functions of every spectral_decay module.

The wrappers are installed from outside the package: every module-level
name (and every module-level dict value) that refers to a traced
function is rebound, because modules such as bands, decay, verify and
cli import discriminant and friends by name.  scipy's solve_ivp is
rebound where ode imported it, and numpy.linalg.eigvalsh on numpy
itself.  uninstall() restores the originals, so untraced and traced
runs of the same job alternate in one process.

Each span records (name, start, end, parent, job) in flat arrays; self
time is the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

import numpy as np

# Called once per constant piece or per ODE right-hand-side evaluation;
# their cost stays in the self time of the span that calls them.
HOT_LEAVES = {"ode.constant_transfer", "ode.constant_transfer_dlam",
              "ode.dirac_coefficient", "symbols.symbol", "floquet.multiplicator"}

BS = "gap.birman_schwinger_spectrum"


class Tracer:
    """Spans, per-name calls and self times, and a few counts of a run."""

    def __init__(self, package):
        self.names = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_id = array("i")
        self.stack = []
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.peak_alloc = 0
        self.job = -1
        self._mods, targets = self._targets(package)
        self._patches = self._bind({i: self._wrap(name, fn) for i, (name, fn) in targets.items()})
        self._patches.append((vars(np.linalg), "eigvalsh", np.linalg.eigvalsh,
                              self._wrap("numpy.eigvalsh", np.linalg.eigvalsh)))
        bs = next(fn for name, fn in targets.values() if name == BS)
        self._alloc_patches = self._bind({id(bs): self._alloc_wrap(bs)})

    # -- installation ---------------------------------------------------

    @staticmethod
    def _targets(package):
        """The package's modules and {id(function): (span name, function)}."""
        from spectral_decay import ode, verify
        mods = [m for n, m in sorted(sys.modules.items())
                if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and f"{short}.{name}" not in HOT_LEAVES):
                    targets[id(fn)] = (f"{short}.{name}", fn)
        for key, fn in verify._RUNNERS.items():
            targets[id(fn)] = (f"verify.suite.{key}", fn)
        targets[id(ode.solve_ivp)] = ("scipy.solve_ivp", ode.solve_ivp)
        return mods, targets

    def _bind(self, wrappers):
        """(namespace, key, original, wrapper) for every binding of a target."""
        patches = []
        for mod in self._mods:
            for ns in [vars(mod)] + [d for d in vars(mod).values()
                                     if isinstance(d, dict) and d is not vars(mod)]:
                for key, val in list(ns.items()):
                    if callable(val) and id(val) in wrappers:
                        patches.append((ns, key, val, wrappers[id(val)]))
        return patches

    def install(self, patches=None):
        for ns, key, _, wrapper in self._patches if patches is None else patches:
            ns[key] = wrapper

    def uninstall(self, patches=None):
        for ns, key, orig, _ in self._patches if patches is None else patches:
            ns[key] = orig

    # -- allocation -----------------------------------------------------

    def _alloc_wrap(self, fn):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_alloc = max(self.peak_alloc, peak)
        return wrapper

    def measure_alloc(self, run):
        """Run once more under tracemalloc to record the Birman-Schwinger
        solve's own peak allocation.  tracemalloc slows every allocation,
        so it stays out of the traced run whose self times are reported."""
        self.install(self._alloc_patches)
        tracemalloc.start()
        try:
            run()
        finally:
            tracemalloc.stop()
            self.uninstall(self._alloc_patches)

    # -- spans ----------------------------------------------------------

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.start)
        self.name_id.append(self.names.setdefault(name, len(self.names)))
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.job_id.append(self.job)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            self.start[idx], self.end[idx] = t0, t1
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
        self._record(name, out, args)
        return out

    def _record(self, name, out, args):
        if name == "scipy.solve_ivp":
            self.counts["scipy.solve_ivp.nfev"] += int(out.nfev)
        elif name == "floquet.floquet_values":
            self.counts["floquet.floquet_values.points"] += len(args[2])
        elif name == BS:
            self.counts["gap.bs.grid_points"] += int(out.grid_size)
        elif name == "bands.band_edges":
            self.counts["bands.edges"] += len(out.edges)
        elif name == "dirac.dirac_gap_eigenvalues":
            self.counts["dirac.roots"] += len(out)

    # -- summaries ------------------------------------------------------

    def nested(self, name, ancestor):
        """(count, total seconds) of `name` spans inside an `ancestor` span."""
        want, anc = self.names.get(name), self.names.get(ancestor)
        n, s = 0, 0.0
        for i, nid in enumerate(self.name_id):
            if nid != want:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != anc:
                p = self.parent[p]
            if p >= 0:
                n += 1
                s += self.end[i] - self.start[i]
        return n, s

    def write(self, path):
        """Spans as arrays; span i has name names[name_id[i]]."""
        np.savez_compressed(path, names=np.array(list(self.names)),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            job=np.frombuffer(self.job_id, dtype=np.int32))
