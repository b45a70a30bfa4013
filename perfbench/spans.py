"""In-memory span tracing of the atombench package, installed from outside.

`Tracer.install` replaces the functions and methods of each package module
with wrappers that record a span per call: its name, start, end and the span
that caused it.  Nothing in the package changes; the wrappers are removed by
`Tracer.uninstall`.  A span's self time is its duration minus the time its
child spans cover.  Spans are kept in flat arrays and written out once, when
the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import statistics
import time
from array import array

# Modules whose functions are traced, in the order the layers are reported.
MODULES = ("bench", "circuit", "routing", "channels", "gatemodel", "state",
           "runner", "metrics", "fit")

# Private names traced as well, because a per-layer metric is built on them:
# the invariant check, the per-call superoperator and leakage rebuild, the
# SWAP emitter and the CPTP check run on every Kraus set built.
PRIVATE = {
    "state": ("QuquartState._check_invariants", "_superop_1site",
              "_superop_2site", "_leakage_1site", "_leakage_2site",
              "_validate_site_unitary"),
    "routing": ("_swap_native_ops",),
    "channels": ("KrausSet.__post_init__",),
}


def _n_sites(args) -> int:
    return args[0].n_sites


# Spans of these state methods carry a label naming the kernel and the
# register size, so per-call times can be reported at each n.
LABELS = {
    "state.QuquartState.apply_channel":
        lambda args: f"{len(args[1])}site.n{_n_sites(args)}",
    "state.QuquartState.apply_global_unitary":
        lambda args: f"global.n{_n_sites(args)}",
    "state.QuquartState._check_invariants":
        lambda args: f"invariant.n{_n_sites(args)}",
}

# A span in this family excludes the time of nested spans of the same family,
# so that idle decoherence applied inside a gate is reported as its own bucket.
FAMILY_PREFIX = "gatemodel.apply_"

# Spans stored before the arrays grow.  Growing them during a pass frees
# large blocks, which raises glibc's mmap and trim thresholds and so changes
# how the package's own state buffers are allocated.
SPAN_CAPACITY = 1 << 20


def _traceable(name: str, private: tuple, qualname: str) -> bool:
    return not name.startswith("_") or qualname in private


class Tracer:
    """Collects spans from wrapped package functions."""

    def __init__(self):
        self.key_ids: dict = {}          # (name, label) -> key id
        self.keys: list = []             # key id -> (name, label)
        self.family: list = []           # key id -> bool
        self.calls: list = []            # key id -> number of calls
        self.self_s: list = []           # key id -> summed self time
        self.incl_s: list = []           # key id -> summed duration
        self.fam_s: list = []            # key id -> duration less nested family
        self.per_call: dict = {}         # labelled key id -> (self times, durations)
        self.span_key = array("i", [0]) * SPAN_CAPACITY
        self.span_parent = array("i", [0]) * SPAN_CAPACITY
        self.span_start = array("d", [0.0]) * SPAN_CAPACITY
        self.span_end = array("d", [0.0]) * SPAN_CAPACITY
        self.n_spans = 0
        self.stack: list = []            # open frames [index, key, start, child, fam_child]
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _key(self, name: str, label: str) -> int:
        k = self.key_ids.get((name, label))
        if k is None:
            k = len(self.keys)
            self.key_ids[(name, label)] = k
            self.keys.append((name, label))
            self.family.append(name.startswith(FAMILY_PREFIX))
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.fam_s.append(0.0)
            if label:
                self.per_call[k] = ([], [])
        return k

    def _close(self, frame: list, end: float):
        index, key, start, child, fam_child = frame
        dur = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        self_time = dur - child
        self.calls[key] += 1
        self.self_s[key] += self_time
        self.incl_s[key] += dur
        per_call = self.per_call.get(key)
        if per_call is not None:
            per_call[0].append(self_time)
            per_call[1].append(dur)
        family = self.family[key]
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent[3] += dur
            if family and self.family[parent[1]]:
                parent[4] += dur
        if family:
            self.fam_s[key] += dur - fam_child

    def _wrap(self, name: str, fn):
        label_of = LABELS.get(name)
        plain = self._key(name, "")
        by_label: dict = {}
        stack = self.stack
        span_key = self.span_key
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if label_of is None:
                key = plain
            else:
                label = label_of(args)
                key = by_label.get(label)
                if key is None:
                    key = by_label[label] = self._key(name, label)
            index = self.n_spans
            if index == len(span_key):
                for arr in (span_key, span_parent, span_start, span_end):
                    arr.extend(arr[:1] * SPAN_CAPACITY)
            self.n_spans = index + 1
            span_key[index] = key
            span_parent[index] = stack[-1][0] if stack else -1
            frame = [index, key, 0.0, 0.0, 0.0]
            stack.append(frame)
            frame[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self, package: str = "atombench"):
        """Wrap every traced function of `package`, wherever it is bound."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [importlib.import_module(package)] + list(modules.values())
        wrapped: dict = {}                      # id(original) -> wrapper
        for short, mod in modules.items():
            private = PRIVATE.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if _traceable(attr, private, attr):
                        wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj, private)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])

    def _install_class(self, short: str, cls, private: tuple):
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if not _traceable(attr, private, qual):
                continue
            name = f"{short}.{qual}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue                         # properties, constants
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- queries -------------------------------------------------------------

    def _sum(self, values: list, pred) -> float:
        return sum(v for k, v in enumerate(values) if pred(self.keys[k][0]))

    def self_time(self, pred) -> float:
        return self._sum(self.self_s, pred)

    def inclusive(self, name: str) -> float:
        return self._sum(self.incl_s, lambda n: n == name)

    def family_time(self, name: str) -> float:
        return self._sum(self.fam_s, lambda n: n == name)

    def count(self, pred) -> int:
        return int(self._sum(self.calls, pred))

    def counts(self) -> dict:
        """Exact call count of every traced function and label that ran."""
        return {f"{name}[{label}]" if label else name: self.calls[k]
                for k, (name, label) in enumerate(self.keys) if self.calls[k]}

    def median_per_call(self, name: str, label: str, inclusive: bool) -> float:
        """Median self time (or duration) per call of a labelled span; 0 if
        there was no such call."""
        k = self.key_ids.get((name, label))
        if k is None or not self.per_call[k][0]:
            return 0.0
        return statistics.median(self.per_call[k][inclusive])

    def labels(self, name: str) -> list:
        return [label for (n, label) in self.keys if n == name and label]

    def write(self, path):
        """Write every span as CSV rows: name, label, parent, start_us, dur_us."""
        if not self.n_spans:
            return
        t0 = self.span_start[0]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,label,parent,start_us,dur_us\n")
            for i in range(self.n_spans):
                name, label = self.keys[self.span_key[i]]
                start = self.span_start[i]
                fh.write(f"{i},{name},{label},{self.span_parent[i]},"
                         f"{(start - t0) * 1e6:.1f},"
                         f"{(self.span_end[i] - start) * 1e6:.1f}\n")
