"""Span tracing of relcat from outside the package.

`Tracer.install()` wraps every public function and every public method of
the classes defined in each relcat module, plus `__init__` and the
arithmetic operators, reported as `init`, `mul` and so on.  A wrapper is
bound where the function is defined and in every module that bound the
same object with `from ... import ...`, because a call through such a
name never looks at the defining module.

Each call is a span with a parent.  Self time is the span's duration minus
the durations of its child spans, kept on a stack, so recursive functions
(`eval_formal`, `term_apply`, `det_poly`) are not counted twice.  Spans are
kept in memory and written out by `dump()` when the run ends.  The methods
of the arithmetic classes in `LEAF_CLASSES` run hundreds of thousands of
times per job; they are counted and timed like every other span, but their
spans are not stored.  Only spans at layer boundaries are stored: a call
into the module of its nearest stored ancestor (the recursion of
`det_poly`, `eval_formal` and `term_apply`, or `term_apply` reaching
`FrobeniusData.swap`) is timed and counted in place, and its children
hang from that ancestor.  So memory stays small.

For the functions in `REPEAT_KEYS` the tracer also hashes each call's input
and reports `repeat_frac = 1 - distinct inputs / calls` over the run: the
share of calls a cache keyed on that input could answer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
from array import array
from time import perf_counter

PACKAGE = "relcat"
LEAF_CLASSES = {"field.Fq", "poly.PolyQ"}
OPERATORS = {"__init__", "__add__", "__sub__", "__mul__", "__neg__"}
MAX_SPANS = 300_000

# input key of each function whose repeat share is reported
REPEAT_KEYS = {
    "matrix.MatFq.rref": lambda self: self,
    "relations.star": lambda r, s: (r, s),
    "concrete.f_r_matrix": lambda rel, n: (rel, n),
    # every structure the suites build is a standard target, which is fixed
    # by its field and dimension
    "frobenius.hat_f": lambda data, rel: (data.field, data.dim, data.has_unit, rel),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.inputs: dict[str, set] = {}  # name -> hashes of distinct inputs
        self.job_self: list[dict[str, float]] = []  # per job: module -> self_s
        self.names: list[str] = []  # span name id -> function name
        self.span_name = array("i")
        self.span_module = array("i")
        self.module_ids: dict[str, int] = {}
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.spans_dropped = 0
        # one frame per open span: [child seconds, index of the nearest
        # stored span at or above it, or -1 at the root]
        self._stack = [[0.0, -1]]
        self._job = -1
        self._module_self: dict[str, float] = {}

    # -- per-job bookkeeping ---------------------------------------------

    def start_job(self):
        self._job += 1
        self._module_self = {}
        self.job_self.append(self._module_self)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, store: bool):
        stat = self.stats.setdefault(name, [0, 0.0])
        module = name.split(".", 1)[0]
        key = REPEAT_KEYS.get(name)
        seen = self.inputs.setdefault(name, set()) if key else None
        name_id = len(self.names)
        self.names.append(name)
        module_id = self.module_ids.setdefault(module, len(self.module_ids))
        tracer = self
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(hash(key(*args, **kwargs)))
            parent = stack[-1][1]
            idx = -1
            if store and (parent < 0 or tracer.span_module[parent] != module_id):
                if len(tracer.span_dur) < MAX_SPANS:
                    idx = len(tracer.span_dur)
                    tracer.span_name.append(name_id)
                    tracer.span_module.append(module_id)
                    tracer.span_parent.append(parent)
                    tracer.span_job.append(tracer._job)
                    tracer.span_start.append(0.0)
                    tracer.span_dur.append(0.0)
                else:
                    tracer.spans_dropped += 1
            frame = [0.0, parent if idx < 0 else idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                own = dur - frame[0]
                stat[0] += 1
                stat[1] += own
                mod = tracer._module_self
                mod[module] = mod.get(module, 0.0) + own
                if idx >= 0:
                    tracer.span_start[idx] = t0
                    tracer.span_dur[idx] = dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every public callable of relcat; returns the count."""
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        replaced = {}  # id(original function) -> wrapper
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj, True)
                    replaced[id(obj)] = wrapper
                    setattr(mod, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        return len(self.stats)

    def _wrap_class(self, cname: str, cls):
        store = cname not in LEAF_CLASSES
        members = vars(cls)
        for attr, obj in list(members.items()):
            if attr.startswith("_"):
                # __init__ and the arithmetic operators are reported by their
                # bare name, unless a public method already has that name
                short = attr.strip("_")
                if attr not in OPERATORS or short in members:
                    continue
                attr_name = short
            else:
                attr_name = attr
            name = f"{cname}.{attr_name}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj, store))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__, store)))

    # -- results -----------------------------------------------------------

    def repeat_frac(self, name: str) -> float:
        calls = self.stats[name][0]
        return 1.0 - len(self.inputs[name]) / calls if calls else 0.0

    def dump(self, path: str):
        """Write the stored spans as gzipped JSON lines, one span a line."""
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({
                "fields": ["name", "parent", "job", "start_s", "dur_s"],
                "names": self.names,
                "spans_dropped": self.spans_dropped,
            }) + "\n")
            for i in range(len(self.span_dur)):
                handle.write(json.dumps([
                    self.span_name[i], self.span_parent[i], self.span_job[i],
                    self.span_start[i], self.span_dur[i],
                ]) + "\n")
