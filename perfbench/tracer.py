"""Span tracing of one braidkl job, done entirely from outside the library.

`install()` replaces every public function of the traced braidkl modules
with a wrapper, in every braidkl module namespace that binds it (so
`klcore.canonical_key`, bound by `from .graphmat import canonical_key`, is
wrapped as well as `graphmat.canonical_key`).  A wrapper records a span
(name, start, end, parent) in memory; the job runner writes the spans when
the job ends, and `summarize()` derives self times from them in
run.py.  A few functions are too hot for a span and get a call counter
only; a few boundaries also record counts taken from arguments and return
values (flats returned, Bell(n) of the input, distinct canonical keys,
largest braid n requested).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

MODULES = (
    "cli",
    "klcore",
    "graphmat",
    "eqkl",
    "specseq",
    "polyseries",
    "combinat",
    "fsmod",
    "verify",
)

# Small functions called tens of thousands of times per job (per character
# value, per partition type, per block): a span would cost more than the
# call, so these only count calls and their time stays with the caller.
COUNT_ONLY = {
    "combinat.mn_character",
    "combinat.class_size",
    "combinat.centralizer_order",
    "combinat.set_partition_count_by_type",
    "graphmat.is_connected",
    "graphmat.components",
    "graphmat.matroid_rank",
}

# Private and method boundaries that only count calls: the memoised step of
# the generic graphic recursion, and symmetric-function products.
EXTRA_COUNTS = ("klcore._kl_graphic_coeffs", "eqkl.SymFn.mul")


def bell(n: int) -> int:
    """Bell(n), the number of set partitions of n points, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class Tracer:
    """Spans and counts of one job; all state lives on the instance."""

    def __init__(self, job_id: str):
        self.job = job_id
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # [name id, start ns, end ns, parent index]
        self._stack: list = [-1]
        self.counts: dict = {}
        self.obs = {
            "flats": 0,
            "bell_enumerated": 0,
            "canonical_keys": set(),
            "braid_max_n": 0,
        }

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_wrapper(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, clock(), 0, stack[-1]]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if observe is not None:
                observe(self.obs, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        obs = dict(self.obs)
        keys = obs.pop("canonical_keys")
        obs["canonical_key_distinct"] = len(keys)
        with open(path, "w") as fh:
            json.dump(
                {
                    "job": self.job,
                    "names": self.names,
                    "spans": self.spans,
                    "counts": self.counts,
                    "obs": obs,
                },
                fh,
            )


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _observe_flats(obs, args, kwargs, result):
    gamma = _arg(args, kwargs, 0, "gamma")
    obs["flats"] += len(result)
    obs["bell_enumerated"] += bell(gamma.n)


def _observe_key(obs, args, kwargs, result):
    obs["canonical_keys"].add(result)


def _observe_braid_n(pos, key):
    def observe(obs, args, kwargs, result):
        n = _arg(args, kwargs, pos, key)
        obs["braid_max_n"] = max(obs["braid_max_n"], n)

    return observe


OBSERVERS = {
    "graphmat.connected_partitions": _observe_flats,
    "graphmat.canonical_key": _observe_key,
    "klcore.kl_braid": _observe_braid_n(0, "n"),
    "klcore.d_coeff": _observe_braid_n(1, "n"),
}


def _is_plain_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or isinstance(
        obj, functools._lru_cache_wrapper
    )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced module, and the extra
    counted boundaries, in every braidkl namespace that binds them."""
    mods = {name: importlib.import_module(f"braidkl.{name}") for name in MODULES}
    namespaces = [importlib.import_module("braidkl"), *mods.values()]
    replace = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not _is_plain_function(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue  # bound here, defined elsewhere: wrapped by its owner
            name = f"{short}.{attr}"
            if name in COUNT_ONLY:
                wrapper = tracer.count_wrapper(name, obj)
            else:
                wrapper = tracer.span_wrapper(name, obj, OBSERVERS.get(name))
            replace[id(obj)] = (obj, wrapper)
    for name in EXTRA_COUNTS:
        short, *path = name.split(".")
        owner = mods[short]
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        wrapper = tracer.count_wrapper(name, original)
        if isinstance(owner, type):
            setattr(owner, path[-1], wrapper)
        else:
            replace[id(original)] = (original, wrapper)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])


def summarize(span_files: list) -> dict:
    """Aggregate span dumps of several jobs: per-name and per-module self
    time (span duration minus its direct children), calls per wrapped name
    and boundary observations."""
    self_ns: dict = {}
    calls: dict = {}
    obs_sum: dict = {}
    braid_max = 0
    for path in span_files:
        with open(path) as fh:
            dump = json.load(fh)
        names, spans = dump["names"], dump["spans"]
        child_ns = [0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[idx])
            calls[name] = calls.get(name, 0) + 1
        for name, c in dump["counts"].items():
            calls[name] = calls.get(name, 0) + c
        for key, v in dump["obs"].items():
            if key == "braid_max_n":
                braid_max = max(braid_max, v)
            else:
                obs_sum[key] = obs_sum.get(key, 0) + v
    module_ns = {m: 0 for m in MODULES}
    for name, ns in self_ns.items():
        module_ns[name.split(".", 1)[0]] += ns
    return {
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "module_self_s": {k: v / 1e9 for k, v in module_ns.items()},
        "calls": calls,
        "obs": dict(obs_sum, braid_max_n=braid_max),
    }
