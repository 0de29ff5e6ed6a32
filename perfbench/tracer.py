"""Span tracing of the confbc layers, installed from outside the package.

`Tracer.install()` wraps every public function of each layer module and
rebinds the wrapper under every name that refers to the original in any
loaded `confbc` module namespace (for example `batch_support` is bound
in regions, dm_bounds, gaussian_bounds and suites).  Nothing inside the
package changes.  Spans stay in memory until `write()`.

A span is (layer, name, start, end, parent, job, error, extra): times
from `time.perf_counter`, `parent` the index of the enclosing span (or
-1), `job` the benchmark job id, `error` whether an exception escaped,
and `extra` the work counted at that boundary (rows priced, grid points,
cells...).  Self time is a span's duration minus its children's.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("gridding", "info_core", "regions", "dm_bounds", "gaussian_bounds",
          "suites", "cli", "channels")


def _batch_support_work(args, kwargs, out):
    rhs = np.atleast_2d(kwargs.get("rhs", args[1] if len(args) > 1 else None))
    dirs = np.atleast_2d(kwargs.get("dirs", args[2] if len(args) > 2 else None))
    return {"rows": rhs.shape[0], "pairs": rhs.shape[0] * dirs.shape[0]}


# Work counters taken at a span boundary, from the call's arguments and
# result.  Generator spans (one per chunk pulled) pass the chunk as result.
_COUNTERS = {
    ("regions", "batch_support"): _batch_support_work,
    ("info_core", "xlog2x"): lambda a, k, out: {"cells": int(np.size(out))},
    ("gridding", "simplex_grid_chunks"):
        lambda a, k, out: {"points": int(out.shape[0]), "chunks": 1},
    ("suites", "run_suite"): lambda a, k, out: {"checks": len(out.checks)},
    ("cli", "main"): lambda a, k, out: {"nonzero": int(out != 0)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None

    # -- recording -------------------------------------------------------

    def _open(self, layer, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), None, parent,
                           self._job, False, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, error=False, extra=None):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[6] = error
        span[7] = extra
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id):
        """A root span for one benchmark job."""
        self._job = job_id
        idx = self._open("job", job_id)
        try:
            yield
        except BaseException:
            self._close(idx, error=True)
            raise
        else:
            self._close(idx)
        finally:
            self._job = None

    def _wrap(self, layer, name, fn):
        count = _COUNTERS.get((layer, name))
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(layer, name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx, error=True)
                        raise
                    tracer._close(idx, extra=count and count(args, kwargs, item))
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(layer, name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, error=True)
                raise
            tracer._close(idx, extra=count and count(args, kwargs, out))
            return out
        return wrapper

    def install(self):
        """Wrap the public functions of every layer module.  Call after
        `import confbc`."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "confbc" or n.startswith("confbc."))]
        for layer in LAYERS:
            mod = sys.modules.get("confbc." + layer)
            if mod is None:
                continue
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, wrapper)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Spans as JSON lines, start/end in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (layer, name, start, end, parent, job, err, extra) \
                    in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": layer, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent, "job": job,
                                     "error": err, "extra": extra}) + "\n")

    def metrics(self):
        """Per-layer metrics (see BENCHMARK.json) from the recorded spans.
        Functions that no longer exist simply contribute zero."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {}
        errors = {}
        calls = {}
        incl = {}
        extra = {}
        envelope_calls = 0
        for i, (layer, name, start, end, parent, job, err, ext) in enumerate(spans):
            dur = end - start
            self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
            errors[layer] = errors.get(layer, 0) + int(err)
            key = (layer, name)
            calls[key] = calls.get(key, 0) + 1
            incl[key] = incl.get(key, 0.0) + dur
            for k, v in (ext or {}).items():
                extra[key + (k,)] = extra.get(key + (k,), 0) + v
            if layer == "dm_bounds" and "envelope" in name and not (
                    parent >= 0 and spans[parent][0] == "dm_bounds"
                    and "envelope" in spans[parent][1]):
                envelope_calls += 1

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        bs = ("regions", "batch_support")
        grid = ("gridding", "simplex_grid_chunks")
        m = {
            "regions.batch_support_calls": calls.get(bs, 0),
            "regions.batch_support_rows": extra.get(bs + ("rows",), 0),
            "regions.batch_support_pairs": extra.get(bs + ("pairs",), 0),
            "regions.batch_support_s": incl.get(bs, 0.0),
            "regions.batch_support_rows_per_s":
                ratio(extra.get(bs + ("rows",), 0), incl.get(bs, 0.0)),
            "regions.fm_eliminate_calls": calls.get(("regions", "fm_eliminate"), 0),
            "regions.fm_eliminate_s": incl.get(("regions", "fm_eliminate"), 0.0),
            "regions.enumerate_vertices_calls":
                calls.get(("regions", "enumerate_vertices"), 0),
            "regions.enumerate_vertices_s":
                incl.get(("regions", "enumerate_vertices"), 0.0),
            "dm_bounds.envelope_calls": envelope_calls,
            "dm_bounds.factorization_terms_calls":
                calls.get(("dm_bounds", "factorization_terms"), 0),
            "dm_bounds.factorization_terms_s":
                incl.get(("dm_bounds", "factorization_terms"), 0.0),
            "info_core.mi_calls": calls.get(("info_core", "mutual_information"), 0),
            "info_core.compose_calls": calls.get(("info_core", "compose_joint"), 0),
            "info_core.xlog2x_calls": calls.get(("info_core", "xlog2x"), 0),
            "info_core.xlog2x_cells": extra.get(("info_core", "xlog2x", "cells"), 0),
            "gridding.points": extra.get(grid + ("points",), 0),
            "gridding.chunks": extra.get(grid + ("chunks",), 0),
            "gridding.busy_s": self_s.get("gridding", 0.0),
            "gridding.points_per_s": ratio(extra.get(grid + ("points",), 0),
                                           self_s.get("gridding", 0.0)),
            "gaussian_bounds.calls": sum(v for k, v in calls.items()
                                         if k[0] == "gaussian_bounds"),
            "suites.checks": extra.get(("suites", "run_suite", "checks"), 0),
            "cli.calls": calls.get(("cli", "main"), 0),
            "cli.nonzero_exits": extra.get(("cli", "main", "nonzero"), 0),
            "trace.unattributed_s": self_s.get("job", 0.0),
        }
        for layer in LAYERS:
            if layer != "gridding":
                m[layer + ".self_s"] = self_s.get(layer, 0.0)
            m[layer + ".errors"] = errors.get(layer, 0)
        return m
