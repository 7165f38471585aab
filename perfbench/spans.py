"""In-memory span tracer that wraps pfib's public functions from outside.

The package binds helpers with `from .arith import is_prime`-style imports,
so wrapping one module attribute is not enough: every module attribute that
holds the original function object is rebound to the wrapper.  Spans record
name, start, end and parent; self time is a span minus its direct children.
Processes forked from the traced one (the search's pool workers) call the
original functions untraced, so their work shows up only in the waiting
time of `searchctl.run_search`.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time

# (module, attribute) of every traced public function.
TARGETS = (
    ("arith", "smallest_odd_prime_divisor"),
    ("arith", "is_prime"),
    ("arith", "sieve_primes"),
    ("arith", "crt_solve"),
    ("seqcore", "generate_forward"),
    ("seqcore", "generate_reversed"),
    ("seqcore", "extend_left_crt"),
    ("seqcore", "find_prime_ap"),
    ("seqcore", "green_tao_sequence"),
    ("searchctl", "scan_multiplier_range"),
    ("searchctl", "run_search"),
    ("searchctl", "save_checkpoint"),
    ("searchctl", "load_checkpoint"),
    ("cli", "main"),
)

SCAN = "searchctl.scan_multiplier_range"
# Field positions in a span record.
_NAME, _START, _END, _PARENT, _CHILD_S, _TESTS = range(6)


def _is_prime_bucket(n) -> str:
    if n < 1 << 32:
        return "arith.is_prime.lt2_32"
    if n < 1 << 64:
        return "arith.is_prime.lt2_64"
    return "arith.is_prime.ge2_64"


class Tracer:
    """Records spans for calls made through the wrapped functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.enabled = True
        self.prime_hits = 0
        self.run_search_shards = 0
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def install(self, package) -> None:
        """Rebind every module attribute that holds a target to its wrapper."""
        modules = [package] + [
            getattr(package, name) for name in ("arith", "seqcore", "searchctl", "cli")
        ]
        for module_name, attr in TARGETS:
            original = getattr(getattr(package, module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        if name == "arith.is_prime":

            @functools.wraps(fn)
            def wrapper(n, *args, **kwargs):
                if not tracer.enabled:
                    return fn(n, *args, **kwargs)
                parent = tracer.stack[-1] if tracer.stack else None
                result = tracer._call(_is_prime_bucket(n), fn, (n,) + args, kwargs)
                if parent is not None and parent[_NAME] == SCAN:
                    parent[_TESTS] += 1
                    tracer.prime_hits += bool(result)
                return result

        elif name == "searchctl.run_search":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                result = tracer._call(name, fn, args, kwargs)
                tracer.run_search_shards += result.checkpoint.shards_done
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        span = [name, 0.0, 0.0, parent, 0.0, 0]
        self.spans.append(span)
        stack.append(span)
        span[_START] = start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[_CHILD_S] += end - start

    def summary(self) -> dict:
        """Per-name call counts and self seconds, plus the scan counters."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        scans = tested = tests = 0
        for span in self.spans:
            name = span[_NAME]
            calls[name] = calls.get(name, 0) + 1
            own = span[_END] - span[_START] - span[_CHILD_S]
            self_s[name] = self_s.get(name, 0.0) + own
            if name == SCAN:
                scans += 1
                tested += span[_TESTS] > 0
                tests += span[_TESTS]
        return {
            "calls": calls,
            "self_s": self_s,
            "scan_shards": scans,
            "scan_shards_tested": tested,
            "scan_prime_tests": tests,
            "scan_prime_hits": self.prime_hits,
            "run_search_shards": self.run_search_shards,
        }

    def dump(self, path: str, trace_id: str) -> None:
        """Write every span as one JSON line: trace, id, parent, name, start, end."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="ascii") as handle:
            for i, span in enumerate(self.spans):
                parent = span[_PARENT]
                parent_id = None if parent is None else index[id(parent)]
                record = [trace_id, i, parent_id, span[_NAME], span[_START], span[_END]]
                handle.write(json.dumps(record) + "\n")
