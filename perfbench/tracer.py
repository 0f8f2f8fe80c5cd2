"""Outside-in tracing of one CLI invocation.

The tracer wraps public names of the package from outside: every
reference to a target object in a loaded ``mertens_sums`` module is
replaced, so callers that imported the name directly (``harness.sk_fast``
as well as ``sums.sk_fast``) are traced too, and classmethods are wrapped
on their class.  A target that no longer exists is reported as absent and
skipped, so restructuring the package cannot break the benchmark.

Spans (name, start, end, parent) and their counters are kept in memory
and returned once by :meth:`Tracer.report` when the invocation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, module, attribute path).  The span name's first part is the layer.
TARGETS = (
    ("primes.sieve", "mertens_sums.primes", "sieve"),
    ("sums.sk_fast", "mertens_sums.sums", "sk_fast"),
    ("sums.keyspace", "mertens_sums.sums", "KeySpace.build"),
    ("constants.bundle", "mertens_sums.constants", "ConstantsBundle.build"),
    ("constants.zeta", "mertens_sums.constants", "zeta_int"),
    ("constants.g1", "mertens_sums.constants", "g_at_1"),
    ("constants.derivs", "mertens_sums.constants", "recip_gamma_derivs"),
    ("asymptotics.main_term", "mertens_sums.asymptotics", "evaluate_main_term"),
    ("harness.row", "mertens_sums.harness", "verify_row"),
    ("harness.emit", "mertens_sums.harness", "emit_report"),
)
LAYERS = ("primes", "sums", "constants", "asymptotics", "harness", "cli")
ROOT = "cli.main"
PROBE = "sums.seed_probe"


def _counters(name: str, result) -> dict:
    """Counts read from a traced call's result; missing attributes give none."""
    try:
        if name == "primes.sieve":
            return {"primes": int(result.count), "bytes": int(result.primes.nbytes)}
        if name == "sums.keyspace":
            return {"keys": len(result)}
        if name in ("sums.sk_fast", PROBE):
            return {"k": int(result.k), "x": int(result.x), "terms": int(result.terms)}
        if name == "harness.emit":
            return {"bytes": len(result)}
    except (AttributeError, TypeError, ValueError):
        pass
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._sk_fast = None  # the unwrapped function and its last call
        self._last_sk_fast = None
        try:
            from mertens_sums.errors import MertensError
        except ImportError:
            MertensError = ()
        self._error_type = MertensError

    # -- spans -----------------------------------------------------------
    def _call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = isinstance(exc, self._error_type)
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        span.update(_counters(name, result))
        return result

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "sums.sk_fast":
                tracer._last_sk_fast = (args, kwargs)
            return tracer._call(name, fn, args, kwargs)

        return traced

    # -- installation ----------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        for name, module, path in targets:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                continue
            if name == "sums.sk_fast":
                self._sk_fast = raw
            traced = self.wrap(name, raw)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mertens_sums" or mod_name.startswith("mertens_sums."):
                    for key in [k for k, v in vars(mod).items() if v is raw]:
                        setattr(mod, key, traced)

    def run_root(self, fn, *args):
        """Call the CLI entry point as the root span."""
        return self._call(ROOT, fn, args, {})

    def seed_probe(self) -> None:
        """Repeat the last sk_fast call with k=1 on the same prime table.

        The probe is a root span of its own, outside the CLI's, and times
        the level-1 seed (``sums.seed_s``) of the sum workloads.
        """
        if self._sk_fast is None or self._last_sk_fast is None:
            return
        try:
            bound = inspect.signature(self._sk_fast).bind(*self._last_sk_fast[0],
                                                    **self._last_sk_fast[1])
        except (TypeError, ValueError):
            return
        if "k" not in bound.arguments:
            return
        bound.arguments["k"] = 1
        self._call(PROBE, self._sk_fast, bound.args, bound.kwargs)

    def report(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}


# ----------------------------------------------------------------------
# Per-layer metrics from a trace report.

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _under_root(spans: list[dict]) -> list[bool]:
    """Whether each span descends from (or is) the CLI root span."""
    inside = []
    for s in spans:
        parent = s["parent"]
        inside.append(s["name"] == ROOT if parent is None else inside[parent])
    return inside


def layer_metrics(report: dict, exit_code: int, out_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced invocation (see BENCHMARK.json)."""
    spans = report["spans"]
    own = self_times(spans)
    inside = _under_root(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors = dict.fromkeys(LAYERS, 0)
    for s, t, keep in zip(spans, own, inside):
        if not keep:
            continue
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        if s.get("error"):
            errors[name.split(".")[0]] += 1
    errors["cli"] += int(exit_code != 0)

    def count(name, key):
        return sum(s.get(key, 0) for s, keep in zip(spans, inside)
                   if keep and s["name"] == name)

    # Seed and per-level times.  A sum workload has a probe span; a sweep
    # already calls sk_fast(1, x) at every x it calls with larger k.
    sk_calls = [(s["k"], s["x"], s["end"] - s["start"])
                for s, keep in zip(spans, inside)
                if keep and s["name"] == "sums.sk_fast" and "k" in s]
    probes = [s for s in spans if s["name"] == PROBE and "x" in s]
    if probes:
        seeds = {s["x"]: s["end"] - s["start"] for s in probes}
    else:
        seeds = {x: t for k, x, t in sk_calls if k == 1}
    levels = [(t - seeds[x], k - 1) for k, x, t in sk_calls if k > 1 and x in seeds]
    n_levels = sum(n for _, n in levels)

    metrics = {
        "primes.sieve_s": self_s.get("primes.sieve", 0.0),
        "primes.sieve_calls": calls.get("primes.sieve", 0),
        "primes.count": count("primes.sieve", "primes"),
        "primes.table_mb": count("primes.sieve", "bytes") / 1e6,
        "sums.keyspace_s": self_s.get("sums.keyspace", 0.0),
        "sums.keys": count("sums.keyspace", "keys"),
        "sums.sk_fast_s": self_s.get("sums.sk_fast", 0.0),
        "sums.sk_fast_calls": calls.get("sums.sk_fast", 0),
        "sums.terms": count("sums.sk_fast", "terms"),
        "sums.seed_s": sum(seeds.values()),
        "sums.level_s": sum(t for t, _ in levels) / n_levels if n_levels else 0.0,
        "constants.bundle_s": self_s.get("constants.bundle", 0.0),
        "constants.zeta_s": self_s.get("constants.zeta", 0.0),
        "constants.zeta_calls": calls.get("constants.zeta", 0),
        "constants.g1_s": self_s.get("constants.g1", 0.0),
        "constants.derivs_s": self_s.get("constants.derivs", 0.0),
        "asymptotics.main_term_s": self_s.get("asymptotics.main_term", 0.0),
        "asymptotics.main_term_calls": calls.get("asymptotics.main_term", 0),
        "harness.row_self_s": self_s.get("harness.row", 0.0),
        "harness.rows": calls.get("harness.row", 0),
        "harness.emit_s": self_s.get("harness.emit", 0.0),
        "harness.emit_bytes": count("harness.emit", "bytes"),
        "cli.self_s": self_s.get(ROOT, 0.0),
        "cli.out_bytes": out_bytes,
    }
    metrics.update({f"{layer}.errors": n for layer, n in errors.items()})
    metrics["trace.absent"] = len(report["absent"])
    return metrics
