"""Cross-query engine caches: instance statistics, term closures and
generated kernels.

Three computations recur across requests and are pure functions of
immutable inputs, so they are cached process-wide:

* :func:`stats_for` — ``collect_stats`` results, keyed by the
  instance's content :meth:`~repro.data.instance.Instance.fingerprint`.
  The cost-based rewrite pass consults statistics on *every* optimized
  execution; one scan per distinct instance instead of one per request.
* :func:`closure_for` — ``term_closure`` materializations for ``AdomK``
  nodes, keyed by (instance fingerprint, closure level, extra
  constants).  The closure is the single most expensive planning-time
  computation (worst case ``|base| ** (max_arity ** k)``) and the
  [AB88]-style baseline translation emits the *same* ``AdomK`` node
  many times per plan, so this cache pays off even within one request.
* :func:`kernel_factory` — the compiled factories of the generated
  tuple kernels (:mod:`repro.engine.compile`), keyed by kernel kind and
  expression shape.  Compiling a kernel costs ten to sixty times a
  cache hit, and operators are rebuilt on every execution.

The first two are content-addressed, so a *different* instance can never
be served a stale entry — new content hashes to a new key and old
entries age out of the bounded LRU.  The closure additionally depends
on the interpretation and the schema's function signatures, which have
no content hash; entries therefore pin those objects and are verified
**by identity** on every hit (``entry.interp is interpretation``).  A
logically equal but distinct interpretation misses and recomputes —
correct, merely not maximally shared.  A kernel's source depends on
its key alone; constants and functions are arguments of the factory.

:func:`clear_engine_caches` drops everything; the service layer calls
it alongside :func:`repro.safety.clear_caches` whenever the
compilation environment (schema, annotations) is swapped.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Callable, Hashable, Iterable

from repro.core.schema import DatabaseSchema
from repro.data.domain import term_closure
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.engine.stats import InstanceStats, collect_stats

__all__ = ["stats_for", "closure_for", "kernel_factory",
           "clear_engine_caches", "engine_cache_info"]

#: Maximum distinct instances whose statistics are retained.
STATS_CACHE_SIZE = 64
#: Maximum retained term-closure materializations.
CLOSURE_CACHE_SIZE = 64
#: Maximum retained kernel factories (one per kind and shape).
KERNEL_CACHE_SIZE = 1024

_lock = Lock()
_stats_cache: OrderedDict = OrderedDict()
_closure_cache: OrderedDict = OrderedDict()
_kernel_cache: OrderedDict = OrderedDict()
_hits = {"stats": 0, "closure": 0, "kernel": 0}
_misses = {"stats": 0, "closure": 0, "kernel": 0}


@dataclass(slots=True)
class _ClosureEntry:
    instance: Instance
    interp: Interpretation
    functions: tuple
    closure: frozenset


def stats_for(instance: Instance) -> InstanceStats:
    """``collect_stats(instance)``, cached by content fingerprint."""
    key = instance.fingerprint()
    with _lock:
        cached = _stats_cache.get(key)
        if cached is not None and cached[0] == instance:
            _stats_cache.move_to_end(key)
            _hits["stats"] += 1
            return cached[1]
    stats = collect_stats(instance)
    with _lock:
        _misses["stats"] += 1
        _stats_cache[key] = (instance, stats)
        _stats_cache.move_to_end(key)
        while len(_stats_cache) > STATS_CACHE_SIZE:
            _stats_cache.popitem(last=False)
    return stats


def closure_for(instance: Instance, level: int, extras: Iterable[Hashable],
                interpretation: Interpretation,
                schema: DatabaseSchema) -> frozenset:
    """``term_closure(adom(I) | extras, level)``, cached across queries.

    The key is (instance fingerprint, level, extras); hits are verified
    against the instance by equality and against the interpretation by
    identity (interpretations hold arbitrary callables and have no
    content hash), plus the schema's function signatures by value.
    """
    extras = frozenset(extras)
    functions = tuple(sorted((sig.name, sig.arity)
                             for sig in schema.functions))
    key = (instance.fingerprint(), level, extras)
    with _lock:
        entry = _closure_cache.get(key)
        if (entry is not None and entry.instance == instance
                and entry.interp is interpretation
                and entry.functions == functions):
            _closure_cache.move_to_end(key)
            _hits["closure"] += 1
            return entry.closure
    base = set(instance.active_domain()) | set(extras)
    closure = term_closure(base, level, interpretation, schema)
    with _lock:
        _misses["closure"] += 1
        _closure_cache[key] = _ClosureEntry(instance, interpretation,
                                            functions, closure)
        _closure_cache.move_to_end(key)
        while len(_closure_cache) > CLOSURE_CACHE_SIZE:
            _closure_cache.popitem(last=False)
    return closure


def kernel_factory(key: tuple, build: Callable[[tuple], Callable]
                   ) -> Callable:
    """The compiled kernel factory for ``key``, made by ``build(key)``
    on a miss and kept in a bounded LRU."""
    with _lock:
        factory = _kernel_cache.get(key)
        if factory is not None:
            _kernel_cache.move_to_end(key)
            _hits["kernel"] += 1
            return factory
    factory = build(key)
    with _lock:
        _misses["kernel"] += 1
        _kernel_cache[key] = factory
        _kernel_cache.move_to_end(key)
        while len(_kernel_cache) > KERNEL_CACHE_SIZE:
            _kernel_cache.popitem(last=False)
    return factory


def clear_engine_caches() -> None:
    """Drop all cached statistics, closures and kernels (idempotent).

    Hit/miss counters are reset too, so :func:`engine_cache_info`
    reflects only activity since the last clear.  The columnar scan
    cache (relations converted to column layout) is dropped alongside.
    """
    from repro.engine.batches import clear_columnar_cache
    with _lock:
        _stats_cache.clear()
        _closure_cache.clear()
        _kernel_cache.clear()
        for counter in (_hits, _misses):
            for name in counter:
                counter[name] = 0
    clear_columnar_cache()


def engine_cache_info() -> dict:
    """Hit/miss/size counters for every cache, JSON-ready."""
    with _lock:
        return {
            "stats": {"entries": len(_stats_cache),
                      "hits": _hits["stats"], "misses": _misses["stats"]},
            "closure": {"entries": len(_closure_cache),
                        "hits": _hits["closure"],
                        "misses": _misses["closure"]},
            "kernel": {"entries": len(_kernel_cache),
                       "hits": _hits["kernel"], "misses": _misses["kernel"]},
        }
