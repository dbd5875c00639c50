"""Parallel evaluation engine with content-addressed result caching.

The throughput layer under every campaign in the suite (ROADMAP
north-star: "as fast as the hardware allows").  Grids of independent
simulator evaluations -- DSE objective evaluations, hetero
device x storage campaign cells, IMC crossbar sweeps -- fan out over a
process pool and memoize through a content-addressed cache, so reruns
of identical design points cost a lookup instead of a simulation.

Entry points:

- :class:`ParallelEvaluator` -- ordered, deterministic fan-out over
  ``concurrent.futures`` with per-task timeouts and worker-crash
  recovery;
- :class:`ResultCache` / :func:`config_digest` -- SHA-256
  content-addressed LRU result store with an atomic on-disk backing;
- :func:`make_evaluator` / :func:`coerce_cache` -- adapters behind the
  ``parallel=`` / ``cache=`` kwargs of the high-level runners;
- :mod:`repro.exec.requests` -- the one request-evaluation path (worker,
  batch rules, cache-record reader) the service and the campaign runner
  share.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.exec.cache": ("ResultCache", "canonical_payload", "config_digest"),
    "repro.exec.parallel": (
        "ParallelEvaluator",
        "coerce_cache",
        "make_evaluator",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
