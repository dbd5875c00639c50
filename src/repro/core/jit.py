"""Soft-dependency compiled kernel tier (``impl="jit"``).

The profiling work of the kernel PRs left two inner loops where numpy
still gives back >2x to compiled code: the SPARTA per-cycle simulation
(pointer-chasing integer state machines vectorize poorly) and the banded
edit distance at small bands (band rows of a dozen cells drown in numpy
dispatch overhead).  This module is the *tier switch* for those kernels:

- :func:`numba_available` probes for numba exactly once per process;
- :func:`njit` is a drop-in ``numba.njit`` that degrades to an identity
  decorator when numba is absent, so every jit kernel in the repo is
  also a plain-Python function -- the equivalence tests execute the
  same code path with or without the compiler;
- :func:`resolve_impl` maps a requested ``impl="jit"`` to the declared
  fallback tier when numba is missing (incrementing the
  ``jit.fallback`` metrics counter so the degradation is visible in
  ``repro profile`` output instead of silent);
- :func:`timed_first_call` charges the one-time compilation cost of a
  lazily-compiled kernel to a ``jit.compile/<label>`` histogram, keeping
  warm-path measurements honest.

numba is deliberately **not** in the runtime dependencies: every tier-1
surface must work from a bare ``numpy``-only install, and one CI bench
leg installs numba to prove the compiled tier while the others prove
the fallback.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

from repro.obs.metrics import get_metrics

_NUMBA: Optional[Any] = None
_PROBED = False


def numba_available() -> bool:
    """Whether the optional numba compiler can be imported (probed once;
    a broken install counts as absent)."""
    global _NUMBA, _PROBED
    if not _PROBED:
        _PROBED = True
        try:
            import numba  # type: ignore

            _NUMBA = numba
        except Exception:  # pragma: no cover - depends on environment
            _NUMBA = None
    return _NUMBA is not None


def _force_numba_state(module: Optional[Any]) -> None:
    """Test hook: pin the probed numba module (``None`` simulates an
    install without it)."""
    global _NUMBA, _PROBED
    _NUMBA = module
    _PROBED = True


def njit(*args: Any, **kwargs: Any) -> Callable:
    """``numba.njit`` when numba is present, identity otherwise.

    Usable both bare (``@njit``) and parameterized (``@njit(cache=...)``)
    like the real decorator.  Without numba the decorated function runs
    as ordinary Python -- slow, but with identical semantics, which is
    what lets the test suite pin jit-kernel equivalence on numba-free
    installs.
    """
    if args and callable(args[0]) and len(args) == 1 and not kwargs:
        fn = args[0]
        if numba_available():
            return _NUMBA.njit(fn)
        return fn

    def decorate(fn: Callable) -> Callable:
        if numba_available():
            return _NUMBA.njit(*args, **kwargs)(fn)
        return fn

    return decorate


def resolve_impl(impl: str, fallback: str = "numpy") -> str:
    """The implementation tier to actually run for a requested *impl*.

    ``"jit"`` resolves to *fallback* when numba is absent (the graceful
    soft-dependency contract); every other tier passes through.  Each
    fallback increments the metrics registry's ``jit.fallback`` counter
    so ``repro profile`` shows the degradation.
    """
    if impl != "jit" or numba_available():
        return impl
    get_metrics().inc("jit.fallback")
    return fallback


def timed_first_call(label: str) -> Callable:
    """Decorator: observe the wrapped function's *first* call duration
    in the ``jit.compile/<label>`` histogram.

    Lazily-compiled numba kernels pay their compilation on the first
    dispatch; charging that call to a dedicated histogram keeps it out of
    steady-state kernel measurements and makes compile cost a visible
    ``repro profile`` row.  After the first call the wrapper adds one
    boolean check.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if wrapper.__jit_warm__:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wrapper.__jit_warm__ = True
                get_metrics().observe(
                    f"jit.compile/{label}", time.perf_counter() - start
                )

        wrapper.__jit_warm__ = False
        return wrapper

    return decorate


__all__ = [
    "njit",
    "numba_available",
    "resolve_impl",
    "timed_first_call",
]
