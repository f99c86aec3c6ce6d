"""Numba/numpy backend selection for the hot kernels.

The compiled path is the default. Set ``SWARM_MIMO_NO_NUMBA=1`` to force the
pure-numpy fallback (useful on platforms without a working numba).
``SWARM_MIMO_THREADS`` caps the number of threads used by compiled kernels.
"""

from __future__ import annotations

import os


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


USE_NUMBA = not _env_truthy("SWARM_MIMO_NO_NUMBA")

if USE_NUMBA:
    try:
        import warnings

        with warnings.catch_warnings():
            # threading-layer version probing is noisy on some hosts
            warnings.filterwarnings("ignore", message=".*TBB.*")
            import numba

        _threads = os.environ.get("SWARM_MIMO_THREADS")
        if _threads:
            numba.set_num_threads(max(1, min(int(_threads), numba.get_num_threads())))

        def njit(*args, **kwargs):
            kwargs.setdefault("cache", True)
            return numba.njit(*args, **kwargs)

        prange = numba.prange
    except ImportError:  # pragma: no cover - exercised only without numba
        USE_NUMBA = False

if not USE_NUMBA:

    def njit(*args, **kwargs):  # type: ignore[misc]
        """No-op decorator standing in for numba.njit."""

        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range
