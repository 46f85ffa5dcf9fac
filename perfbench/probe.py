"""The fixed in-process probe that host timings are normalised by.

Wall time on a shared machine drifts: the same fixed work can take
much longer a minute later, and process CPU time drifts with it.  Each
host timing the benchmark reports is therefore divided by the time of
this probe, measured in the same process around the timed work, and
multiplied by the probe's nominal seconds (``probe_nominal_s`` in
``design.json``).  The probe mixes the two kinds of host work the
program does: a NumPy multi-key sort (the pointer-index build), a
Python dict/int loop (round bookkeeping, streaming repair, store code)
and a random gather from a table larger than the caches (CSR lookups
on the graphs).  Without the gather the probe is cache-resident and
swings more than the ops do when the machine's memory is contended.
Its inputs are fixed, so its work never changes between runs.
"""

from __future__ import annotations

import time

import numpy as np

_N_SORT = 12_000
_N_LOOP = 10_000
_N_TABLE = 1 << 20  # 8 MiB of float64
_N_GATHER = 1 << 19

_rng = np.random.default_rng(20240917)
_KEYS = (
    _rng.integers(0, 1 << 40, _N_SORT),
    -_rng.random(_N_SORT),
    _rng.integers(0, 2_000, _N_SORT),
)
_TABLE = _rng.random(_N_TABLE)
_GATHER = _rng.integers(0, _N_TABLE, _N_GATHER)


def probe() -> float:
    """Run the fixed probe once; returns its wall seconds."""
    t0 = time.perf_counter()
    order = np.lexsort(_KEYS)
    acc: dict[int, int] = {}
    for i in range(_N_LOOP):
        k = (i * 7919) & 1023
        acc[k] = acc.get(k, 0) + int(order[i])
    total = float(_TABLE[_GATHER].sum())
    if len(acc) != 1024 or total <= 0:  # consume every result
        raise AssertionError("probe lost work")
    return time.perf_counter() - t0
