"""A fixed probe of the machine's current speed.

The shared 2-vCPU machine this benchmark was built on runs the same code at
speeds up to 1.9x apart, switching within seconds and staying for minutes (a
fixed numpy kernel read 5.7 ms in one mode and 10.7 ms in the other).  A time
divided by the probe's time next to it, and multiplied by the probe's
reference time, is the time the work would take at the reference speed.

The probe has two parts.  The small part works on 64 KB: interpreted Python,
and small numpy calls on a batch of 2x2 matrices, which is what the d = 2
steppers do.  The large part makes products on a 2.4 MB batch of 12x12
matrices.  Some of the machine's phases slow the large part but neither the
small part nor the d = 2 operations, so a workload of d = 2 operations is
scaled by the small part alone ("small") and any other by both ("full").
Neither part uses contmon, so no change to the program changes them.

The import of contmon is timed in fresh interpreters, and so is a fixed
import of standard-library modules that contmon does not load: the same kind
of work (reading and unmarshalling compiled modules, loading extension
modules), and none of it the program's.  An import time divided by the
standard-library import's time next to it, times ``REFERENCE_IMPORT_S``, is
the import time at the reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# each kind's median time when the constants were set (README); only the
# scale of the reported times depends on them
REFERENCE_S = {"small": 0.0051, "full": 0.0094}
REFERENCE_IMPORT_S = 0.136
REFERENCE_IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import asyncio, calendar, configparser, csv, ctypes, decimal, difflib, email.mime.multipart, "
    "email.parser, fractions, gettext, http.client, http.server, logging.handlers, "
    "multiprocessing, pickle, pydoc, shelve, sqlite3, ssl, tarfile, tomllib, unittest, "
    "urllib.request, xml.dom.minidom, xml.etree.ElementTree, zipfile\n"
    "print(time.perf_counter() - start)\n"
)

_SMALL = (np.arange(1024 * 4, dtype=float).reshape(1024, 2, 2) / 4096.0).astype(complex)
_OP = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_LARGE = (np.arange(1024 * 144, dtype=float).reshape(1024, 12, 12) / 1e5).astype(complex)
_OP12 = np.eye(12, dtype=complex)


def probe_seconds() -> dict:
    """Seconds one pass of each kind of the fixed kernel takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(4000):  # the interpreter
        total += i * i % 7
    for _ in range(10):  # per-matrix BLAS calls on a (1024, 2, 2) batch
        product = _SMALL @ _OP
        total += float(np.einsum("bij,ji->b", product, _OP).real.sum())
    for _ in range(40):  # elementwise work on the same batch
        product = _SMALL * 0.5 + _SMALL.conj() - 2.0 * _SMALL
    small = time.perf_counter() - start
    for _ in range(3):  # a (1024, 12, 12) batch, 2.4 MB
        product = _LARGE @ _OP12 + _LARGE
    return {"small": small, "full": time.perf_counter() - start}


def at_reference_speed(seconds: float, probes: list, kind: str) -> float:
    """``seconds`` scaled to the reference speed by the median of the
    ``kind`` times of ``probes`` (results of :func:`probe_seconds`)."""
    return seconds * REFERENCE_S[kind] / statistics.median(p[kind] for p in probes)
