"""Host-speed references: fixed tasks that run no library code.

On a shared VM identical work can run up to 2x slower for seconds to
minutes at a time.  The benchmark times a reference next to the work it
measures and reports that work in seconds at the reference's nominal speed:
seconds times nominal over the reference's own seconds.  A reference runs no
library code, so a change to the library moves a scaled time as much as a
raw one, while host drift moves it much less.  Each reference costs what
the work next to it costs outside the library:

- ``interpreter``: a cold interpreter that imports what the library and its
  CLI import from elsewhere.  Next to each set-up and to the CLI calls.
- ``fraction_elimination``: exact Fraction arithmetic over lists, as in the
  exact LPs.  Next to each operation of the catalog.
- ``linear_algebra``: small numpy calls made from Python, as in the
  spectral layer.  Around each round of the spectral stream and each
  operation of the theorem battery.

The nominal times are the references' times on an unloaded 2-vCPU Intel
Xeon VM (Python 3.11.7, numpy 2.4.6).  They fix the unit only.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

INTERPRETER_ARGV = ("-c", "import numpy, click, json, fractions")
INTERPRETER_S = 0.2
FRACTION_S = 0.02
LINEAR_ALGEBRA_S = 0.0002

# Fixed inputs of ``linear_algebra``, made without numpy.random, which the
# catalog's processes never import: importing it would add to their
# ``peak_rss_mb``.
_SYMMETRIC = [np.cos(np.arange(36.0).reshape(6, 6) * k) for k in range(1, 5)]
_SYMMETRIC = [m + m.T for m in _SYMMETRIC]
_VECTORS = [np.sin(np.arange(8.0) * k) for k in range(1, 9)]


def interpreter(**popen) -> float:
    """Seconds to start an interpreter and import numpy, click, json, fractions."""
    t = time.perf_counter()
    subprocess.run([sys.executable, *INTERPRETER_ARGV], capture_output=True, check=True, **popen)
    return time.perf_counter() - t


def fraction_elimination(n: int = 16, seed: int = 3) -> float:
    """Seconds of Gauss-Jordan elimination on a fixed n x (n+1) rational matrix."""
    rng = random.Random(seed)
    t = time.perf_counter()
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
         for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - t


def linear_algebra() -> float:
    """Seconds of four 6 x 6 eigendecompositions, their reconstructions and
    64 dot products of 8-vectors, on fixed inputs."""
    t = time.perf_counter()
    for m in _SYMMETRIC:
        w, v = np.linalg.eigh(m)
        (v * w) @ v.T
    acc = 0.0
    for a in _VECTORS:
        for b in _VECTORS:
            acc += float(a @ b)
    return time.perf_counter() - t
