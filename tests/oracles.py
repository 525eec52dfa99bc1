"""Reference rules that only the tests use to cross-check the library."""

import numpy as np

from btk.errors import ConvergenceError


def simpson_doubling(f, a: float, b: float, tol: float = 1e-9,
                     m0: int = 64, max_doublings: int = 16) -> float:
    """Plain composite Simpson with panel doubling on [a, b].

    f must be vectorized.  Raises ConvergenceError when the relative change
    fails to drop below tol.
    """
    if b <= a:
        return 0.0
    m = m0
    prev = None
    for _ in range(max_doublings + 1):
        x = np.linspace(a, b, m + 1)
        pattern = np.ones(m + 1)
        pattern[1:-1:2] = 4.0
        pattern[2:-1:2] = 2.0
        cur = float(np.dot(pattern, f(x)) * (b - a) / (3.0 * m))
        if prev is not None:
            scale = max(abs(cur), abs(prev), 1e-300)
            if abs(cur - prev) <= tol * scale or abs(cur - prev) < 1e-300:
                return cur
        prev = cur
        m *= 2
    raise ConvergenceError(f"simpson doubling failed to reach tol={tol}")
