"""Radial weight families on the unit disk and their associated scale function.

A weight is stored as its potential: ``omega(r) = exp(-2*phi(r))``.  The local
scale ``tau = (laplacian of phi)**(-1/2)`` is kept as a hand-differentiated
closed form (the symbolic derivations are spelled out in the docstrings of the
constructors); numerical second differences are used only as a cross-check in
the test suite.  Consumers never receive ``omega`` directly, only
``log_weight = -2*phi``, because the weight underflows double precision well
inside the disk for the parameter ranges of interest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ParameterError, require_keys

#: safety factor applied to grid-estimated Lipschitz/slope constants
CONSTANT_INFLATION = 1.05


@dataclass(frozen=True)
class RadialWeight:
    """A radial weight omega = exp(-2 phi) with its scale function tau.

    All callables are vectorized over numpy arrays of radii in [0, 1).
    Instances are immutable and safe to share between threads.
    """

    family: str
    params: dict
    phi: Callable[[np.ndarray], np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray]
    log_tau_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    tau_prime_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise DomainError("c1 and c2 must be positive")

    @property
    def m_tau(self) -> float:
        return min(1.0, 1.0 / self.c1, 1.0 / self.c2) / 4.0

    def log_weight(self, r):
        """log omega(r) = -2 phi(r)."""
        return -2.0 * self.phi(np.asarray(r, dtype=float))

    def tau(self, r):
        return np.exp(self.log_tau_fn(np.asarray(r, dtype=float)))

    def log_tau(self, r):
        return self.log_tau_fn(np.asarray(r, dtype=float))

    def tau_prime(self, r):
        """d tau / dr: a closed form, or central differences of log tau."""
        return self.tau_prime_fn(np.asarray(r, dtype=float))

    def require_delta(self, delta: float) -> None:
        if not (0.0 < delta < self.m_tau):
            raise ParameterError(
                f"delta={delta} outside admissible range (0, {self.m_tau})"
            )

    def fingerprint(self) -> str:
        payload = json.dumps(
            {"family": self.family, "params": self.params, "c1": self.c1, "c2": self.c2},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {"family": self.family, **self.params}


def _estimate_constants(log_tau, tau_prime):
    """sup tau/(1-r) and sup |tau'| on a grid, inflated by 5%.

    The grid is uniform on [0, 0.9] plus the geometric points 1 - 2^(-t),
    t in [0.2, 30], refined toward r=1.  Works in log space so that weights
    whose tau underflows near r=1 (the double exponential family) are
    handled correctly.
    """
    t = np.linspace(0.2, 30.0, 6000)
    r = np.unique(np.concatenate([np.linspace(0.0, 0.9, 3001), 1.0 - 2.0 ** (-t)]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = log_tau(r) - np.log1p(-r)
        c1 = float(np.exp(np.nanmax(log_ratio)))
        tp = tau_prime(r)
        c2 = float(np.nanmax(np.abs(tp)))
    if not np.isfinite(c1) or not np.isfinite(c2) or c1 <= 0 or c2 < 0:
        raise DomainError("could not estimate class-L constants on the grid")
    # a weight with tau'(r) ~ 0 everywhere would give c2 ~ 0; keep m_tau finite
    c2 = max(c2, 1e-12)
    return c1 * CONSTANT_INFLATION, c2 * CONSTANT_INFLATION


def make_exponential_weight(alpha: float) -> RadialWeight:
    """Weight omega(r) = exp(-(1-r^2)^(-alpha)).

    Derivation of the stored closed forms, with u = 1 - r^2:
        phi   = u^(-alpha) / 2
        phi'  = alpha r u^(-alpha-1)
        phi'' = alpha u^(-alpha-1) + 2 alpha (alpha+1) r^2 u^(-alpha-2)
        lap   = phi'' + phi'/r = 2 alpha (1 + alpha r^2) u^(-alpha-2)
        tau   = lap^(-1/2) = u^((alpha+2)/2) / sqrt(2 alpha (1 + alpha r^2))
        tau'  = tau * ( -(alpha+2) r / u - alpha r / (1 + alpha r^2) )
    """
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    a = float(alpha)

    def phi(r):
        return 0.5 * (1.0 - r * r) ** (-a)

    def phi_prime(r):
        return a * r * (1.0 - r * r) ** (-a - 1.0)

    def log_tau(r):
        u = 1.0 - r * r
        return -0.5 * (np.log(2.0 * a) + np.log1p(a * r * r) - (a + 2.0) * np.log(u))

    def tau_prime(r):
        u = 1.0 - r * r
        t = np.exp(log_tau(r))
        return t * (-(a + 2.0) * r / u - a * r / (1.0 + a * r * r))

    c1, c2 = _estimate_constants(log_tau, tau_prime)
    return RadialWeight(
        family="exponential",
        params={"alpha": a},
        phi=phi,
        phi_prime=phi_prime,
        log_tau_fn=log_tau,
        tau_prime_fn=tau_prime,
        c1=c1,
        c2=c2,
    )


def make_double_exponential_weight(alpha: float, beta: float, gamma: float) -> RadialWeight:
    """Weight omega(r) = exp(-gamma * exp(beta / (1-r)^alpha)).

    Derivation, with v = 1 - r and E = exp(beta v^(-alpha)):
        phi   = (gamma/2) E
        phi'  = (gamma alpha beta / 2) v^(-alpha-1) E
        phi'' = (gamma alpha beta / 2) E [ (alpha+1) v^(-alpha-2)
                                          + alpha beta v^(-2 alpha-2) ]
        lap   = phi'' + phi'/r
              = (gamma alpha beta / 2) E [ (alpha+1) v^(-alpha-2)
                                           + alpha beta v^(-2 alpha-2)
                                           + v^(-alpha-1)/r ]
    The log of lap is evaluated directly (the factor E overflows doubles for r
    close to 1).  The radial Laplacian blows up as r -> 0 because phi'(0) > 0,
    so tau(0+) -> 0; radii are clipped below at 1e-12.
    """
    for name, val in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not val > 0:
            raise DomainError(f"{name} must be positive, got {val}")
    a, b, g = float(alpha), float(beta), float(gamma)

    def phi(r):
        v = 1.0 - r
        with np.errstate(over="ignore"):
            return (g / 2.0) * np.exp(b * v ** (-a))

    def phi_prime(r):
        v = 1.0 - r
        with np.errstate(over="ignore"):
            return (g * a * b / 2.0) * v ** (-a - 1.0) * np.exp(b * v ** (-a))

    def log_tau(r):
        r = np.maximum(r, 1e-12)
        v = 1.0 - r
        bracket = (
            (a + 1.0) * v ** (-a - 2.0)
            + a * b * v ** (-2.0 * a - 2.0)
            + v ** (-a - 1.0) / r
        )
        return -0.5 * (np.log(g * a * b / 2.0) + b * v ** (-a) + np.log(bracket))

    def tau_prime(r):
        return _central_difference(lambda x: np.exp(log_tau(x)), r)

    c1, c2 = _estimate_constants(log_tau, tau_prime)
    return RadialWeight(
        family="double_exponential",
        params={"alpha": a, "beta": b, "gamma": g},
        phi=phi,
        phi_prime=phi_prime,
        log_tau_fn=log_tau,
        tau_prime_fn=tau_prime,
        c1=c1,
        c2=c2,
    )


def _central_difference(f, r):
    """df/dr by a central difference of step 1e-7 (1 - r), kept in (0, 1)."""
    r = np.asarray(r, dtype=float)
    h = 1e-7 * np.maximum(1.0 - r, 1e-9)
    lo = np.maximum(r - h, 1e-12)
    return (f(r + h) - f(lo)) / (r + h - lo)


def make_custom_weight(
    tau: Callable[[np.ndarray], np.ndarray],
    c1: float,
    c2: float,
    phi: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> RadialWeight:
    """Custom weight from a user tau (and optionally phi); no symbolic checks.

    Intended for certification experiments; kernel machinery requires phi.
    tau' and phi' are central differences of tau and phi.
    """

    def log_tau(r):
        with np.errstate(divide="ignore"):
            return np.log(tau(np.asarray(r, dtype=float)))

    def missing(r):
        raise DomainError("custom weight has no potential phi")

    return RadialWeight(
        family="custom",
        params={},
        phi=phi if phi is not None else missing,
        phi_prime=missing if phi is None else lambda r: _central_difference(phi, r),
        log_tau_fn=log_tau,
        tau_prime_fn=lambda r: _central_difference(lambda x: np.exp(log_tau(x)), r),
        c1=float(c1),
        c2=float(c2),
    )


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the class-L certification of a stored weight."""

    sup_tau_ratio: float        # measured sup tau(r)/(1-r)
    measured_lipschitz: float   # sup of sampled difference quotients
    cond_a: bool
    cond_b: bool
    tau_prime_at_rmax: float
    tau_decreasing_near_one: bool
    tau_positive: bool
    m_tau: float

    @property
    def passed(self) -> bool:
        return self.cond_a and self.cond_b and self.tau_positive


def certify_class_L(w: RadialWeight, grid_size: int = 10_000) -> CertificationReport:
    """Check conditions (A) and (B) against the stored constants on a grid.

    Condition (A): tau(r) <= c1 (1-r) at every grid point.
    Condition (B): sampled difference quotients |tau(r)-tau(s)|/|r-s| <= c2,
    taken at dyadic separations 2^(-k) down to the grid resolution.
    The report carries measurements; failures do not raise.
    """
    if grid_size < 100:
        raise ParameterError("grid_size must be at least 100")
    r = np.linspace(0.0, 1.0 - 1e-6, grid_size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lt = w.log_tau(r)
        log_ratio = lt - np.log1p(-r)
        sup_ratio = float(np.exp(np.nanmax(log_ratio)))
        tau = np.exp(lt)

    tau_positive = bool(np.all(np.isfinite(lt)))  # log tau finite <=> tau > 0

    # dyadic-scale difference quotients
    lip = 0.0
    n = grid_size
    k = 1
    while k < n:
        dq = np.abs(tau[k:] - tau[:-k]) / (r[k:] - r[:-k])
        lip = max(lip, float(np.nanmax(dq)))
        k *= 2
    cond_a = sup_ratio <= w.c1 * (1.0 + 1e-12)
    cond_b = lip <= w.c2 * (1.0 + 1e-12)

    tail = tau[r > 0.99] if np.any(r > 0.99) else tau[-10:]
    decreasing = bool(np.all(np.diff(tail) <= 0.0))
    tp_end = float(w.tau_prime(r[-1]))
    return CertificationReport(
        sup_tau_ratio=sup_ratio,
        measured_lipschitz=lip,
        cond_a=cond_a,
        cond_b=cond_b,
        tau_prime_at_rmax=tp_end,
        tau_decreasing_near_one=decreasing,
        tau_positive=tau_positive,
        m_tau=w.m_tau,
    )


def weight_from_json(spec: dict) -> RadialWeight:
    """Build a weight from its JSON fragment, e.g. {"family":"exponential","alpha":1.0}."""
    require_keys(spec, "weight")
    family = spec.get("family")
    if family == "exponential":
        require_keys(spec, "exponential weight", "alpha", numbers=("alpha",))
        return make_exponential_weight(spec["alpha"])
    if family == "double_exponential":
        abc = ("alpha", "beta", "gamma")
        require_keys(spec, "double_exponential weight", *abc, numbers=abc)
        return make_double_exponential_weight(spec["alpha"], spec["beta"], spec["gamma"])
    raise DomainError(f"unknown weight family {family!r}")
