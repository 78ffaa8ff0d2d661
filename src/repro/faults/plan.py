"""Seeded, deterministic fault-injection plane.

Production robustness claims ("the search survives crashed workers",
"the server sheds load instead of hanging") are only claims until a
fault actually happens in a test.  This module makes faults *happen on
demand and reproducibly*: a :class:`FaultPlan` names injection sites
across the stack and decides — deterministically, from one seed —
whether each check fires.

Injection sites (see :data:`KNOWN_SITES`):

``trial.exception``
    The trial body raises before evaluation — surfaces as a normal
    *failed* (inf-error) trial, exercising the search's failed-trial
    bookkeeping.
``worker.crash``
    The worker dies mid-trial.  Soft (default): an
    :class:`InjectedCrash` escapes the trial body, which the engine
    classifies as a *crash*.  Hard (``hard=True``): the worker process
    calls ``os._exit`` — a real segfault-shaped death that breaks a
    process pool.
``worker.hang``
    The trial sleeps for ``param`` seconds before evaluating,
    exercising the engine's hard per-trial time limit.
``shm.attach``
    Shared-memory export (parent) or attach (worker) fails with
    :class:`InjectedShmError`, exercising the process backend's
    degradation to the thread backend and segment-leak accounting.
``native.build``
    The native-kernel build fails, exercising the native→numpy
    degradation contract.
``registry.read``
    A registry artifact load reports an integrity (SHA-256) mismatch,
    exercising quarantine + alias-history fallback.
``http.predict``
    A served predict is delayed by ``param`` seconds (default) or — with
    ``mode="error"`` — raises, exercising admission control and load
    shedding.

**Determinism.**  Every decision is a pure function of ``(seed, site,
key, fire-index)``: call sites that can run concurrently or in worker
processes pass a stable ``key`` (e.g. the trial's cache key + attempt
number), so the decision does not depend on thread scheduling or
process boundaries — two chaos runs with the same seed inject exactly
the same faults.  Keyless sites fall back to a per-site check counter,
which is deterministic whenever the call order is (single-threaded
chaos drivers).  ``count=`` limits are tracked per process.

The plan is **off by default** and costs one module-level ``is None``
check when inactive; nothing in the library behaves differently until
:func:`install` is called (or a plan spec is shipped to a worker).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from ..obs.metrics import REGISTRY

__all__ = [
    "KNOWN_SITES",
    "FaultError",
    "InjectedFault",
    "InjectedCrash",
    "InjectedShmError",
    "FaultRule",
    "FaultPlan",
    "install",
    "active",
    "fault_hook",
    "maybe_raise",
    "stable_unit",
]

#: every injection site the library consults (a plan naming an unknown
#: site is rejected at construction, so typos fail loudly)
KNOWN_SITES = (
    "trial.exception",
    "worker.crash",
    "worker.hang",
    "shm.attach",
    "native.build",
    "registry.read",
    "http.predict",
)


class FaultError(RuntimeError):
    """Base class of every injected failure (greppable in tracebacks)."""


class InjectedFault(FaultError):
    """A generic injected exception (``trial.exception``, error-mode
    ``http.predict``, ``registry.read``)."""


class InjectedCrash(FaultError):
    """A soft worker crash: escapes the trial body so the engine
    classifies the trial as *crash* (retryable) rather than *failed*."""


class InjectedShmError(OSError, FaultError):
    """An injected shared-memory export/attach failure.  Subclasses
    ``OSError`` so the recovery paths that catch real shm errors
    (``ENOSPC``, vanished segments) handle the injected kind too."""


def stable_unit(key) -> float:
    """A uniform [0, 1) value derived stably from ``repr(key)``.

    Used both for fault decisions and for deterministic retry-backoff
    jitter: unlike ``random.random()`` the value survives process
    boundaries, thread interleaving, and re-runs.
    """
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultRule:
    """One site's schedule: fire with ``probability`` per check, at most
    ``count`` times (per process), optionally only after the first
    ``after`` checks.  ``param`` is the site-specific scalar (hang /
    delay seconds); ``mode`` selects a site-specific flavour (e.g.
    ``http.predict`` ``"delay"`` vs ``"error"``); ``hard=True`` makes
    ``worker.crash`` kill the worker process for real."""

    site: str
    probability: float = 1.0
    count: int | None = None
    after: int = 0
    param: float | None = None
    mode: str | None = None
    hard: bool = False

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: "
                + ", ".join(KNOWN_SITES)
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def to_dict(self) -> dict:
        out = {"site": self.site, "probability": self.probability}
        if self.count is not None:
            out["count"] = self.count
        if self.after:
            out["after"] = self.after
        if self.param is not None:
            out["param"] = self.param
        if self.mode is not None:
            out["mode"] = self.mode
        if self.hard:
            out["hard"] = True
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "FaultRule":
        return cls(**d)


@dataclass
class _SiteState:
    """Per-process mutable bookkeeping for one site's rule."""

    checks: int = 0
    fired: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class FaultPlan:
    """A seeded set of :class:`FaultRule`s, queryable via
    :meth:`decide`.  Picklable-by-spec: :meth:`spec` / :meth:`from_spec`
    round-trip the plan (sans per-process counters) so process workers
    can re-instantiate it from the executor's init payload."""

    def __init__(self, rules, seed: int = 0) -> None:
        if isinstance(rules, dict):
            # convenience: {"worker.crash": 0.2, "worker.hang": {...}}
            rules = [
                FaultRule(site=site, probability=v) if not isinstance(v, dict)
                else FaultRule(site=site, **v)
                for site, v in rules.items()
            ]
        self.rules: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ValueError(f"duplicate rule for site {rule.site!r}")
            self.rules[rule.site] = rule
        self.seed = int(seed)
        self._state = {site: _SiteState() for site in self.rules}

    # -- wire form -----------------------------------------------------
    def spec(self) -> dict:
        """JSON-safe description (rules + seed), counters excluded."""
        return {
            "seed": self.seed,
            "rules": [r.to_dict() for r in self.rules.values()],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultPlan":
        return cls(
            [FaultRule.from_dict(d) for d in spec.get("rules", ())],
            seed=spec.get("seed", 0),
        )

    # -- decisions -----------------------------------------------------
    def decide(self, site: str, key=None) -> FaultRule | None:
        """Whether a check at ``site`` fires; returns the rule if so.

        With a ``key`` the decision is a pure function of
        ``(seed, site, key)`` — stable across threads, processes, and
        runs.  Without one, the per-site check counter substitutes for
        the key (deterministic when call order is).
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        st = self._state[site]
        with st.lock:
            index = st.checks
            st.checks += 1
            if index < rule.after:
                return None
            if rule.count is not None and st.fired >= rule.count:
                return None
        if key is None:
            key = index
        u = stable_unit((self.seed, site, key))
        if u >= rule.probability:
            return None
        with st.lock:
            if rule.count is not None and st.fired >= rule.count:
                return None  # lost a race to the last token
            st.fired += 1
        REGISTRY.counter(
            "repro_faults_injected_total",
            "Faults fired by the injection plane, by site.",
            site=site,
        ).inc()
        return rule

    def fired(self, site: str | None = None) -> int:
        """How many times ``site`` (or all sites) fired in this process."""
        if site is not None:
            return self._state[site].fired if site in self._state else 0
        return sum(st.fired for st in self._state.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sites = ", ".join(
            f"{r.site}={r.probability:g}" for r in self.rules.values()
        )
        return f"FaultPlan(seed={self.seed}, {sites})"


#: the process-wide active plan; ``None`` means faults are off and every
#: hook returns after one attribute read
_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan | dict | None) -> FaultPlan | None:
    """Activate ``plan`` process-wide (``None`` deactivates); returns
    the previous plan so callers can restore it."""
    global _ACTIVE
    prev = _ACTIVE
    if isinstance(plan, dict):
        plan = FaultPlan.from_spec(plan)
    _ACTIVE = plan
    return prev


def active() -> FaultPlan | None:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


def fault_hook(site: str, key=None) -> FaultRule | None:
    """The universal call-site check: ``None`` (fast path, no plan or no
    rule) or the :class:`FaultRule` that fired."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.decide(site, key=key)


def maybe_raise(site: str, key=None, exc_type: type = InjectedFault) -> None:
    """Raise ``exc_type`` if a fault fires at ``site`` (the one-liner
    for sites whose only behaviour is "this operation fails")."""
    rule = fault_hook(site, key=key)
    if rule is not None:
        raise exc_type(f"injected fault at {site}")
