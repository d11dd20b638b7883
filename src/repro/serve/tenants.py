"""Per-tenant routing: token-bucket quotas and admission control.

A multi-tenant server must bound what any one tenant can do to the
others.  Each :class:`TenantSpec` carries a sustained request rate
(``quota_rps``) enforced by a classic token bucket over the *virtual*
clock: ``burst`` tokens capacity, refilled continuously at the quota
rate, one token per admitted request.  On top of the quotas sits the
:class:`AdmissionController`: every request is checked against its
tenant's bucket **and** the global queue depth bound before it may
touch the batcher, and a refusal is a typed
:class:`~repro.errors.ShedError` — load shedding the caller can see,
count and back off from, instead of an unbounded queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ServeError, ShedError

__all__ = ["AdmissionController", "TenantSpec", "TokenBucket"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity and entitlement."""

    name: str
    #: Sustained admitted request rate; ``inf`` disables the quota.
    quota_rps: float = math.inf
    #: Token bucket capacity — the burst a tenant may front-load.
    burst: int = 32
    #: Relative share of synthetic load-generator traffic.
    weight: float = 1.0


class TokenBucket:
    """Continuous-refill token bucket on the virtual timeline."""

    def __init__(self, rate_rps: float, burst: int, *,
                 start_s: float = 0.0):
        if rate_rps <= 0:
            raise ServeError(
                f"token bucket rate must be positive, got {rate_rps}")
        if burst < 1:
            raise ServeError(
                f"token bucket burst must be >= 1, got {burst}")
        self.rate_rps = float(rate_rps)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._refilled_s = float(start_s)

    def tokens(self, now: float) -> float:
        return self._peek(now)

    def try_take(self, now: float) -> bool:
        """Take one token at virtual time ``now`` if one is available."""
        self._tokens = self._peek(now)
        self._refilled_s = max(self._refilled_s, now)
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True

    def _peek(self, now: float) -> float:
        elapsed = max(0.0, now - self._refilled_s)
        return min(float(self.burst),
                   self._tokens + elapsed * self.rate_rps)


class AdmissionController:
    """The gate between arriving requests and the batcher queue."""

    def __init__(self, tenants, *, max_queue_depth: int = 256,
                 start_s: float = 0.0):
        if max_queue_depth < 1:
            raise ServeError(
                f"queue depth bound must be >= 1, got {max_queue_depth}")
        self.max_queue_depth = int(max_queue_depth)
        self.tenants: dict[str, TenantSpec] = {}
        self._buckets: dict[str, TokenBucket | None] = {}
        for spec in tenants:
            if spec.name in self.tenants:
                raise ServeError(f"duplicate tenant {spec.name!r}")
            self.tenants[spec.name] = spec
            self._buckets[spec.name] = (
                None if math.isinf(spec.quota_rps)
                else TokenBucket(spec.quota_rps, spec.burst,
                                 start_s=start_s))
        if not self.tenants:
            raise ServeError("a server needs at least one tenant")

    def admit(self, tenant: str, now: float, depth: int) -> TenantSpec:
        """Admit or shed one request at virtual time ``now``.

        Order matters: an unknown tenant is the caller's bug
        (:class:`ServeError`), a full queue sheds *before* the quota is
        charged (the tenant keeps its token for the retry), and an
        empty bucket sheds with ``reason="quota"``.
        """
        spec = self.tenants.get(tenant)
        if spec is None:
            raise ServeError(
                f"unknown tenant {tenant!r}; known:"
                f" {sorted(self.tenants)}")
        if depth >= self.max_queue_depth:
            raise ShedError(
                tenant, "queue",
                f"queue depth {depth} at bound {self.max_queue_depth}")
        bucket = self._buckets[tenant]
        if bucket is not None and not bucket.try_take(now):
            raise ShedError(
                tenant, "quota",
                f"token bucket empty at {spec.quota_rps:g} req/s")
        return spec
