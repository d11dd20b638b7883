"""Elasticity from server signals: add or drain fleet instances under load.

The autoscaler reads the server it scales — its batcher queue depth
and its own latency sketch — so a fresh server's decisions never see
an older server that shared its name (the ``condor_serve_*`` registry
series merge every server under a name).  Scale up when the batcher
queue or the p99 latency crosses its high watermark; scale down when
the server has been observed idle (empty queue, no modeled backlog)
for consecutive evaluations.  A cooldown guards against flapping, and
``min_instances``/``max_instances`` bound the fleet.

Because the latency sketch is cumulative over the run, p99 is a
*scale-up* signal only — it rises quickly under distress but decays
slowly — so scale-down relies on observed idleness instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FleetError
from repro.obs import REGISTRY
from repro.util.logging import get_logger

__all__ = ["Autoscaler", "AutoscalerConfig"]

_log = get_logger("serve.autoscaler")

_AUTOSCALE = REGISTRY.counter(
    "condor_serve_autoscale_total",
    "Autoscaler actions taken, by direction (up|down)")


@dataclass(frozen=True)
class AutoscalerConfig:
    """Scaling policy (all times in virtual seconds)."""

    #: Evaluation cadence the driving loop should honor.
    interval_s: float = 0.25
    #: Minimum quiet time between two scaling actions.
    cooldown_s: float = 1.0
    #: Queue depth at/above which the fleet scales up.
    depth_high: int = 32
    #: p99 latency at/above which the fleet scales up.
    p99_high_s: float = 0.050
    #: Consecutive idle evaluations before the fleet scales down.
    idle_evals: int = 4
    min_instances: int = 1
    max_instances: int = 4


class Autoscaler:
    """Evaluate server signals and drive the fleet's elastic verbs."""

    def __init__(self, server, launch_instance, *,
                 config: AutoscalerConfig | None = None):
        self.server = server
        #: Zero-arg callable producing a fresh, AFI-ready F1 instance.
        self.launch_instance = launch_instance
        self.config = config if config is not None else AutoscalerConfig()
        self._last_action_s = float("-inf")
        self._idle_streak = 0
        #: Every action taken: ``(virtual_s, direction, detail)``.
        self.events: list[tuple[float, str, str]] = []

    # -- signals ------------------------------------------------------------

    def signals(self, now: float) -> dict:
        """The server reads one evaluation is based on."""
        server = self.server
        return {
            "queue_depth": server.batcher.depth,
            "p99_s": server.latency_quantile(0.99),
            "backlog_s": server.backlog_s(now),
            "instances": len(server.fleet.instances),
        }

    # -- the evaluation step ------------------------------------------------

    def evaluate(self, now: float) -> str | None:
        """One scaling decision at virtual time ``now``.

        Returns ``"up"``, ``"down"`` or ``None`` (no action).
        """
        cfg = self.config
        sig = self.signals(now)
        hot = sig["queue_depth"] >= cfg.depth_high or (
            sig["p99_s"] is not None and sig["p99_s"] >= cfg.p99_high_s)
        idle = sig["queue_depth"] == 0 and sig["backlog_s"] == 0.0
        self._idle_streak = self._idle_streak + 1 if idle else 0
        if now - self._last_action_s < cfg.cooldown_s:
            return None
        if hot and sig["instances"] < cfg.max_instances:
            return self._scale_up(now, sig)
        if self._idle_streak >= cfg.idle_evals and \
                sig["instances"] > cfg.min_instances:
            return self._scale_down(now, sig)
        return None

    def _scale_up(self, now: float, sig: dict) -> str:
        instance = self.launch_instance()
        labels = self.server.fleet.add_instance(instance)
        self.server.sync_lanes(now)
        self._last_action_s = now
        self._idle_streak = 0
        detail = (f"depth={sig['queue_depth']:g}"
                  f" p99={sig['p99_s'] if sig['p99_s'] is not None else 0:.4f}"
                  f" -> +{len(labels)} slot(s)")
        self.events.append((now, "up", detail))
        _AUTOSCALE.inc(direction="up")
        _log.info("scale up at t=%.3f: %s", now, detail)
        return "up"

    def _scale_down(self, now: float, sig: dict) -> str | None:
        try:
            instance_id = self.server.fleet.drain_instance()
        except FleetError:
            return None
        self.server.sync_lanes(now)
        self._last_action_s = now
        self._idle_streak = 0
        detail = f"idle -> drained {instance_id}"
        self.events.append((now, "down", detail))
        _AUTOSCALE.inc(direction="down")
        _log.info("scale down at t=%.3f: %s", now, detail)
        return "down"
