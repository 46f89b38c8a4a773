"""The :class:`AutotuneManager`: controllers wired to a live service.

The manager is the only autotune component that touches mutable service
state.  :meth:`on_batch` is called by
:meth:`repro.service.AlignmentService._dispatch` (under the service lock)
with one batch's telemetry and does four things:

1. feeds the measured throughput into the kill-switch guard;
2. feeds the kernel stats into the batch's bin controller and the
   engine-knob controller;
3. resolves any proposals — planner gate, then actuate (``"on"``) or
   count (``"advise"``);
4. reverts *everything* to the static configuration the moment measured
   GCUPS regresses past the configured fraction of the pre-decision
   baseline (and stays reverted: a tripped kill-switch ends tuning for
   the service's lifetime).

Instrumentation lands in the service's scoped registry:
``repro_autotune_decisions_total{knob,action}`` counters, per-bin
``repro_autotune_bin_batch_size{length_bin}`` gauges, the engine-knob
gauges, ``repro_autotune_active``, and one ``autotune.decide`` span per
resolved decision.
"""

from __future__ import annotations

from ..core.xdrop_batch import (
    DEFAULT_COMPACT_THRESHOLD,
    DEFAULT_TILE_WIDTH,
    BatchKernelStats,
)
from ..errors import ConfigurationError
from .controller import BinController, Decision, EngineKnobController
from .options import AutotuneOptions
from .planner import WhatIfPlanner

__all__ = ["AutotuneManager", "tunable_knobs"]

#: Resolved decisions kept on the manager for stats()/examples/tests.
_DECISION_HISTORY = 256


def tunable_knobs(engine) -> tuple[str, ...]:
    """Engine-level override knobs *engine* actually exposes.

    Engines advertise their result-invariant tuning surface via a
    ``TUNABLE_KNOBS`` class attribute (the batched engine exposes
    ``tile_width``/``compact_threshold``; the other engines have neither
    compaction nor column tiling, so they advertise none).
    ``None`` — e.g. the process transport, whose workers rebuild engines
    in their own interpreters — yields an empty surface.
    """
    if engine is None:
        return ()
    return tuple(
        knob
        for knob in getattr(engine, "TUNABLE_KNOBS", ())
        if hasattr(engine, knob)
    )


class AutotuneManager:
    """Per-service autotune state machine (see module docstring)."""

    def __init__(
        self,
        mode: str,
        options: AutotuneOptions,
        batcher,
        engine=None,
        base_batch_size: int = 64,
        obs=None,
        planner: WhatIfPlanner | None = None,
    ) -> None:
        if mode not in ("advise", "on"):
            raise ConfigurationError(
                f"autotune mode must be 'advise' or 'on', got {mode!r}"
            )
        self.mode = mode
        self.options = options
        self.batcher = batcher
        self.engine = engine
        self.base_batch_size = int(base_batch_size)
        self.obs = obs
        self.planner = planner if planner is not None else (
            WhatIfPlanner() if options.planner else None
        )
        self._controllers: dict[int, BinController] = {}
        self._engine_knobs = tunable_knobs(engine)
        self._static_knobs = {
            knob: getattr(engine, knob) for knob in self._engine_knobs
        }
        self._engine_controller = None
        if self._engine_knobs:
            tile = getattr(engine, "tile_width", None)
            compact = getattr(engine, "compact_threshold", None)
            self._engine_controller = EngineKnobController(
                options,
                tile_width=tile if tile is not None else DEFAULT_TILE_WIDTH,
                compact_threshold=(
                    compact if compact is not None else DEFAULT_COMPACT_THRESHOLD
                ),
            )
        self.killed = False
        self.decisions: list[Decision] = []
        self.action_counts = {
            "applied": 0, "advised": 0, "vetoed": 0, "reverted": 0
        }
        # Kill-switch state: GCUPS baseline from pre-decision batches,
        # then a regression streak over post-decision batches.
        self._baseline_samples: list[float] = []
        self._baseline_gcups: float | None = None
        self._regress_streak = 0
        if obs is not None:
            self._decision_c = obs.counter(
                "repro_autotune_decisions_total",
                "autotune decisions, by knob and resolution",
                ("knob", "action"),
            )
            self._bin_size_g = obs.gauge(
                "repro_autotune_bin_batch_size",
                "per-length-bin batch size currently in force",
                ("length_bin",),
            )
            self._tile_g = obs.gauge(
                "repro_autotune_tile_width",
                "tile_width engine override currently in force",
            )
            self._compact_g = obs.gauge(
                "repro_autotune_compact_threshold",
                "compact_threshold engine override currently in force",
            )
            self._active_g = obs.gauge(
                "repro_autotune_active",
                "1 while tuning, 0 after a kill-switch revert",
            )
            self._active_g.set(1.0)
        else:
            self._decision_c = None
            self._bin_size_g = None
            self._tile_g = None
            self._compact_g = None
            self._active_g = None

    @property
    def applied(self) -> int:
        """Decisions actually actuated so far."""
        return self.action_counts["applied"]

    # ------------------------------------------------------------------ #
    def on_batch(
        self,
        length_bin: int,
        batch_size: int,
        kernel_stats: BatchKernelStats | None,
        cells: int,
        elapsed_seconds: float,
    ) -> list[Decision]:
        """Digest one dispatched batch; return the decisions it triggered."""
        if self.killed:
            return []
        if self._guard_throughput(cells, elapsed_seconds):
            return [self._revert()]
        if kernel_stats is None:
            return []
        resolved: list[Decision] = []
        controller = self._controllers.get(length_bin)
        if controller is None:
            controller = self._controllers[length_bin] = BinController(
                length_bin, self.base_batch_size, self.options
            )
        decision = controller.observe(kernel_stats)
        if decision is not None:
            resolved.append(self._resolve(controller, decision))
        if self._engine_controller is not None:
            for decision in self._engine_controller.observe(kernel_stats):
                resolved.append(
                    self._resolve(self._engine_controller, decision)
                )
        return resolved

    def _guard_throughput(self, cells: int, elapsed_seconds: float) -> bool:
        """Track measured GCUPS; True when the kill-switch must trip."""
        if elapsed_seconds <= 0 or cells <= 0:
            return False
        measured = cells / elapsed_seconds / 1e9
        if self.mode != "on" or self.applied == 0:
            # Pre-decision traffic defines what "not regressed" means.
            self._baseline_samples.append(measured)
            del self._baseline_samples[: -self.options.window]
            self._baseline_gcups = sum(self._baseline_samples) / len(
                self._baseline_samples
            )
            return False
        if self._baseline_gcups is None:
            return False
        floor = self._baseline_gcups * (1.0 - self.options.revert_fraction)
        if measured < floor:
            self._regress_streak += 1
        else:
            self._regress_streak = 0
        return self._regress_streak >= self.options.revert_batches

    # ------------------------------------------------------------------ #
    def _resolve(self, controller, decision: Decision) -> Decision:
        """Planner-gate, then apply or count one proposal."""
        growth = (
            decision.knob == "batch_size"
            and decision.proposed > decision.current
        )
        if self.planner is not None and decision.knob == "batch_size":
            window = controller.window
            decision.predicted_payoff = self.planner.payoff(
                window.merged(),
                window.batches,
                int(decision.current),
                int(decision.proposed),
            )
        vetoed = (
            growth
            and decision.predicted_payoff is not None
            and decision.predicted_payoff < self.options.planner_min_gain
        )
        if vetoed:
            decision.action = "vetoed"
            controller.reject(decision)
        elif self.mode == "advise":
            decision.action = "advised"
            controller.reject(decision)
        else:
            self._actuate(decision)
            controller.commit(decision)
            decision.action = "applied"
        self._record(decision)
        return decision

    def _actuate(self, decision: Decision) -> None:
        if decision.knob == "batch_size":
            self.batcher.set_bin_limit(
                decision.length_bin, int(decision.proposed)
            )
            if self._bin_size_g is not None:
                self._bin_size_g.set(
                    decision.proposed, length_bin=str(decision.length_bin)
                )
        else:
            setattr(self.engine, decision.knob, decision.proposed)
            gauge = (
                self._tile_g
                if decision.knob == "tile_width"
                else self._compact_g
            )
            if gauge is not None:
                gauge.set(float(decision.proposed))

    def _record(self, decision: Decision) -> None:
        self.action_counts[decision.action] += 1
        self.decisions.append(decision)
        del self.decisions[:-_DECISION_HISTORY]
        if self._decision_c is not None:
            self._decision_c.inc(knob=decision.knob, action=decision.action)
        if self.obs is not None:
            with self.obs.span(
                "autotune.decide",
                knob=decision.knob,
                action=decision.action,
                length_bin=decision.length_bin,
                current=decision.current,
                proposed=decision.proposed,
                signal=decision.signal,
                predicted_payoff=decision.predicted_payoff,
            ):
                pass

    # ------------------------------------------------------------------ #
    def _revert(self) -> Decision:
        """Kill-switch: every knob back to the static configuration."""
        self.batcher.clear_bin_limits()
        for knob, value in self._static_knobs.items():
            setattr(self.engine, knob, value)
        for controller in self._controllers.values():
            controller.reset()
            if self._bin_size_g is not None:
                self._bin_size_g.set(
                    controller.base_batch_size,
                    length_bin=str(controller.length_bin),
                )
        self.killed = True
        decision = Decision(
            knob="all",
            current=0.0,
            proposed=0.0,
            signal=self._baseline_gcups or 0.0,
            reason=(
                "measured GCUPS stayed below "
                f"{1.0 - self.options.revert_fraction:.2f}x the "
                f"pre-decision baseline for "
                f"{self.options.revert_batches} consecutive batches"
            ),
            action="reverted",
        )
        self._record(decision)
        if self._active_g is not None:
            self._active_g.set(0.0)
        if self.obs is not None:
            self.obs.event(
                "autotune_revert",
                baseline_gcups=self._baseline_gcups,
                revert_fraction=self.options.revert_fraction,
            )
        return decision

    # ------------------------------------------------------------------ #
    def bin_batch_sizes(self) -> dict[int, int]:
        """Per-bin batch sizes currently in force."""
        return {
            index: ctrl.batch_size
            for index, ctrl in sorted(self._controllers.items())
        }

    def engine_knob_values(self) -> dict[str, float]:
        """Engine overrides currently in force (empty without a surface)."""
        if self._engine_controller is None:
            return {}
        return {
            "tile_width": self._engine_controller.tile_width,
            "compact_threshold": self._engine_controller.compact_threshold,
        }

    def snapshot(self) -> dict:
        """JSON-ready state for :class:`repro.service.ServiceStats`."""
        return {
            "mode": self.mode,
            "killed": self.killed,
            "decisions": dict(self.action_counts),
            "bin_batch_sizes": {
                str(index): size
                for index, size in self.bin_batch_sizes().items()
            },
            "engine_knobs": self.engine_knob_values(),
            "baseline_gcups": self._baseline_gcups,
            "recent": [d.to_dict() for d in self.decisions[-8:]],
        }
