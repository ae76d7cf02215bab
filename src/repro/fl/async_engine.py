"""Buffered-asynchronous round engine with pluggable scheduling policies.

Synchronous FL pays the straggler tax every round: the barrier waits for
the slowest participant (``round_time = max(client_times)``, the regime the
paper's Table 6 measures).  This engine removes the barrier the way FedBuff
(Nguyen et al.) does, over a simulated event clock:

* A :class:`VirtualClock` orders ``(client, model)`` work completions by
  their ``device/latency.py``-derived finish times.  The *compute* still
  runs through the regular :class:`~repro.fl.executor.RoundExecutor`
  backends (serial/thread/process) in deterministic dispatch waves — only
  the simulated timeline is asynchronous.
* The server keeps ``concurrency`` clients in flight (over-selection: more
  than ``buffer_k``) and fires :meth:`Strategy.aggregate_buffered` on the
  first ``buffer_k`` arrivals.  Updates dispatched against older server
  weights carry a staleness count; the default hook discounts them by
  ``staleness_discount ** staleness``.

Participation, cadence, and straggler handling are policies from
:mod:`~repro.fl.scheduling`, consulted at every dispatch wave:

* the **selector** picks each wave's clients from the not-in-flight pool;
* the **pacing policy** supplies the step's effective ``buffer_k`` and a
  per-client deadline (``static`` reproduces the old global knobs;
  ``adaptive`` rescales the buffer with the observed arrival rate;
  ``quantile`` estimates per-device-class deadlines from completed round
  times) and is fed every arrival's true duration;
* the **straggler policy** sees each dispatch *before* compute runs:
  ``drop`` leaves it alone — an arrival past its deadline is discarded
  with the wasted compute metered (``TrainingLog.dropped_updates`` /
  ``dropped_macs``; the dropped upload never lands, so ``bytes_up`` is not
  charged) — while ``downsize`` re-assigns a predicted-late client the
  largest *compatible smaller* model whose estimated round time fits the
  deadline, so the slot yields a usable update instead of a drop
  (``TrainingLog.downsized_updates``).

**Determinism contract** (same as the sync engine): event ties break on
``(finish_time, dispatch_seq)``, every work item's RNG derives from
``SeedSequence(seed, spawn_key=(wave, client, sub))``, and selection /
assignment / aggregation consume the coordinator RNG in event order — so
async runs are bit-reproducible for a fixed seed across all executor
backends.  The default policy stack (uniform/static/drop) consumes that
RNG in exactly the pre-subsystem order.

``round_time`` semantics differ from sync mode: each
:class:`~repro.fl.types.RoundRecord` covers one buffered aggregation step
and its ``round_time`` is the simulated clock advance since the previous
step, so ``sum(round_time)`` is total simulated time in both modes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..stateful import Stateful, check_schema, schema_tag
from .executor import RoundExecutor, TrainItem
from .faults import ItemFailure, UpdateValidator
from .scheduling import (
    ClientSelector,
    FleetStore,
    make_pacing,
    make_selector,
    make_straggler,
)
from .strategy import Strategy
from .types import (
    ArrivalRecord,
    ClientUpdate,
    FaultRecord,
    FLClient,
    RoundRecord,
    SchedulerRecord,
    TrainingLog,
    client_update_from_state,
    client_update_to_state,
)

__all__ = ["VirtualClock", "BufferedAsyncEngine"]


class VirtualClock(Stateful):
    """A deterministic simulated-time event queue.

    Events are ``(time, dispatch_seq, payload)`` triples popped in
    lexicographic order — the ``dispatch_seq`` tie-break is what keeps runs
    bit-reproducible when two clients finish at the exact same simulated
    instant.  ``now`` only moves forward.
    """

    schema = schema_tag("VirtualClock")

    def __init__(self) -> None:
        self._events: list[tuple[float, int, "_Pending"]] = []
        self.now = 0.0

    def schedule(self, time: float, seq: int, payload: "_Pending") -> None:
        heapq.heappush(self._events, (time, seq, payload))

    def pop(self) -> tuple[float, int, "_Pending"]:
        """Advance to (and return) the next completion event."""
        if not self._events:
            raise RuntimeError("virtual clock has no scheduled events")
        time, seq, payload = heapq.heappop(self._events)
        self.now = max(self.now, time)
        return time, seq, payload

    def __len__(self) -> int:
        return len(self._events)

    def state_dict(self) -> dict:
        # Sorting is safe (and canonical): dispatch_seq is unique, so the
        # (time, seq) prefix always decides and payloads never compare.
        return {
            "schema": self.schema,
            "now": self.now,
            "events": [
                {"time": t, "seq": s, "pending": _pending_to_state(p)}
                for t, s, p in sorted(self._events, key=lambda e: (e[0], e[1]))
            ],
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self.now = float(payload["now"])
        self._events = [
            (float(e["time"]), int(e["seq"]), _pending_from_state(e["pending"]))
            for e in payload["events"]
        ]
        heapq.heapify(self._events)


@dataclass
class _Pending:
    """One in-flight client: its precomputed updates await their finish time."""

    dispatch_seq: int
    client_id: int
    model_ids: tuple[str, ...]
    dispatch_time: float
    finish_time: float
    version: int  # server aggregation count at dispatch (staleness anchor)
    dropped: bool
    downsized: bool = False
    updates: list[ClientUpdate] = field(default_factory=list)


def _pending_to_state(p: _Pending) -> dict:
    return {
        "dispatch_seq": p.dispatch_seq,
        "client_id": p.client_id,
        "model_ids": list(p.model_ids),
        "dispatch_time": p.dispatch_time,
        "finish_time": p.finish_time,
        "version": p.version,
        "dropped": p.dropped,
        "downsized": p.downsized,
        "updates": [client_update_to_state(u) for u in p.updates],
    }


def _pending_from_state(payload: dict) -> _Pending:
    return _Pending(
        dispatch_seq=int(payload["dispatch_seq"]),
        client_id=int(payload["client_id"]),
        model_ids=tuple(payload["model_ids"]),
        dispatch_time=float(payload["dispatch_time"]),
        finish_time=float(payload["finish_time"]),
        version=int(payload["version"]),
        dropped=bool(payload["dropped"]),
        downsized=bool(payload["downsized"]),
        updates=[client_update_from_state(u) for u in payload["updates"]],
    )


class BufferedAsyncEngine(Stateful):
    """FedBuff-style buffered aggregation over a simulated event clock.

    The coordinator owns the outer loop (eval cadence, convergence,
    logging); this engine replaces ``_run_round``'s barrier with
    :meth:`step`, keeping in-flight work alive across steps.  Costs are
    accounted when an arrival (or drop) event fires, so the ledger matches
    what the simulated server has actually seen at each aggregation.
    """

    def __init__(
        self,
        strategy: Strategy,
        clients: list[FLClient],
        config,  # CoordinatorConfig; untyped to avoid a circular import
        executor: RoundExecutor,
        rng: np.random.Generator,
        selector: ClientSelector | None = None,
        validator: UpdateValidator | None = None,
        transport=None,  # TransportCodec | None (coordinator-owned)
        fleet: FleetStore | None = None,
    ):
        self.strategy = strategy
        self.clients = clients
        self.config = config
        self.executor = executor
        self.rng = rng
        self.validator = validator
        self.transport = transport
        self._devices = {c.client_id: c.device for c in clients}
        self.clock = VirtualClock()
        self.buffer_k = config.buffer_k or max(1, config.clients_per_round // 2)
        self.concurrency = min(
            config.async_concurrency or config.clients_per_round, len(clients)
        )
        self.deadline_s = config.deadline_s
        # The columnar fleet store backs every per-wave decision (candidate
        # views, straggler prescreen, quantile windows); the coordinator
        # shares its instance, a standalone engine builds its own.
        self.fleet = (
            fleet
            if fleet is not None
            else FleetStore(clients, evict_after=getattr(config, "evict_after", None))
        )
        self.selector = selector or make_selector(config.selector, seed=config.seed)
        self.selector.bind_fleet(self.fleet)
        self.pacing = make_pacing(
            config.pacing,
            base_k=self.buffer_k,
            deadline_s=config.deadline_s,
            max_k=self.concurrency,
            fleet=self.fleet,
        )
        self.straggler = make_straggler(config.straggler)
        self._in_flight: set[int] = set()
        self._dispatch_seq = 0
        self._wave = 0
        self._version = 0  # completed aggregation steps
        # Per-step scheduling accumulators, reset at each step() entry;
        # _fill_slots (only ever called from step) meters into them.
        self._step_requested = 0
        self._step_selected = 0
        self._step_downsized = 0
        self._step_events: list[str] = []
        # One models dict per aggregation epoch: server models only mutate
        # in aggregate_buffered, so every wave in between reuses the same
        # dict (saves rebuilding it per arrival).  The process executor
        # compares per-model version counters at publish time, so the waves
        # between aggregations publish nothing, and the publish after an
        # aggregation ships a delta of just the <= buffer_k models the step
        # touched — not the whole suite.
        self._models_epoch: dict | None = None

    def _models(self) -> dict:
        if self._models_epoch is None:
            self._models_epoch = self.strategy.models()
        return self._models_epoch

    # ------------------------------------------------------------------
    def _fill_slots(self) -> None:
        """Dispatch fresh work until ``concurrency`` clients are in flight.

        Each call is one *wave*: the selector and assignment draw from the
        coordinator RNG, the straggler policy gets a veto on predicted-late
        dispatches, then the whole wave's training runs through the
        executor against the current server models (this is where
        serial/thread/process parallelism applies).  The wave index doubles
        as the executor's ``round_idx``, so every ``(wave, client, sub)``
        work item gets a unique SeedSequence spawn key — a client is never
        dispatched twice in one wave because it stays in flight until its
        completion (or drop) event fires.
        """
        need = self.concurrency - len(self._in_flight)
        if need <= 0:
            return
        # O(active) candidate pool: an exclusion view over the columnar
        # store (registration order, in-flight rows skipped) instead of
        # rebuilding an O(registered) Python list every wave.  The view
        # presents the exact candidate ordering the list comprehension
        # produced, so selection streams are unchanged (CONTRACTS.md I12).
        available = self.fleet.available_view()
        if not len(available):
            return
        wave = self._wave
        self._wave += 1
        want = min(need, len(available))
        selected = self.selector.select(wave, available, want, self.rng)
        self._step_requested += need
        self._step_selected += len(selected)
        assignments = self.strategy.assign(wave, selected, self.rng)
        models = self._models()
        # Straggler policy: a predicted-late client may be re-assigned a
        # smaller compatible model before any compute is spent.  The whole
        # wave resolves in one call so the policy can batch its predicted-
        # late prescreen over the fleet's device columns.
        deadlines: dict[int, float | None] = {
            client.client_id: self.pacing.deadline_for(client) for client in selected
        }
        resolved = self.straggler.resolve_wave(
            selected,
            assignments,
            deadlines,
            models,
            self.config.trainer,
            self.strategy.compatible_models,
            fleet=self.fleet,
        )
        downsized_ids: set[int] = set()
        for client in selected:
            cid = client.client_id
            revised, downsized = resolved[cid]
            if downsized:
                mids = assignments[cid]
                assignments[cid] = revised
                downsized_ids.add(cid)
                self._step_downsized += 1
                self._step_events.append(
                    f"downsized client {cid}: {mids[0]} -> "
                    f"{revised[0]} to fit deadline {deadlines[cid]:g}s"
                )
        items = [
            TrainItem(model_id, client.client_id, sub_idx)
            for client in selected
            for sub_idx, model_id in enumerate(assignments[client.client_id])
        ]
        results = self.executor.train_round(wave, items, models)
        # Permanent failures (retry budget exhausted): the whole client is
        # excluded from flight — its partial updates are discarded, it is
        # never scheduled on the clock, and the next wave may reselect it.
        # The executor's fault ledger carries the failure; the coordinator
        # drains it into the log after the step.
        failed_ids = {
            it.client_id
            for it, r in zip(items, results)
            if isinstance(r, ItemFailure)
        }
        # Transport encode at *dispatch*: the update crosses the wire
        # against the dispatch-time server models (exactly what ``models``
        # holds — the server may aggregate before this arrival lands), and
        # with ``wire_time`` the re-priced round_time must be known before
        # the finish event is scheduled below.  Item order keeps the
        # error-feedback residual stream deterministic.
        if self.transport is not None and self.transport.config.has_update:
            for item, update in zip(items, results):
                if item.client_id in failed_ids:
                    continue
                self.transport.encode_update(
                    update,
                    models.get(item.model_id),
                    device=self._devices[item.client_id],
                    wire_time=self.config.wire_time,
                )
        per_client: dict[int, list[ClientUpdate]] = {}
        for item, update in zip(items, results):
            if item.client_id not in failed_ids:
                per_client.setdefault(item.client_id, []).append(update)
        for client in selected:
            if client.client_id in failed_ids:
                self._step_events.append(
                    f"client {client.client_id} failed permanently in wave "
                    f"{wave}; slot released"
                )
                continue
            ups = per_client[client.client_id]
            # Sub-models train sequentially on-device (as in sync mode).
            duration = float(sum(u.round_time for u in ups))
            deadline = deadlines[client.client_id]
            dropped = deadline is not None and duration > deadline
            # The server stops waiting at the deadline; the straggler's own
            # finish time is recorded for the log either way.
            event_time = self.clock.now + (
                min(duration, deadline) if dropped else duration
            )
            seq = self._dispatch_seq
            self._dispatch_seq += 1
            self._in_flight.add(client.client_id)
            self.fleet.mark_in_flight(client.client_id)
            self.clock.schedule(
                event_time,
                seq,
                _Pending(
                    dispatch_seq=seq,
                    client_id=client.client_id,
                    model_ids=tuple(assignments[client.client_id]),
                    dispatch_time=self.clock.now,
                    finish_time=self.clock.now + duration,
                    version=self._version,
                    dropped=dropped,
                    downsized=client.client_id in downsized_ids,
                    updates=ups,
                ),
            )

    # ------------------------------------------------------------------
    def step(self, step_idx: int, log: TrainingLog) -> RoundRecord:
        """Run one buffered aggregation step; returns its RoundRecord.

        Collects arrivals (dropping deadline violators) until the pacing
        policy's effective ``buffer_k`` usable updates are buffered, fires
        the strategy's staleness-aware aggregation, and meters every event
        — kept, dropped, or downsized — into the log's cost ledger.
        """
        t_start = self.clock.now
        effective_k = self.pacing.buffer_k(step_idx)
        fallback_before = getattr(self.selector, "offline_fallback_rounds", 0)
        self._step_requested = 0
        self._step_selected = 0
        self._step_downsized = 0
        self._step_events = []
        buffered: list[_Pending] = []
        arrivals: list[ArrivalRecord] = []
        step_macs = 0.0
        bytes_down = 0
        bytes_up = 0
        raw_bytes_up = 0
        consecutive_drops = 0
        consecutive_quarantines = 0
        drop_limit = max(64, 8 * self.concurrency)
        while len(buffered) < effective_k:
            self._fill_slots()
            _, _, pending = self.clock.pop()
            self._in_flight.discard(pending.client_id)
            self.fleet.clear_in_flight(pending.client_id)
            staleness = self._version - pending.version
            self.pacing.observe_arrival(
                pending.client_id,
                pending.finish_time - pending.dispatch_time,
                self.clock.now,
                pending.dropped,
            )
            macs = float(sum(u.macs_spent for u in pending.updates))
            step_macs += macs
            bytes_down += sum(u.bytes_down for u in pending.updates)
            if pending.dropped:
                arrivals.append(
                    ArrivalRecord(
                        dispatch_seq=pending.dispatch_seq,
                        client_id=pending.client_id,
                        model_ids=pending.model_ids,
                        dispatch_time=pending.dispatch_time,
                        finish_time=pending.finish_time,
                        staleness=staleness,
                        dropped=True,
                        downsized=pending.downsized,
                    )
                )
                log.dropped_updates += 1
                log.dropped_macs += macs
                consecutive_drops += 1
                if consecutive_drops > drop_limit:
                    which = (
                        f"per-class deadline quantiles {self.pacing.deadline_quantiles()}"
                        if self.config.pacing == "quantile"
                        else f"deadline_s={self.deadline_s}"
                    )
                    raise RuntimeError(
                        f"{which} dropped {consecutive_drops} arrivals in a row "
                        "— no client can finish inside its deadline; raise it "
                        "(or use the downsize straggler policy)"
                    )
                continue
            consecutive_drops = 0
            # The arrival reached the server: the upload is charged before
            # validation (a quarantined update still crossed the network).
            bytes_up += sum(u.bytes_up for u in pending.updates)
            raw_bytes_up += sum(u.raw_bytes_up for u in pending.updates)
            kept = pending.updates
            if self.validator is not None:
                kept = []
                for u in pending.updates:
                    reason = self.validator.admit(u)
                    if reason is None:
                        kept.append(u)
                        continue
                    log.quarantined_updates += 1
                    log.faults.append(
                        FaultRecord(
                            round_idx=step_idx,
                            kind="update_rejected",
                            action="quarantined",
                            client_id=u.client_id,
                            model_id=u.model_id,
                            detail=reason,
                        )
                    )
                    self._step_events.append(f"quarantined update: {reason}")
            quarantined_all = bool(pending.updates) and not kept
            arrivals.append(
                ArrivalRecord(
                    dispatch_seq=pending.dispatch_seq,
                    client_id=pending.client_id,
                    model_ids=pending.model_ids,
                    dispatch_time=pending.dispatch_time,
                    finish_time=pending.finish_time,
                    staleness=staleness,
                    dropped=False,
                    downsized=pending.downsized,
                    quarantined=quarantined_all,
                )
            )
            if quarantined_all:
                # Buffers nothing: every update failed validation.  Guarded
                # like drops so a fully poisoned fleet cannot spin forever.
                consecutive_quarantines += 1
                if consecutive_quarantines > drop_limit:
                    raise RuntimeError(
                        f"quarantine rejected {consecutive_quarantines} whole "
                        "arrivals in a row — every client's updates are "
                        "failing validation; check the fault spec or widen "
                        "quarantine_norm_mult"
                    )
                continue
            consecutive_quarantines = 0
            pending.updates = kept
            buffered.append(pending)

        updates = [u for p in buffered for u in p.updates]
        staleness_per_update = [
            self._version - p.version for p in buffered for _ in p.updates
        ]
        events = self.strategy.aggregate_buffered(
            step_idx,
            updates,
            staleness_per_update,
            self.rng,
            self.config.staleness_discount,
        )
        self._version += 1
        self._models_epoch = None  # server models changed; next wave re-snapshots
        self.selector.observe_round(step_idx, updates)

        log.total_macs += step_macs
        log.total_bytes_down += bytes_down
        log.total_bytes_up += bytes_up
        log.total_raw_bytes_up += raw_bytes_up
        log.downsized_updates += self._step_downsized
        events = list(events or [])
        events.extend(self._step_events)
        dropped_here = sum(1 for a in arrivals if a.dropped)
        if dropped_here:
            # Only quantile pacing has per-class deadlines; static and
            # adaptive both hold every client to the one global deadline_s.
            deadline_desc = (
                "their per-class deadlines"
                if self.config.pacing == "quantile"
                else f"deadline {self.deadline_s}s"
            )
            events.append(
                f"dropped {dropped_here} straggler arrival(s) past {deadline_desc}"
            )
        counters = self.strategy.scheduler_counters()
        # Selector-state eviction (the fleet's utility columns) joins the
        # strategy-side eviction in one meter; both are 0 unless
        # evict_after is configured.
        evicted = int(counters.get("evicted", 0)) + self.fleet.advance(step_idx)
        log.evicted_clients += evicted
        offline_fallback = (
            getattr(self.selector, "offline_fallback_rounds", 0) - fallback_before
        )
        return RoundRecord(
            round_idx=step_idx,
            participants=[p.client_id for p in buffered],
            assignments={p.client_id: list(p.model_ids) for p in buffered},
            mean_loss=float(np.mean([u.train_loss for u in updates])),
            macs=step_macs,
            bytes_down=bytes_down,
            bytes_up=bytes_up,
            raw_bytes_up=raw_bytes_up,
            round_time=float(self.clock.now - t_start),
            num_models=len(self.strategy.models()),
            events=events,
            arrivals=arrivals,
            scheduler=SchedulerRecord(
                selector=self.config.selector,
                pacing=self.config.pacing,
                straggler=self.config.straggler,
                requested=self._step_requested,
                selected=self._step_selected,
                effective_buffer_k=effective_k,
                deadline_s=self.deadline_s,
                deadline_quantiles=self.pacing.deadline_quantiles(),
                downsized=self._step_downsized,
                dropped=dropped_here,
                evicted=evicted,
                offline_fallback_rounds=offline_fallback,
            ),
        )

    # ------------------------------------------------------------------
    # durability (Stateful)
    # ------------------------------------------------------------------
    schema = schema_tag("BufferedAsyncEngine")

    def state_dict(self) -> dict:
        """Everything live between two :meth:`step` calls.

        Checkpoints are taken at the wave-drain barrier (between steps), so
        the per-step accumulators are known-zero and omitted; what must
        survive is the in-flight work — the clock's pending events carry
        each dispatched client's precomputed update tensors — plus the
        counters that anchor staleness, wave seeding, and dispatch-order
        tie-breaks.  The selector belongs to the coordinator's payload (one
        shared instance); pacing and straggler policies are engine-owned.
        """
        return {
            "schema": self.schema,
            "clock": self.clock.state_dict(),
            "in_flight": sorted(self._in_flight),
            "dispatch_seq": self._dispatch_seq,
            "wave": self._wave,
            "version": self._version,
            "pacing": self.pacing.state_dict(),
            "straggler": self.straggler.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        check_schema(payload, self.schema)
        self.clock.load_state_dict(payload["clock"])
        self._in_flight = {int(cid) for cid in payload["in_flight"]}
        self.fleet.set_in_flight_ids(self._in_flight)
        self._dispatch_seq = int(payload["dispatch_seq"])
        self._wave = int(payload["wave"])
        self._version = int(payload["version"])
        self.pacing.load_state_dict(payload["pacing"])
        self.straggler.load_state_dict(payload["straggler"])
        self._models_epoch = None
