"""One run of one workload in this (fresh) interpreter; prints one JSON line.

Started by ``run.py``, never imported by it: each run gets fresh
process-global model and cell id counters, a fresh peak-RSS counter and
its own import warm-up.  Usage::

    python3 perfbench/subrun.py --workload NAME --seed N --setup-reps R \
        --tmp DIR [--trace [--trace-out FILE]]

Times are read from a ``BlockingClock`` (``clock.py``): CPU time on the
run's blocking path, which includes the busiest pool worker of every
executor dispatch.  Untraced, the only instrumentation is that clock's
hook on the process executor's dispatch calls, a reading at the end of
every ``FleetStore.advance`` (called exactly once per round in both
modes), followed by one host-speed probe sample, and a reading at the end
of every ``Coordinator.evaluate``.  Probe samples are left out of every
reported time.  With ``--trace`` the span tracer is installed instead of
the probe, after set-up; ``--trace-out`` writes its Chrome trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time

from clock import BlockingClock, Probe
from workloads import WORKLOADS, build, self_check

# Probe samples before each set-up repetition.
SETUP_PROBES = 10


def timed_hook(cls, attr: str, clock: BlockingClock, stamps: list, after=None) -> None:
    """Append ``clock.now()`` to ``stamps`` whenever ``cls.attr`` returns,
    then run ``after()``, if given, outside the clock."""
    original = vars(cls)[attr]

    def hooked(*args, **kwargs):
        out = original(*args, **kwargs)
        stamps.append(clock.now())
        if after is not None:
            clock.left_out(after)
        return out

    setattr(cls, attr, hooked)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-reps", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    import numpy as np

    from repro.fl import Coordinator
    from repro.fl.executor import ProcessPoolRoundExecutor
    from repro.fl.export import log_to_dict
    from repro.fl.scheduling.fleet import FleetStore
    from repro.nn.cells import cell_id_counter, set_cell_id_counter
    from repro.nn.model import model_id_counter, set_model_id_counter

    ckpt_dir = (
        tempfile.mkdtemp(prefix="ckpt-", dir=args.tmp)
        if "checkpoint_every" in wl.overrides
        else None
    )
    try:
        # Set-up is repeated from identical id counters, so every repetition
        # builds the same objects; the last one is the one that runs.
        ids = (model_id_counter(), cell_id_counter())
        setup_times = []
        probe = Probe()
        clock = BlockingClock()
        for _ in range(args.setup_reps):
            clock.left_out(probe.sample, SETUP_PROBES)
            strategy = coord = None
            set_model_id_counter(ids[0])
            set_cell_id_counter(ids[1])
            t0 = clock.now()
            strategy, coord = build(wl, args.seed, ckpt_dir)
            setup_times.append(clock.now() - t0)
        setup_probes = list(probe.samples)

        for attr in ("train_round", "eval_round", "logits_round", "eval_and_logits_round"):
            clock.hook_dispatch(ProcessPoolRoundExecutor, attr)
        round_ends: list[float] = []
        eval_ends: list[float] = []
        # The tracer would count probe samples into the fleet.advance span.
        timed_hook(FleetStore, "advance", clock, round_ends, None if args.trace else probe.sample)
        timed_hook(Coordinator, "evaluate", clock, eval_ends)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer().install()
        wall_start = time.perf_counter()
        t_start = clock.now()
        log = coord.run()
        run_s = clock.now() - t_start
        wall_s = time.perf_counter() - wall_start
        if tracer is not None:
            tracer.uninstall()
        run_probes = probe.samples[len(setup_probes):]
        problems = self_check(wl, log, strategy, ckpt_dir)
    finally:
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    if len(round_ends) != len(log.rounds) or len(eval_ends) != len(log.evals):
        problems.append(
            f"{len(round_ends)} round ends for {len(log.rounds)} rounds, "
            f"{len(eval_ends)} evaluate calls for {len(log.evals)} evals"
        )
    durations = np.diff([t_start] + round_ends)
    target_round, time_to_target = next(
        (
            (ev.round_idx, t - t_start)
            for ev, t in zip(log.evals, eval_ends)
            if ev.mean_accuracy >= wl.target_acc
        ),
        (None, None),
    )

    # Work accounting: sync rounds list assignments, async steps list
    # arrivals (dropped ones trained but never landed).
    cfg = coord.config
    n_train = {c.client_id: len(c.data.y_train) for c in coord.clients}
    steps, batch = cfg.trainer.local_steps, cfg.trainer.batch_size
    dispatched = log.failed_updates
    samples = 0
    for r in log.rounds:
        work = (
            [(a.client_id, len(a.model_ids), a.dropped) for a in r.arrivals]
            if log.mode == "async"
            else [(cid, len(mids), False) for cid, mids in r.assignments.items()]
        )
        for cid, n_items, dropped in work:
            dispatched += n_items
            if not dropped:
                samples += n_items * steps * min(batch, n_train[cid])
    workers = (cfg.max_workers or 0) if cfg.executor == "process" else 0
    if len(clock.workers_seen) < workers:
        problems.append(
            f"the clock saw {len(clock.workers_seen)} child processes for {workers} pool "
            "workers, so it would leave their CPU time out"
        )
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    evals_cached = sum(ev.cached_clients for ev in log.evals)
    evals_total = sum(ev.cached_clients + ev.evaluated_clients for ev in log.evals)

    trajectory = json.dumps(log_to_dict(log), sort_keys=True).encode()
    out = {
        "workload": wl.name,
        "seed": args.seed,
        "digest": hashlib.blake2b(trajectory, digest_size=8).hexdigest(),
        "problems": problems,
        "setup_s": statistics.median(setup_times),
        "probe_setup_s": statistics.median(setup_probes),
        "run_s": run_s,
        "wall_s": wall_s,
        "probe_run_s": statistics.median(run_probes) if run_probes else None,
        "probe_rounds": run_probes,
        "dispatches": clock.dispatches,
        "workers_seen": len(clock.workers_seen),
        "rounds": len(durations),
        "round_s": durations.tolist(),
        "time_to_target_s": time_to_target,
        "target_round": target_round,
        "final_acc": log.final_accuracy(),
        "train_macs": log.total_macs,
        "update_bytes": log.total_bytes_up,
        "raw_update_bytes": log.total_raw_bytes_up,
        "peak_rss_mb": (usage + workers * child) / 1024.0,
        "samples": samples,
        "dispatched": dispatched,
        "failed": log.failed_updates + log.quarantined_updates,
        "downsized": log.downsized_updates,
        "dropped": log.dropped_updates,
        "quarantined": log.quarantined_updates,
        "retries": log.retries,
        "worker_restarts": log.worker_restarts,
        "publish_raw_bytes": log.publish_raw_bytes_total,
        "publish_wire_bytes": log.publish_wire_bytes_total,
        "cached_clients": evals_cached,
        "eval_clients": evals_total,
        "models": len(strategy.models()),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_table()
        out["items"] = tracer.items
        out["top_level_s"] = tracer.top_level_busy()
        if args.trace_out:
            tracer.write_chrome(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
