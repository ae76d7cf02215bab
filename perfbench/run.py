"""The repository's benchmark: one command, three named FedTrans workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One benchmark run sizes a number of
workload runs from ``--seconds`` (see ``Workload.nominal_s``) and gives
each its own workload seed, ``N * 64 + i``; every workload run is a fresh
interpreter (``subrun.py``).  ``--trace 0`` reports the end-to-end
metrics as medians over those runs, the round-time percentiles over the
rounds of all of them.  ``--trace 1`` alternates untraced
and traced runs of the same seed and reports the per-layer metrics of
the traced ones; the first traced run's Chrome trace is written to
``.perfbench/traces/<workload>.json``.

Every run is checked: its trajectory digest must match the one pinned in
``digests.json`` for that workload seed (when pinned), it must pass the
workload's self-check, and a traced run must reproduce its untraced
twin's digest.  A failed check prints ``"correct": false`` and exits 1.
``--pin`` also records the digests of unpinned workload seeds it runs.
Pinned digests are always checked: a changed digest is a changed
trajectory, and re-pinning one means deleting it first, for a reason
the change states.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are
measured on the blocking-path CPU clock of ``clock.py`` and reported in
reference-box seconds (see ``REFERENCE_PROBE_S``); the report prints the
measured values beside them, and the wall time of every run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import BLAS_THREADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SEED_STRIDE = 64  # workload seeds of one benchmark seed: N*64 .. N*64+63
SUBRUN_TIMEOUT_S = 150
SETUP_REPS = 5
# About the median sample of clock.py's probe on the reference 2-core box
# in its faster phase.  Times are reported in reference-box seconds:
# measured x this / the median probe sample taken around them (the set-up
# samples for set-up, those of the SPEED_WINDOW rounds around a round for
# that round).  The box's speed moves between levels ~1.6x apart for
# seconds to minutes at a time, which no number of repeats inside one run
# can average out.
REFERENCE_PROBE_S = 1.25e-3
# Rounds whose probe samples set the speed of the round in their middle:
# a phase that starts or ends inside a run then moves only its own rounds.
SPEED_WINDOW = 21

# name, unit, better, bound: what a user of the engine sees.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("train_samples_per_s", "1/s", "higher", 0.25),
    ("round_s.p50", "s", "lower", 0.25),
    ("round_s.tail", "s", "lower", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("final_acc", "ratio", "higher", 0.25),
    ("train_macs", "MAC", "lower", 0.12),
    ("update_bytes", "bytes", "lower", 0.12),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("completed_frac", "ratio", "higher", 0.01),
]


def _span_metrics():
    from spans import SPAN_NAMES

    for name in SPAN_NAMES:
        yield f"{name}.calls", "count"
        yield f"{name}.busy_s", "s"
        yield f"{name}.self_s", "s"


# name, unit: single layers, from the traced run.  No bounds.
PER_LAYER = list(_span_metrics()) + [
    ("fl.executor.train_round.items", "count"),
    ("fl.executor.publish_raw_bytes", "bytes"),
    ("fl.executor.publish_wire_bytes", "bytes"),
    ("fl.executor.worker_restarts", "count"),
    ("fl.executor.retries", "count"),
    ("fl.scheduling.accepted_frac", "ratio"),
    ("fl.scheduling.downsized", "count"),
    ("fl.scheduling.dropped", "count"),
    ("fl.transport.update_raw_bytes", "bytes"),
    ("fl.transport.update_wire_bytes", "bytes"),
    ("fl.transport.raw_over_wire", "ratio"),
    ("fl.faults.rejects", "count"),
    ("fl.coordinator.cache_hit_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
]


class CheckFailed(Exception):
    pass


def child_env() -> dict:
    """The fixed environment of every workload run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    threads = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def subrun(
    workload: str, seed: int, tmp: Path, setup_reps: int,
    traced: bool = False, trace_out: Path | None = None,
) -> dict:
    """One workload run in a fresh interpreter with a fixed environment."""
    cmd = [
        sys.executable, str(HERE / "subrun.py"), "--workload", workload,
        "--seed", str(seed), "--setup-reps", str(setup_reps), "--tmp", str(tmp),
    ]
    if traced:
        cmd.append("--trace")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # Its own process group, so a timeout takes the pool workers down too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SUBRUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"{workload} seed {seed}: no result within {SUBRUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise CheckFailed(f"{workload} seed {seed} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def spread(values) -> float:
    """Interquartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def run_times(r: dict, measured: bool = False):
    """``run_s``, the round times and ``time_to_target_s`` (inf if never
    reached) of one run, in reference-box seconds unless ``measured``.

    Each round is converted with the median probe sample of the
    ``SPEED_WINDOW`` rounds around it; the time after the last round
    (the final evaluation) and the evaluation that reached the target
    with that of the round before them.
    """
    raw = np.asarray(r["round_s"])
    if measured:
        speed = np.ones(len(raw))
    else:
        probes = np.asarray(r["probe_rounds"])
        half = SPEED_WINDOW // 2
        speed = REFERENCE_PROBE_S / np.array(
            [np.median(probes[max(0, i - half) : i + half + 1]) for i in range(len(raw))]
        )
    rounds = raw * speed
    run_s = rounds.sum() + (r["run_s"] - raw.sum()) * speed[-1]
    k = r["target_round"]
    if k is None:
        return run_s, rounds, math.inf
    return run_s, rounds, rounds[: k + 1].sum() + (r["time_to_target_s"] - raw[: k + 1].sum()) * speed[k]


def end_to_end(r: dict, tail_pct: int, measured: bool = False) -> dict:
    """One run's end-to-end metrics, in reference-box seconds unless ``measured``."""
    setup = 1.0 if measured else REFERENCE_PROBE_S / r["probe_setup_s"]
    run_s, rounds, time_to_target = run_times(r, measured)
    return {
        "setup_s": r["setup_s"] * setup,
        "run_s": run_s,
        "train_samples_per_s": r["samples"] / run_s,
        "round_s.p50": float(np.percentile(rounds, 50)),
        "round_s.tail": float(np.percentile(rounds, tail_pct)),
        "time_to_target_s": time_to_target,
        "final_acc": r["final_acc"],
        "train_macs": r["train_macs"],
        "update_bytes": r["update_bytes"],
        "peak_rss_mb": r["peak_rss_mb"],
        "completed_frac": (r["dispatched"] - r["failed"]) / r["dispatched"],
    }


def aggregate(runs: list[dict], measured: bool = False) -> dict:
    """Medians over the runs; the round percentiles over the rounds of all runs."""
    tail_pct = tail_percentile(sum(len(r["round_s"]) for r in runs))
    per_run = [end_to_end(r, tail_pct, measured) for r in runs]
    out = {name: statistics.median(m[name] for m in per_run) for name, *_ in END_TO_END}
    rounds = np.concatenate([run_times(r, measured)[1] for r in runs])
    out["round_s.p50"] = float(np.percentile(rounds, 50))
    out["round_s.tail"] = float(np.percentile(rounds, tail_pct))
    return out


def per_layer(r: dict, untraced_run_s: float) -> dict:
    out = {}
    for name, row in r["layers"].items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    items = r["items"]
    dispatched = items.get("fl.executor.train_round", 0)
    wire = r["update_bytes"]
    out.update({
        "fl.executor.train_round.items": dispatched,
        "fl.executor.publish_raw_bytes": r["publish_raw_bytes"],
        "fl.executor.publish_wire_bytes": r["publish_wire_bytes"],
        "fl.executor.worker_restarts": r["worker_restarts"],
        "fl.executor.retries": r["retries"],
        "fl.scheduling.accepted_frac": (
            items.get("core.runtime.aggregate", 0) / dispatched if dispatched else 0.0
        ),
        "fl.scheduling.downsized": r["downsized"],
        "fl.scheduling.dropped": r["dropped"],
        "fl.transport.update_raw_bytes": r["raw_update_bytes"],
        "fl.transport.update_wire_bytes": wire,
        "fl.transport.raw_over_wire": r["raw_update_bytes"] / wire if wire else 0.0,
        "fl.faults.rejects": r["quarantined"],
        "fl.coordinator.cache_hit_frac": (
            r["cached_clients"] / r["eval_clients"] if r["eval_clients"] else 0.0
        ),
        "trace.overhead_frac": r["run_s"] / untraced_run_s - 1.0,
        "trace.coverage": r["top_level_s"] / r["wall_s"],
    })
    return out


def check_digest(r: dict, pins: dict, pin: bool) -> None:
    if r["problems"]:
        raise CheckFailed(f"{r['workload']} seed {r['seed']}: " + "; ".join(r["problems"]))
    seeds = pins.setdefault(r["workload"], {})
    key = str(r["seed"])
    if key not in seeds:
        if pin:
            seeds[key] = r["digest"]
    elif seeds[key] != r["digest"]:
        raise CheckFailed(
            f"{r['workload']} seed {r['seed']}: trajectory digest {r['digest']} "
            f"differs from the pinned {seeds[key]}"
        )


def fmt(value: float) -> str:
    if value == 0 or math.isinf(value):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.4e}"


def report_end_to_end(wl, runs: list[dict], metrics: dict) -> None:
    print(
        f"{'metric':<22}{'unit':<7}{'better':<8}{'value':>12}{'measured':>12}"
        f"{'spread':>9}  measured per run"
    )
    rounds = sum(len(r["round_s"]) for r in runs)
    tail_pct = tail_percentile(rounds)
    measured = aggregate(runs, measured=True)
    for name, unit, better, _ in END_TO_END:
        values = [end_to_end(r, tail_pct)[name] for r in runs]
        print(
            f"{name:<22}{unit:<7}{better:<8}{fmt(metrics[name]):>12}{fmt(measured[name]):>12}"
            f"{spread(values):>9.3f}  " + " ".join(fmt(v) for v in values)
        )
    dispatched = sum(r["dispatched"] for r in runs)
    print(
        f"round_s.p50 and round_s.tail (p{tail_pct}) are over the {rounds} rounds of all "
        f"{len(runs)} runs, the other metrics medians over runs; target {wl.target_acc} "
        f"first reached at rounds {[r['target_round'] for r in runs]}"
    )
    print(
        f"failed_frac {sum(r['failed'] for r in runs)} of {dispatched} work items; "
        f"downsized {sum(r['downsized'] for r in runs)} of {dispatched}; "
        f"dropped {sum(r['dropped'] for r in runs)} of {dispatched}; "
        f"retries {sum(r['retries'] for r in runs)}; "
        f"pool rebuilds {sum(r['worker_restarts'] for r in runs)}"
    )


def report_layers(runs: list[dict], metrics: dict) -> None:
    print(f"{'per-layer span':<38}{'calls':>10}{'busy_s':>10}{'self_s':>10}   (median over traced runs)")
    for name in sorted({m.rsplit(".", 1)[0] for m, _ in PER_LAYER if m.endswith(".calls")}):
        print(
            f"{name:<38}{metrics[name + '.calls']:>10.0f}"
            f"{metrics[name + '.busy_s']:>10.4f}{metrics[name + '.self_s']:>10.4f}"
        )
    r = runs[0]
    items = r["items"]
    dispatched = items.get("fl.executor.train_round", 0)
    cached, evals = r["cached_clients"], r["eval_clients"]
    print(
        f"first traced run (seed {r['seed']}): aggregated {items.get('core.runtime.aggregate', 0)} "
        f"of {dispatched} dispatched; downsized {r['downsized']} of {dispatched}; "
        f"dropped {r['dropped']}; cached {cached} of {evals} client evals; "
        f"update bytes {r['raw_update_bytes']} raw -> {r['update_bytes']} wire; "
        f"publish {r['publish_raw_bytes']} raw -> {r['publish_wire_bytes']} wire; "
        f"rejects {r['quarantined']}; retries {r['retries']}; pool rebuilds {r['worker_restarts']}"
    )
    print(
        "nn.* spans cover in-process training only: pool workers run outside "
        "the tracer, so on process-executor workloads train_round self time "
        "is the wait on workers."
    )
    for name in ("trace.overhead_frac", "trace.coverage"):
        print(f"{name:<38}{metrics[name]:>10.4f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="also record digests of unpinned seeds")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    tmp = ROOT / ".perfbench" / "tmp"
    traces = ROOT / ".perfbench" / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    base = args.seed * SEED_STRIDE
    runs: list[dict] = []
    attempted = failed = 0
    correct = True
    try:
        if args.trace:
            traces.mkdir(parents=True, exist_ok=True)
            pairs = max(1, min(SEED_STRIDE, math.floor(args.seconds / (2.3 * wl.nominal_s))))
            untraced = []
            for i in range(pairs):
                plain = subrun(wl.name, base + i, tmp, 1)
                # Only the first traced run keeps its Chrome trace.
                trace_out = traces / f"{wl.name}.json" if i == 0 else None
                traced = subrun(wl.name, base + i, tmp, 1, traced=True, trace_out=trace_out)
                for r in (plain, traced):
                    check_digest(r, pins, args.pin)
                if traced["digest"] != plain["digest"]:
                    raise CheckFailed(f"{wl.name} seed {base + i}: tracing changed the trajectory")
                untraced.append(plain)
                runs.append(traced)
            per_run = [per_layer(r, u["run_s"]) for r, u in zip(runs, untraced)]
            metrics = {
                name: statistics.median([m[name] for m in per_run]) for name, _ in PER_LAYER
            }
            units = dict(PER_LAYER)
            report_layers(runs, metrics)
        else:
            count = max(1, min(SEED_STRIDE, math.floor(args.seconds / wl.nominal_s)))
            for i in range(count):
                r = subrun(wl.name, base + i, tmp, SETUP_REPS)
                check_digest(r, pins, args.pin)
                runs.append(r)
            metrics = aggregate(runs)
            units = {name: unit for name, unit, *_ in END_TO_END}
            print(
                f"workload {wl.name}: {len(runs)} runs, workload seeds "
                f"{base}..{base + len(runs) - 1}, BLAS threads {BLAS_THREADS}"
            )
            report_end_to_end(wl, runs, metrics)
            print(
                "host speed: median probe sample per run "
                + " ".join(f"{r['probe_run_s'] * 1e3:.4g}" for r in runs)
                + " ms over the rounds, "
                + " ".join(f"{r['probe_setup_s'] * 1e3:.4g}" for r in runs)
                + f" ms over set-up (reference {REFERENCE_PROBE_S * 1e3:.4g} ms); "
                "times are reference-box seconds = measured x reference / probe"
            )
            print(
                "measured run_s is blocking-path CPU time; wall time of each run, "
                "probe samples included: " + " ".join(f"{r['wall_s']:.4g}" for r in runs) + " s"
            )
            if math.isinf(metrics["time_to_target_s"]):
                raise CheckFailed(f"most runs never reached the target accuracy {wl.target_acc}")
        attempted = sum(r["dispatched"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        pinned = sum(str(r["seed"]) in pins.get(wl.name, {}) for r in runs)
        print(f"digests: {pinned} of {len(runs)} runs pinned, all pinned ones match")
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
        metrics, units = {}, {}
        attempted = max(1, sum(r["dispatched"] for r in runs))
        failed = sum(r["failed"] for r in runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.pin and correct:
        DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
