"""Run the sharded serving layer from the command line.

Usage::

    python -m repro.serve --shards 4 --rate 100000 --duration-ms 20
                          [--scheme hoop] [--clients 8]
                          [--replicas 1 [--kill-primary-at-ms 6]
                           [--kill-backup-at-ms 6]
                           [--double-kill-at-ms 12]]
                          [--kill-shard 1 [--kill-at-ms 8] [--torn]]
                          [--batch-size 8] [--batch-wait-us 50]
                          [--queue-depth 64] [--read-fraction 0.25]
                          [--value-bytes 64] [--keyspace 4096]
                          [--seed 7] [--out report.json]
                          [--profile PATH]

The run is entirely simulated time and fully deterministic in its
arguments.  ``--kill-shard`` injects a power cut on one shard
mid-traffic and drives failover: crash, scheme recovery, oracle
verification of every acknowledged write, queue-through-recovery, and
resumption.  With ``--replicas R`` every shard becomes a replication
group (synchronous redo shipping to R backups before the ack);
``--kill-primary-at-ms`` then destroys the primary mid-batch and the
freshest backup promotes at the lease expiry, ``--kill-backup-at-ms``
kills a backup mid-ship (serving never stalls), and
``--double-kill-at-ms`` additionally destroys the *promoted* primary.
The exit code is nonzero if any acknowledged write was lost or any two
live replicas' durable keyspaces diverged — the things a serving layer
may never do.

``--workers W`` executes the same run on a pool of W worker processes
advancing the shards in lock-step epochs (see
:mod:`repro.serve.engine`); the report is bit-identical to
``--workers 0``, which CI diffs on every push.  ``--kill-worker-at
W:E`` is the recovery smoke: worker W dies hard at epoch E, is
respawned, and replays from its last checkpoint — again with an
identical report.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serve import (
    SERVABLE_SCHEMES,
    EngineConfig,
    ServeConfig,
    run_serve,
)
from repro.tools.profiling import add_profile_argument, profile_to


def _parse_kill_worker(text: str):
    """Parse ``--kill-worker-at W:E`` into ``(worker, epoch)``."""
    try:
        worker, epoch = text.split(":")
        return (int(worker), int(epoch))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected WORKER:EPOCH (e.g. 1:3), got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Sharded transactional KV serving over simulated NVM.",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--scheme", default="hoop", choices=sorted(SERVABLE_SCHEMES)
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--rate", type=float, default=100_000.0,
        help="aggregate offered load, requests/s (default 100k)",
    )
    parser.add_argument(
        "--duration-ms", type=float, default=20.0,
        help="open-loop arrival window, simulated ms (default 20)",
    )
    parser.add_argument("--keyspace", type=int, default=4096)
    parser.add_argument("--value-bytes", type=int, default=64)
    parser.add_argument("--read-fraction", type=float, default=0.25)
    parser.add_argument("--zipf-theta", type=float, default=0.9)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--batch-wait-us", type=float, default=50.0)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument(
        "--kill-shard", type=int, default=None,
        help="power-cut this shard mid-traffic and verify failover",
    )
    parser.add_argument(
        "--kill-at-ms", type=float, default=None,
        help="kill instant (default: 40%% of the duration)",
    )
    parser.add_argument(
        "--torn", action="store_true",
        help="make the killing write torn (partial line)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="backups per shard (synchronous redo shipping; default 0)",
    )
    parser.add_argument(
        "--lease-us", type=float, default=250.0,
        help="primary lease; promotion fires at its expiry (default 250)",
    )
    parser.add_argument(
        "--apply-every", type=int, default=4,
        help="backup applies its shipped tail every N batches (default 4)",
    )
    parser.add_argument(
        "--kill-primary-at-ms", type=float, default=None,
        help="destroy the primary (of --kill-shard or shard 0) and promote",
    )
    parser.add_argument(
        "--kill-backup-at-ms", type=float, default=None,
        help="destroy backup replica 1 mid-ship (needs --replicas >= 1)",
    )
    parser.add_argument(
        "--double-kill-at-ms", type=float, default=None,
        help="also destroy the promoted primary at this instant",
    )
    parser.add_argument("--recovery-threads", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--no-final-verify", action="store_true",
        help="skip the end-of-run crash+recover oracle sweep",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = in-process; result is bit-identical"
        " either way)",
    )
    parser.add_argument(
        "--epoch-us", type=float, default=1000.0,
        help="lock-step epoch quantum past each global horizon,"
        " simulated us (default 1000)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=8,
        help="worker checkpoint cadence in epochs (default 8)",
    )
    parser.add_argument(
        "--kill-worker-at", type=_parse_kill_worker, default=None,
        metavar="W:E",
        help="fault injection: worker W dies hard at epoch E and must"
        " recover from its checkpoint (needs --workers > W)",
    )
    add_profile_argument(parser)
    parser.add_argument(
        "--out", default=None, help="write the full report as JSON"
    )
    return parser


def main(argv=None) -> int:
    """Entry point: run one serving experiment, print the outcome."""
    args = build_parser().parse_args(argv)
    cfg = ServeConfig(
        shards=args.shards,
        scheme=args.scheme,
        clients=args.clients,
        rate_per_s=args.rate,
        duration_ms=args.duration_ms,
        keyspace=args.keyspace,
        value_bytes=args.value_bytes,
        read_fraction=args.read_fraction,
        zipf_theta=args.zipf_theta,
        batch_size=args.batch_size,
        batch_wait_us=args.batch_wait_us,
        queue_depth=args.queue_depth,
        kill_shard=args.kill_shard,
        kill_at_ms=args.kill_at_ms,
        torn_kill=args.torn,
        recovery_threads=args.recovery_threads,
        verify_final=not args.no_final_verify,
        seed=args.seed,
        replicas=args.replicas,
        lease_us=args.lease_us,
        apply_every=args.apply_every,
        kill_primary_at_ms=args.kill_primary_at_ms,
        kill_backup_at_ms=args.kill_backup_at_ms,
        double_kill_at_ms=args.double_kill_at_ms,
    )
    engine = EngineConfig(
        workers=args.workers,
        epoch_us=args.epoch_us,
        checkpoint_every=args.checkpoint_every,
        kill_worker_at=args.kill_worker_at,
    )
    with profile_to(args.profile):
        report = run_serve(cfg, engine=engine)
    latency = report.latency
    print(
        f"serve[{report.scheme}] shards={report.shards} "
        f"offered={report.offered} admitted={report.admitted} "
        f"acked={report.acked_puts}p/{report.acked_gets}g "
        f"batches={report.batches}"
    )
    print(
        f"  throughput {report.requests_per_s:,.0f} req/s "
        f"({report.transactions_per_s:,.0f} txn/s) over "
        f"{report.makespan_ns / 1e6:.2f} simulated ms"
    )
    print(
        f"  latency p50={latency['p50']:,.0f}ns "
        f"p95={latency['p95']:,.0f}ns p99={latency['p99']:,.0f}ns "
        f"max={latency['max']:,.0f}ns"
    )
    if report.rejected or report.retried:
        print(
            f"  backpressure rejected={report.rejected} "
            f"retried={report.retried} shed={report.shed_on_failover}"
        )
    if report.kills:
        print(
            f"  failover kills={report.kills} "
            f"recoveries={report.recoveries}"
        )
    if report.replicas:
        shipped = report.replication.get("records_shipped", 0.0)
        print(
            f"  replication R={report.replicas} "
            f"shipped={shipped:,.0f} promotions={report.promotions} "
            f"rejoins={report.rejoins} backup-kills={report.backup_kills} "
            f"divergence-checks={report.divergence_checks}"
        )
    print(
        f"  oracle: {report.oracle_acked_puts} acked puts, "
        f"{report.oracle_verifications} verifications, "
        + ("CLEAN" if report.clean else "ACKED-WRITE LOSS")
    )
    for failure in report.oracle_failures:
        print(f"    LOST: {failure}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"  report -> {args.out}")
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
