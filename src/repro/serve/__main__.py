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
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.common.errors import ConfigError
from repro.serve import SERVABLE_SCHEMES, ServeConfig, run_serve
from repro.tools.profiling import add_profile_argument, profile_to


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
    add_profile_argument(parser)
    parser.add_argument(
        "--out", default=None, help="write the full report as JSON"
    )
    return parser


def main(argv=None) -> int:
    """Entry point: run one serving experiment, print the outcome."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
            kill_primary_at_ms=args.kill_primary_at_ms,
            kill_backup_at_ms=args.kill_backup_at_ms,
            double_kill_at_ms=args.double_kill_at_ms,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    with profile_to(args.profile):
        report = run_serve(cfg)
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
