"""The epoch driver: the quantum changes no byte, the final sweep is optional.

Epoch boundaries partition each shard's event order without reordering
it, so these tests compare full ``ServeReport.to_dict()`` payloads
(acks, oracle verdicts, latency histograms, per-shard failover state)
across epoch quanta.
"""

from unittest import mock

from repro.serve import ServeConfig, engine, run_serve
from repro.serve.cluster import ServeCluster


def tiny_cfg(**overrides):
    base = dict(
        shards=4,
        clients=3,
        rate_per_s=30_000.0,
        duration_ms=4.0,
        keyspace=512,
        seed=13,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestBitIdentity:
    def test_epoch_quantum_does_not_change_the_result(self):
        cfg = tiny_cfg()
        base = run_serve(cfg).to_dict()
        for epoch_us in (100.0, 5000.0):
            with mock.patch.object(
                engine, "EPOCH_QUANTUM_NS", epoch_us * 1e3
            ):
                assert run_serve(cfg).to_dict() == base


class TestFinalVerify:
    def test_verify_final_false_skips_the_end_of_run_oracle_pass(self):
        skipped = ServeCluster(tiny_cfg(verify_final=False))
        skipped.run()
        assert skipped.acked_puts > 0
        assert skipped.oracle_verifications == 0
        swept = ServeCluster(tiny_cfg())
        swept.run()
        assert swept.oracle_verifications == 4  # one sweep per shard
