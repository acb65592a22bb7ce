"""The acked-write durability oracle: no acknowledged write is ever lost.

A serving system's core promise is that an acknowledgement means
*durable*: once the cluster has told a client "written", no crash may
un-write it.  This module proves the promise mechanically instead of
asserting it:

* every committed PUT is recorded word-by-word (address -> 8-byte
  value, last-ack-wins per word) against its shard *at the instant the
  batch transaction's commit returned* — the acknowledgement edge (for
  a replicated shard, after every live backup's ship committed too);
* after any shard crash+recovery (the injected ``--kill-shard`` /
  ``--kill-primary-at-ms`` failovers, and the end-of-run sweep that
  crashes every shard once more), the shard's durable NVM bytes are
  checked against its acked words with
  :func:`repro.crashtest.verify_atomic_durability` — the same verifier
  the crash-point sweep trusts — including the all-or-nothing check
  for the one batch that was mid-transaction when power died;
* with replication enabled, *every replica* is held to the same
  promise: :meth:`AckOracle.verify_replica` checks a replica's durable
  projection (crash + recover, computed on a clone — see
  :meth:`repro.serve.replica.Replica.durable_projection`) against the
  full ack history, so an acked write must survive even the
  destruction of the machine that acknowledged it.

Word granularity matches the verifier's: PUT values are multiples of 8
bytes at 8-byte-aligned slots (enforced by the serve config), so one
value decomposes exactly into oracle words — the decomposition is the
same redo-record export the replication layer ships
(:meth:`repro.txn.system.MemorySystem.redo_words`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crashtest import verify_atomic_durability
from repro.txn.system import MemorySystem

_WORD = 8


def value_words(addr: int, value: bytes) -> List:
    """Split one slot write into ``(word_addr, 8-byte value)`` pairs.

    Thin wrapper over the canonical redo export
    (:meth:`repro.txn.system.MemorySystem.redo_words`) for a single
    store — the oracle and the replication layer must decompose writes
    identically or a shipped record could verify differently than it
    was promised.
    """
    return MemorySystem.redo_words([(addr, value)])


class AckOracle:
    """One shard's map of every acknowledged word, and its verifier."""

    def __init__(self) -> None:
        self._acked: Dict[int, bytes] = {}
        self.acked_puts = 0
        self.verifications = 0

    def record_ack(self, addr: int, value: bytes) -> None:
        """One PUT's commit returned: its words are now promises."""
        words = self._acked
        for word_addr, word in value_words(addr, value):
            words[word_addr] = word
        self.acked_puts += 1

    def verify_shard(
        self,
        system,
        staged: Optional[Dict[int, bytes]] = None,
    ) -> Optional[str]:
        """Check a recovered shard against its promises.

        ``staged`` carries the words of the one transaction that was
        in flight when power died (empty/None if the crash hit an idle
        shard); the verifier requires it to be all-or-nothing while
        every acked word must be exactly durable.  Returns the failure
        message, or None when the promise held.
        """
        self.verifications += 1
        return verify_atomic_durability(system, self._acked, staged or {})

    def verify_replica(
        self,
        projection,
        replica_index: int,
        staged: Optional[Dict[int, bytes]] = None,
    ) -> Optional[str]:
        """Check one replica's durable projection against the shard's acks.

        ``projection`` is the crash+recover clone from
        :meth:`repro.serve.replica.Replica.durable_projection` — what
        this replica would serve if promoted right now.  Every word the
        *group* ever acknowledged must be present (synchronous shipping
        is exactly the mechanism that makes this hold; this check is
        what would catch it lying).  Counts as one verification;
        failure messages are prefixed with the replica index.
        """
        failure = self.verify_shard(projection, staged)
        if failure:
            return f"replica {replica_index}: {failure}"
        return None
