"""The seeded fence-dropping mutant: the checker's self-test.

:class:`MutantRedoScheme` is Opt-Redo with one deliberate bug — the
``tx_end`` drain that orders the queued redo-log entries ahead of the
commit record is missing.  On real hardware that is a classic
lost-durability bug: a crash after the commit record persists but before
the write queue drains leaves a committed transaction with missing log
entries.

Crucially, the bug is *functionally invisible in this simulator*: an
asynchronous write's content reaches the modeled device immediately, so
every workload run, crash-point sweep, and recovery still produces
correct state.  Only the trace-level persist-ordering sanitizer — which
checks the declared ``log-drain`` discipline's ordering edges, not the
final state — can catch it (rule ``unfenced-write``).  That is exactly
the bug class the sanitizer exists for, and why this mutant is the
standing proof that the checker fires (``python -m repro.check
--mutant``).

The mutant is resolved only inside :mod:`repro.check` — it is *not* in
the scheme registry, so it can never leak into harness figures.
"""

from __future__ import annotations

from repro.common.addr import CACHE_LINE_BYTES
from repro.schemes.appendlog import KIND_COMMIT, KIND_DATA
from repro.schemes.redo import _LOG_ENTRY_BYTES, _LOG_PRESSURE, OptRedoScheme

MUTANT_SCHEME = "mutant-redo"


class MutantRedoScheme(OptRedoScheme):
    """Opt-Redo with the log-before-commit drain deliberately dropped."""

    name = MUTANT_SCHEME
    # Same declared discipline as the parent — that is the point: the
    # scheme *claims* log-drain ordering but no longer provides it.
    traits = OptRedoScheme.traits

    def tx_end(self, core: int, tx_id: int, now_ns: float) -> float:
        """The parent commit path minus the log-before-commit drain."""
        write_set = self._write_sets.pop(tx_id, {})
        if not write_set:
            return now_ns
        if self.log.fill_fraction >= _LOG_PRESSURE:
            now_ns = self._run_checkpoint(now_ns, blocking=True)
        check = self.check
        for line_addr, data in write_set.items():
            self.log.append(
                KIND_DATA,
                tx_id,
                line_addr,
                data,
                now_ns,
                sync=False,
                min_entry_bytes=_LOG_ENTRY_BYTES,
            )
            if check.active:
                check.note_persist(
                    tx_id, "log", line_addr, CACHE_LINE_BYTES, now_ns,
                    sync=False, port=self.port,
                )
        # BUG (deliberate): the parent drains the port here so every
        # queued log entry is durable before the commit record.  This
        # mutant persists the commit record straight away.
        _, now_ns = self.log.append(
            KIND_COMMIT, tx_id, 0, b"", now_ns, sync=True,
            min_entry_bytes=CACHE_LINE_BYTES,
        )
        if check.active:
            check.note_persist(
                tx_id, "commit", -1, 0, now_ns, sync=True, port=self.port
            )
        self._shadow.update(write_set)
        return now_ns
