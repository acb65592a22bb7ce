"""The fault injector and the device subclass that consults it.

:class:`FaultyNVMDevice` extends :class:`~repro.nvm.device.NVMDevice`
without touching its hot paths: the plain device class is still what
every fault-free simulation runs, so disabling injection perturbs
nothing.  The subclass intercepts the mutating and timed entry points
(``read``/``write``/``poke`` and the two batches; ``peek`` is the base
class's) and routes each through the :class:`FaultInjector`, which owns
all mutable fault state:

* an armed **power-loss budget** over timed writes or a simulated-time
  deadline, plus a unified **recovery budget** counting both mutation
  planes in program order — how a *nested* crash during recovery is
  injected, since recovery interleaves home-region pokes with timed
  metadata writes (log headers, slot rewrites, region clears);
* the seeded PRNG behind **torn-write** word selection and **transient
  read** faults, created at its first draw;
* the crash sweep's **fork hook**: a function the device calls when its
  timed-write count reaches ``fork_at``, before the injector's verdict
  on that write (:class:`~repro.snapshot.replay.ForwardCursor` forks the
  machine there).

Timing/energy honesty: a faulted read attempt still charges its channel
occupancy and energy (the bits moved, they were just wrong); the fatal
(power-cut) write charges nothing — the machine is dead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.common.config import FaultConfig, NVMConfig, SystemConfig
from repro.common.errors import PowerLossError, TransientReadError
from repro.nvm.device import AccessResult, NVMDevice
from repro.telemetry.hub import NULL_TELEMETRY

_WORD = 8

# Verdicts of FaultInjector.on_timed_write().
_WRITE_OK = 0
_WRITE_FATAL = 1  # this write is the power-cut instant
_WRITE_DEAD = 2  # power already lost


@dataclass
class FaultStats:
    """Observable outcome counters of one injector (reset never)."""

    __snapshot_state__ = "__atoms__"

    power_cuts: int = 0  # fatal writes (power-loss instants)
    writes_lost: int = 0  # writes refused because power was out
    torn_writes: int = 0
    torn_words_applied: int = 0
    torn_words_dropped: int = 0
    transient_read_faults: int = 0
    # Mutation ops (timed writes + pokes) that crossed an armed recovery
    # budget — the nested-fault sweep's boundary population for
    # crash-during-recovery injection.
    recovery_ops: int = 0


class FaultInjector:
    """All mutable fault state for one :class:`FaultyNVMDevice`.

    The PRNG is seeded from ``config.seed`` at its first draw, so an
    injector that never tears a write or faults a read never builds one
    (a sweep fork clones nothing that its ``rearm`` would throw away);
    the draw sequence is the one an eagerly seeded PRNG gives.
    """

    # Snapshots deep-clone everything: the armed power-loss budgets and
    # the PRNG stream are plain attributes, so a snapshot captured
    # mid-fault replays the same remaining-writes countdown.  The fork
    # hook is a plain function, which the engine shares rather than
    # clones.
    __snapshot_state__ = "__all__"

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.stats = FaultStats()
        self._rng: Optional[random.Random] = None
        # The fork hook: called as ``fork_hook(addr, data, now_ns,
        # queued)`` by the device's next timed write issued with exactly
        # ``fork_at`` writes done.  It must be a plain function, not a
        # bound method: the snapshot engine shares functions but re-binds
        # a method to a clone of its receiver.
        self.fork_at: Optional[int] = None
        self.fork_hook: Optional[Callable[..., None]] = None
        self._write_budget: Optional[int] = config.power_loss_after_write
        # The *nested* fault budget: one counter over both mutation
        # planes (timed writes AND pokes) in program order.  Recovery
        # paths interleave pokes (home-region restore) with timed writes
        # (log-header persists, slot rewrites, region clears), so a
        # crash-during-recovery boundary must count both.
        self._recovery_budget: Optional[int] = None
        # Deadline-based power loss (simulated time): the first timed
        # write at or after this instant is the fatal one.  How the
        # serving layer kills a shard "at t ms into the run" without
        # having to predict its write count.
        self._deadline_ns: Optional[float] = None
        self._torn = config.torn
        self._power_lost = False

    # -- arming ------------------------------------------------------------------

    def arm_power_loss(
        self,
        *,
        after_writes: Optional[int] = None,
        torn: Optional[bool] = None,
    ) -> None:
        """(Re-)arm a power-loss budget of ``after_writes`` timed writes.

        Recovery itself is crashed with :meth:`arm_recovery_fault`,
        which counts its home-region pokes too.
        """
        if after_writes is not None:
            self._write_budget = after_writes
        if torn is not None:
            self._torn = torn

    def arm_power_loss_at(
        self, deadline_ns: float, *, torn: Optional[bool] = None
    ) -> None:
        """Arm a wall-of-simulated-time power cut.

        The first *timed* write whose issue instant is at or after
        ``deadline_ns`` becomes the fatal write (untimed pokes carry no
        timestamp and never trip the deadline).  Used by
        :mod:`repro.serve` to kill one shard mid-traffic at a chosen
        point of the run; cleared by :meth:`restore_power` like every
        other budget, so recovery writes on restored power survive.
        """
        if deadline_ns < 0:
            raise ValueError("power-loss deadline must be >= 0")
        self._deadline_ns = deadline_ns
        if torn is not None:
            self._torn = torn

    def arm_recovery_fault(
        self, *, after_ops: int, torn: Optional[bool] = None
    ) -> None:
        """Arm the nested fault: die after ``after_ops`` more mutations.

        The budget counts timed writes and pokes together, in program
        order, because recovery mixes both planes (``after_ops=0`` means
        the very next mutation is the power-cut instant).  Arm it on the
        *crashed* system, before calling ``recover()`` — forward
        execution would consume it just the same.
        """
        if after_ops < 0:
            raise ValueError("recovery fault budget must be >= 0")
        self._recovery_budget = after_ops
        if torn is not None:
            self._torn = torn

    @property
    def pending_nested_fault(self) -> bool:
        """True when an armed recovery budget has not fired yet."""
        return not self._power_lost and self._recovery_budget is not None

    def restore_power(self) -> None:
        """Reboot: budgets disarm, the machine accepts writes again.

        The PRNG stream survives: determinism requires it to continue
        rather than restart.
        """
        self._power_lost = False
        self._write_budget = None
        self._recovery_budget = None
        self._deadline_ns = None

    @property
    def power_lost(self) -> bool:
        return self._power_lost

    # -- per-access decisions -----------------------------------------------------

    def on_timed_write(self, now_ns: float = 0.0) -> int:
        if self._power_lost:
            self.stats.writes_lost += 1
            return _WRITE_DEAD
        if self._recovery_budget is not None:
            return self._on_recovery_op()
        if self._deadline_ns is not None and now_ns >= self._deadline_ns:
            self._power_lost = True
            self.stats.power_cuts += 1
            return _WRITE_FATAL
        if self._write_budget is None:
            return _WRITE_OK
        if self._write_budget > 0:
            self._write_budget -= 1
            return _WRITE_OK
        self._power_lost = True
        self.stats.power_cuts += 1
        return _WRITE_FATAL

    def on_poke(self) -> int:
        if self._power_lost:
            self.stats.writes_lost += 1
            return _WRITE_DEAD
        if self._recovery_budget is not None:
            return self._on_recovery_op()
        return _WRITE_OK

    def _on_recovery_op(self) -> int:
        """One mutation crossed the armed recovery budget (either plane)."""
        if self._recovery_budget > 0:
            self._recovery_budget -= 1
            self.stats.recovery_ops += 1
            return _WRITE_OK
        self._power_lost = True
        self.stats.power_cuts += 1
        return _WRITE_FATAL

    def _draws(self) -> random.Random:
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.config.seed)
        return rng

    def read_faults(self) -> bool:
        rate = self.config.read_error_rate
        return rate > 0.0 and self._draws().random() < rate

    def torn_words_kept(self, num_words: int) -> set:
        """Word indices of the fatal write that reach the media.

        Real NVM persists 8-byte words atomically but in arbitrary
        order, so any subset of the write may survive; ``torn=False``
        models the cleaner all-or-nothing boundary (no word survives).
        """
        if not self._torn or num_words == 0:
            return set()
        self.stats.torn_writes += 1
        draw = self._draws().random
        return {i for i in range(num_words) if draw() < 0.5}


class FaultyNVMDevice(NVMDevice):
    """NVM device with deterministic, seedable fault injection.

    Content/timing/energy/wear behaviour on fault-free accesses is the
    base class's own (the overrides delegate).  ``write_batch`` and
    ``poke_batch`` do so only while nothing is armed; otherwise they
    decompose into per-element calls so every element crosses the
    power-loss budget individually — a GC migration burst or a
    recovery's home writes can be cut mid-burst, which is exactly the
    crash window §III-E's argument has to survive.
    """

    def __init__(
        self,
        config: Optional[NVMConfig] = None,
        faults: Optional[FaultConfig] = None,
        *,
        wear_block_bytes: int = 2 * 1024 * 1024,
    ) -> None:
        super().__init__(config, wear_block_bytes=wear_block_bytes)
        self.faults = faults or FaultConfig(enabled=True)
        self.injector = FaultInjector(self.faults)
        # Fault instants land on the shared "faults" track when a hub is
        # attached (MemorySystem wires it).  Poke-plane power cuts are
        # not emitted: pokes carry no simulated timestamp.
        self.telemetry = NULL_TELEMETRY

    # -- functional plane ---------------------------------------------------------

    def poke(self, addr: int, data: bytes) -> None:
        injector = self.injector
        if injector._recovery_budget is None and not injector._power_lost:
            # on_poke() would return OK without touching a counter.
            NVMDevice.poke(self, addr, data)
            return
        self._check(addr, max(1, len(data)))
        verdict = injector.on_poke()
        if verdict == _WRITE_DEAD:
            raise PowerLossError("poke after power loss")
        if verdict == _WRITE_FATAL:
            self._apply_torn(addr, data)
            raise PowerLossError("power lost during poke")
        NVMDevice.poke(self, addr, data)

    def poke_batch(self, pokes: Sequence[Tuple[int, bytes]]) -> None:
        """Poke many elements in order; exactly equal to one ``poke`` each.

        While no recovery budget is armed and power is on, every element
        would take ``poke``'s healthy path, so the base-class batch
        leaves the same state (it raises at an out-of-range element with
        every earlier one applied, as the per-element pokes would).

        With anything armed the batch makes one ``poke`` per element, so
        a nested fault crosses the recovery budget, draws its torn words
        and raises at the same element it always did.
        """
        injector = self.injector
        if injector._recovery_budget is None and not injector._power_lost:
            NVMDevice.poke_batch(self, pokes)
            return
        for addr, data in pokes:
            self.poke(addr, data)

    # -- timed plane --------------------------------------------------------------

    def read(self, addr: int, size: int, now_ns: float = 0.0):
        data, result = NVMDevice.read(self, addr, size, now_ns)
        injector = self.injector
        if self.faults.read_error_rate == 0.0 or not injector.read_faults():
            return data, result
        injector.stats.transient_read_faults += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                result.completion_ns, "read_fault", "faults", {"addr": addr}
            )
        raise TransientReadError(addr, result.completion_ns)

    def write(
        self,
        addr: int,
        data: bytes,
        now_ns: float = 0.0,
        *,
        queued: bool = True,
    ) -> AccessResult:
        if not data:
            return AccessResult(now_ns, now_ns, True)
        size = len(data)
        if addr < 0 or addr + size > self._capacity:
            self._check(addr, size)
        injector = self.injector
        if injector.fork_at == self.stats.writes:
            injector.fork_hook(addr, data, now_ns, queued)
        verdict = injector.on_timed_write(now_ns)
        if verdict == _WRITE_OK:
            return NVMDevice.write(self, addr, data, now_ns, queued=queued)
        if verdict == _WRITE_DEAD:
            raise PowerLossError("write after power loss")
        if self.telemetry.enabled:
            self.telemetry.emit(
                now_ns,
                "power_cut",
                "faults",
                {"addr": addr, "torn": self.injector._torn},
            )
        self._apply_torn(addr, data)
        raise PowerLossError(f"power lost during write at {addr:#x}")

    def write_batch(
        self, writes: Sequence[Tuple[int, bytes]], now_ns: float = 0.0
    ) -> None:
        """Queue a burst of writes; exactly equal to one ``write`` each.

        While no write budget, deadline, recovery budget or fork hook is
        armed, every element's ``on_timed_write()`` would return OK
        without touching a counter (power is only ever lost through one
        of the first three, so it is on), and the base-class batch
        leaves exactly the state per-element ``write(..., queued=True)``
        calls would.  An element outside the device sends the whole
        batch down the per-element path, which raises at that element
        with the channel charged for every earlier one.

        With anything armed the batch decomposes into one ``write`` per
        element, so each crosses the power-loss budget on its own, a GC
        migration burst is cut at the same write it always was, and the
        fork hook sees the write count of every element.
        """
        injector = self.injector
        if (
            injector._write_budget is None
            and injector._deadline_ns is None
            and injector._recovery_budget is None
            and injector.fork_at is None
        ):
            capacity = self._capacity
            for addr, data in writes:
                if addr < 0 or addr + len(data) > capacity:
                    break
            else:
                NVMDevice.write_batch(self, writes, now_ns)
                return
        for addr, data in writes:
            if data:
                self.write(addr, data, now_ns, queued=True)

    def _apply_torn(self, addr: int, data: bytes) -> None:
        """Persist a seeded word subset of the fatal write, drop the rest."""
        num_words = (len(data) + _WORD - 1) // _WORD
        kept = self.injector.torn_words_kept(num_words)
        stats = self.injector.stats
        stats.torn_words_applied += len(kept)
        stats.torn_words_dropped += num_words - len(kept)
        for index in sorted(kept):
            lo = index * _WORD
            NVMDevice.poke(self, addr + lo, data[lo : lo + _WORD])

    # -- power state --------------------------------------------------------------

    def restore_power(self) -> None:
        self.injector.restore_power()

    def rearm(self, faults: FaultConfig) -> None:
        """Install a fresh fault plan on a restored snapshot.

        The crash sweep forks a machine running with an *unarmed*
        injector inside the write its boundary cuts, then rearms the
        fork with a zero write budget and re-issues that write (or, for
        a boundary past the workload's last write, arms the residual
        budget on the finished machine).  A fresh :class:`FaultInjector`
        — no fork hook, a PRNG seeded from ``faults.seed`` at its first
        draw — makes the cut bit-identical to a cold run with that
        config, because the cold injector's PRNG is untouched until the
        cut.

        Tripwire: replacing the injector while a nested fault (recovery
        budget) is armed but has not fired would silently disarm it —
        the sweep would then count a vacuous pass.  That holds
        regardless of the residual budget in ``faults`` (zero residual
        budgets are legal and arm the very next write).
        """
        if self.injector.pending_nested_fault:
            raise AssertionError(
                "rearm would silently disarm a pending nested fault "
                "(recovery budget armed but unfired); let it fire "
                "or restore_power() first"
            )
        self.faults = faults
        self.injector = FaultInjector(faults)

    @property
    def fault_stats(self) -> FaultStats:
        return self.injector.stats


def make_device(config: SystemConfig) -> NVMDevice:
    """Build the NVM device a :class:`SystemConfig` asks for.

    The plain :class:`NVMDevice` when fault injection is disabled —
    guaranteeing zero perturbation of fault-free simulations — and a
    :class:`FaultyNVMDevice` otherwise.
    """
    if config.faults.enabled:
        return FaultyNVMDevice(config.nvm, config.faults)
    return NVMDevice(config.nvm)
