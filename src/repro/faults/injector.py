"""The fault injector and the device subclass that consults it.

:class:`FaultyNVMDevice` extends :class:`~repro.nvm.device.NVMDevice`
without touching its hot paths: the plain device class is still what
every fault-free simulation runs, so disabling injection perturbs
nothing.  The subclass intercepts the mutating and timed entry points
(``read``/``write``/``poke`` and the two batches; ``peek`` is the base
class's) and routes each through the :class:`FaultInjector`, which owns
all mutable fault state:

* the **fault schedule** and the one :class:`~repro.common.config.Cut`
  armed from it at a time — over timed writes, over both mutation
  planes (how a crash *during recovery* is injected: recovery
  interleaves home-region pokes with timed metadata writes), or at a
  simulated instant;
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

from repro.common.config import (
    AT_NS,
    OPS,
    WRITES,
    Cut,
    FaultConfig,
    NVMConfig,
    SystemConfig,
)
from repro.common.errors import PowerLossError, TransientReadError
from repro.nvm.device import AccessResult, NVMDevice
from repro.telemetry.hub import NULL_TELEMETRY

_WORD = 8


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
    # Mutation ops (timed writes + pokes) that landed under an armed
    # recovery-op cut — the nested-fault sweep's boundary population for
    # crash-during-recovery injection.
    recovery_ops: int = 0


class FaultInjector:
    """All mutable fault state for one :class:`FaultyNVMDevice`.

    One cut is in force at a time: ``_armed`` holds it from arming to
    the next reboot, and is ``None`` exactly when power is on and
    nothing is armed — the device's fast paths test only that.

    The PRNG is seeded from ``config.seed`` at its first draw, so an
    injector that never tears a write or faults a read never builds one
    (a sweep fork clones none); the draw sequence is the one an eagerly
    seeded PRNG gives.
    """

    # Snapshots deep-clone everything: the armed cut's countdown and
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
        self._next = 0  # index of the schedule's next cut to arm
        self._armed: Optional[Cut] = None
        self._left = 0  # writes or ops the armed cut still lets land
        self._power_lost = False
        self.arm_next_cut()

    # -- arming ------------------------------------------------------------------

    def arm_power_loss_at(self, cut: Cut) -> None:
        """Arm ``cut`` now, replacing any armed cut; a reboot disarms it.

        How the serving layer kills a shard at a simulated instant, and
        how a probe counts one recovery's mutation ops.
        """
        self._armed = cut
        self._left = cut.at

    def arm_next_cut(self) -> None:
        """Arm the schedule's next cut, if power is on and none is armed.

        Called at construction, by :meth:`FaultyNVMDevice.rearm`, and
        last in every reboot, after the persist domain drained.
        """
        schedule = self.config.schedule
        if self._armed is None and self._next < len(schedule):
            self._next += 1
            self.arm_power_loss_at(schedule[self._next - 1])

    def restore_power(self) -> None:
        """Reboot: power returns and the cut in force, fired or not, ends.

        The PRNG stream survives: determinism requires it to continue
        rather than restart.
        """
        self._power_lost = False
        self._armed = None

    @property
    def power_lost(self) -> bool:
        return self._power_lost

    # -- per-access decisions -----------------------------------------------------

    def fatal(self, now_ns: Optional[float] = None) -> bool:
        """Is this mutation the instant of the cut in force?

        ``now_ns`` is a timed write's issue instant, ``None`` a poke's:
        pokes carry no timestamp and count only toward an ``OPS`` cut.
        Raises :class:`PowerLossError` when power is already out.
        """
        cut = self._armed
        if self._power_lost:
            self.stats.writes_lost += 1
            raise PowerLossError("access after power loss")
        if cut.trigger == AT_NS:
            if now_ns is None or now_ns < cut.at:
                return False
        elif cut.trigger == WRITES and now_ns is None:
            return False
        elif self._left > 0:
            self._left -= 1
            if cut.trigger == OPS:
                self.stats.recovery_ops += 1
            return False
        self._power_lost = True
        self.stats.power_cuts += 1
        return True

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
        order, so any subset of the write may survive; a cut without
        ``torn`` models the cleaner all-or-nothing boundary (no word
        survives).
        """
        if not self._armed.torn or num_words == 0:
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
    armed cut individually — a GC migration burst or a
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
        if injector._armed is not None:
            self._check(addr, max(1, len(data)))
            if injector.fatal():
                self._apply_torn(addr, data)
                raise PowerLossError("power lost during poke")
        NVMDevice.poke(self, addr, data)

    def poke_batch(self, pokes: Sequence[Tuple[int, bytes]]) -> None:
        """Poke many elements in order; exactly equal to one ``poke`` each.

        While no cut is armed and power is on, every element would take
        ``poke``'s healthy path, so the base-class batch leaves the same
        state (it raises at an out-of-range element with every earlier
        one applied, as the per-element pokes would).

        With a cut in force the batch makes one ``poke`` per element, so
        a recovery-op cut counts each, draws its torn words and raises
        at the same element it always did.
        """
        if self.injector._armed is None:
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
        if injector._armed is not None and injector.fatal(now_ns):
            if self.telemetry.enabled:
                self.telemetry.emit(
                    now_ns,
                    "power_cut",
                    "faults",
                    {"addr": addr, "torn": injector._armed.torn},
                )
            self._apply_torn(addr, data)
            raise PowerLossError(f"power lost during write at {addr:#x}")
        return NVMDevice.write(self, addr, data, now_ns, queued=queued)

    def write_batch(
        self, writes: Sequence[Tuple[int, bytes]], now_ns: float = 0.0
    ) -> None:
        """Queue a burst of writes; exactly equal to one ``write`` each.

        While no cut or fork hook is armed and power is on, no element
        can be fatal or touch a fault counter, and the base-class batch
        leaves exactly the state per-element ``write(..., queued=True)``
        calls would.  An element
        outside the device sends the whole batch down the per-element
        path, which raises at that element with the channel charged for
        every earlier one.

        With anything armed the batch decomposes into one ``write`` per
        element, so each crosses the armed cut on its own, a GC
        migration burst is cut at the same write it always was, and the
        fork hook sees the write count of every element.
        """
        injector = self.injector
        if injector._armed is None and injector.fork_at is None:
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

    def arm_next_cut(self) -> None:
        self.injector.arm_next_cut()

    def rearm(self, faults: FaultConfig) -> None:
        """Follow the fault plan ``faults`` from here on.

        How a crash case installs its plan on a fork or a snapshot: the
        cuts already armed stay consumed (a machine whose first cut
        fired goes on to the new schedule's second), a cut in force —
        pending or fired — stays in force until a reboot, a PRNG already
        drawn continues, and one never drawn (a fork of a fault-free
        machine) seeds from ``faults`` as a cold run's would.  With
        power on and nothing armed, the next cut arms now.  The fork
        hook is the forward machine's, and a rearmed copy drops it.
        """
        injector = self.injector
        self.faults = injector.config = faults
        injector.fork_at = injector.fork_hook = None
        injector.arm_next_cut()

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
