"""Exception hierarchy for the HOOP reproduction.

Every error the library raises derives from :class:`ReproError`, so callers
can catch one type at the API boundary.  Subtypes mirror the major failure
domains: configuration, addressing, capacity, transactions, and on-NVM
corruption (the latter is raised by decoders when slice metadata fails
validation — recovery treats it as a torn write).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration values."""


class AddressError(ReproError):
    """An address is out of range, misaligned, or in the wrong region."""


class CapacityError(ReproError):
    """A bounded hardware structure (buffer, table, region) overflowed."""


class TransactionError(ReproError):
    """Transactional API misuse (nested begin, write outside tx, ...)."""


class CorruptionError(ReproError):
    """On-NVM metadata failed validation (torn or stray write)."""


class PowerLossError(ReproError):
    """Injected power failure: the access (and all later ones) was lost.

    Raised by :class:`repro.faults.FaultyNVMDevice` when an armed cut
    (:class:`repro.common.config.Cut`) fires.  The machine must go through
    ``crash()``/``recover()`` before the device accepts writes again.
    """


class TransientReadError(ReproError):
    """Injected recoverable media read error (one attempt failed).

    Carries ``completion_ns`` — the simulated time the failed attempt
    occupied the channel — so the retry layer can schedule its backoff
    in simulated time.
    """

    def __init__(self, addr: int, completion_ns: float) -> None:
        super().__init__(f"transient media error reading {addr:#x}")
        self.addr = addr
        self.completion_ns = completion_ns


class MediaError(ReproError):
    """Unrecoverable media failure (read retries exhausted)."""


class ReadRetryExhaustedError(MediaError):
    """A timed read kept faulting until its per-operation retry budget ran out.

    Carries the failing address and how many attempts this one operation
    made (the initial read plus every retry), so callers — and the
    nested-fault sweep's media-burst phase — can report *which* word
    went bad without parsing the message.
    """

    def __init__(self, addr: int, attempts: int) -> None:
        super().__init__(
            f"read at {addr:#x} still failing after {attempts} attempts"
        )
        self.addr = addr
        self.attempts = attempts


class AllocationError(ReproError):
    """The persistent heap could not satisfy an allocation."""
