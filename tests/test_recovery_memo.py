"""Recovery memos reuse only what the bytes still say.

Consecutive crash cases fork one live machine, and each case's recovery
reuses what the case before it derived: HOOP's per-block scan finds, its
commit-log analysis and its replay fold, the redo log's replay fold.
Each is reused over a byte-equal prefix only.  Here an ascending run of
forks, torn and clean, is recovered twice per case — through the shared
memo, and through an empty one — and everything recovery reports or
writes must be equal.  A mutant case first pokes one byte into a slot
inside a memoised prefix (a chain slice a committed transaction walks, a
commit-log page, a redo entry), or moves a walked block's header on a
generation while its slots stay byte-equal: the checks must see it.
"""

from __future__ import annotations

import dataclasses
import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import crashtest
from repro.common.config import GCConfig, SystemConfig
from repro.common.errors import CorruptionError
from repro.common.units import MB
from repro.core.controller import HoopScheme
from repro.core.multi_controller import MultiControllerHoopScheme
from repro.core.oop_region import _decode_header, _encode_header
from repro.core.recovery import RecoveryManager
from repro.core.slices import SLICE_BYTES
from repro.schemes.logregion import _ScanMemo
from repro.snapshot import capture
from repro.txn.system import MemorySystem

# 32-slot blocks and a 2 µs GC period: within 80 transactions GC
# reclaims blocks (stale generations) and the redo logs truncate.
_CONFIG = SystemConfig.small(nvm_capacity=16 * MB)
_CONFIG = _CONFIG.replace(
    hoop=dataclasses.replace(
        _CONFIG.hoop,
        oop_block_bytes=33 * SLICE_BYTES,
        gc=GCConfig(period_ns=2_000),
    )
)
_TRANSACTIONS = 80


def _build(scheme, faults, *, seed):
    """A fresh machine under ``faults`` and its seeded workload."""
    system = MemorySystem(_CONFIG.replace(faults=faults), scheme=scheme)
    rng = random.Random(seed)
    addrs = [system.allocate(64) for _ in range(8)]
    txns = []
    for _ in range(_TRANSACTIONS):
        core = rng.randrange(system.config.num_cores)
        stores = [
            (
                rng.choice(addrs) + 8 * rng.randrange(8),
                rng.getrandbits(64).to_bytes(8, "little"),
            )
            for _ in range(rng.randint(1, 12))
        ]
        txns.append((core, stores))
    return system, txns


def _controllers(system):
    """The HOOP controllers behind ``system`` (none for a baseline)."""
    scheme = system.scheme
    if isinstance(scheme, MultiControllerHoopScheme):
        return scheme.controllers
    return [scheme.controller] if isinstance(scheme, HoopScheme) else []


def _forget(system):
    """Recover ``system`` through empty memos from here on."""
    for controller in _controllers(system):
        controller.recovery = RecoveryManager(
            controller.config, controller.region, controller.codec,
            controller.commit_log, controller.port,
        )
    log = getattr(system.scheme, "log", None)
    if log is not None:
        log._scan_memo = _ScanMemo()


def _recover(system, threads):
    """Every scan's findings, the report and the device after recovery."""
    scans = []
    real_scan = RecoveryManager.scan

    def scan(self):
        found = real_scan(self)
        scans.append(
            (found.logged, found.unlogged, dict(found.reader.decoded),
             found.bytes_scanned)
        )
        return found

    with mock.patch.object(RecoveryManager, "scan", scan):
        report = system.recover(threads=threads)
    return (
        scans,
        dataclasses.asdict(report),
        report.elapsed_ns,
        system.device.content_fingerprint(),
    )


def _flip(system, addr, xor):
    byte = system.device.peek(addr, 1)[0]
    system.device.poke(addr, bytes([byte ^ xor]))


def _hoop_target(system, kind, pick):
    """A slot in one controller's memoised prefix, or ``None``."""
    controllers = _controllers(system)
    controller = controllers[pick % len(controllers)]
    memo = controller.recovery._memo
    if kind == "chain":
        # The newest slice of a transaction the kept fold walked.
        txs = memo.fold.committed if memo.fold else []
        slices = [tx.segment_tails[-1] for tx in txs]
    else:
        # A commit-log page the kept analysis folded.
        slices = [
            found[0]
            for block in memo.blocks.values()
            if block.stream == "addr"
            for found in block.found
            if found[1] in memo.pages
        ]
    if not slices:
        return None
    return controller.region.slice_addr(slices[pick % len(slices)])


def _bump_generation(system, pick):
    """Re-head a block the kept fold walked one generation on, if any."""
    controllers = _controllers(system)
    controller = controllers[pick % len(controllers)]
    fold = controller.recovery._memo.fold
    blocks = sorted(fold.walked) if fold else []
    if not blocks:
        return
    region = controller.region
    base = region.block_base(blocks[pick % len(blocks)])
    try:
        index, _, state, stream, generation = _decode_header(
            system.device.peek(base, SLICE_BYTES)
        )
    except CorruptionError:
        return
    header = _encode_header(index, None, state, stream, generation + 1)
    system.device.poke(base, header + bytes(SLICE_BYTES - len(header)))


def _redo_target(system, pick):
    """A byte of an entry the log's scan memo and replay fold kept."""
    log = system.scheme.log
    entries = log._scan_memo.replayed.entries
    if not entries:
        return None
    entry = entries[pick % len(entries)]
    return log._physical(entry.offset) + pick % entry.total_bytes


_MUTANTS = {
    "hoop": ["chain", "page", "generation"],
    "hoop-mc": ["chain", "page", "generation"],
    "opt-redo": ["entry"],
    "logregion": ["entry"],
}


@pytest.mark.parametrize("scheme", sorted(_MUTANTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_memoised_recovery_equals_an_empty_memo(scheme, data):
    seed = data.draw(st.integers(0, 50), label="seed")
    build = partial(_build, scheme, seed=seed)
    cursor = crashtest.forward_cursor(build, seed)
    boundaries = data.draw(
        st.lists(
            st.integers(1, cursor.total_writes),
            min_size=2, max_size=8, unique=True,
        ).map(sorted),
        label="boundaries",
    )
    cursor.expect(boundaries)
    for boundary in boundaries:
        torn = data.draw(st.booleans(), label="torn")
        threads = data.draw(st.integers(1, 3), label="threads")
        mutant = data.draw(
            st.sampled_from([None] + _MUTANTS[scheme]), label="mutant"
        )
        faults = crashtest.boundary_faults(seed, boundary, torn)
        system, _ = crashtest.build_crashed(build, cursor, faults)
        system.crash()
        if mutant is not None:
            pick = data.draw(st.integers(0, 1 << 16), label="pick")
            xor = data.draw(st.integers(1, 255), label="xor")
            if mutant == "generation":
                _bump_generation(system, pick)
                addr = None
            elif mutant == "entry":
                addr = _redo_target(system, pick)
            else:
                target = _hoop_target(system, mutant, pick)
                addr = None if target is None else (
                    target + pick % SLICE_BYTES
                )
            if addr is not None:
                _flip(system, addr, xor)
        crashed = capture(system)
        memoised = _recover(crashed.restore(), threads)
        fresh_system = crashed.restore()
        _forget(fresh_system)
        assert memoised == _recover(fresh_system, threads)
