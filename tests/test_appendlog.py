"""Circular append log: appends, truncation, wrap, crash scanning."""

import pytest

from repro.common.config import NVMConfig
from repro.common.errors import CapacityError
from repro.common.units import KB, MB
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice
from repro.schemes.appendlog import (
    _ENTRY_HEADER,
    KIND_COMMIT,
    KIND_DATA,
    KIND_WRAP,
    AppendLog,
)


def make_log(capacity=8 * KB, base=0):
    device = NVMDevice(NVMConfig(capacity=16 * MB))
    port = MemoryPort(device)
    return AppendLog(port, base, capacity)


def test_append_and_scan_round_trip():
    log = make_log()
    log.append(KIND_DATA, 1, 0x100, b"payload1", 0.0, sync=False)
    log.append(KIND_COMMIT, 1, 0, b"", 0.0, sync=True)
    entries = list(log.rebuild_and_scan())
    assert [(e.kind, e.tx_id, e.addr, e.payload) for e in entries] == [
        (KIND_DATA, 1, 0x100, b"payload1"),
        (KIND_COMMIT, 1, 0, b""),
    ]


def test_offsets_monotonic():
    log = make_log()
    first, _ = log.append(KIND_DATA, 1, 0, b"a" * 10, 0.0, sync=False)
    second, _ = log.append(KIND_DATA, 1, 0, b"b" * 10, 0.0, sync=False)
    assert second > first


def test_min_entry_padding_counts_on_nvm():
    log = make_log()
    before = log.port.device.stats.bytes_written
    log.append(KIND_DATA, 1, 0, b"x" * 8, 0.0, sync=False,
               min_entry_bytes=128)
    assert log.port.device.stats.bytes_written - before == 128


def test_truncation_frees_space():
    log = make_log(capacity=2 * KB)
    for i in range(10):
        log.append(KIND_DATA, i, 0, b"z" * 64, 0.0, sync=False)
    live = log.live_bytes
    log.truncate(0.0)
    assert log.live_bytes == 0
    assert live > 0


def test_partial_truncation():
    log = make_log()
    log.append(KIND_DATA, 1, 0, b"old", 0.0, sync=False)
    keep, _ = log.append(KIND_DATA, 2, 0, b"new", 0.0, sync=False)
    log.truncate(0.0, upto=keep)
    entries = list(log.rebuild_and_scan())
    assert [e.tx_id for e in entries] == [2]


def test_truncate_outside_live_range_rejected():
    log = make_log()
    offset, _ = log.append(KIND_DATA, 1, 0, b"a", 0.0, sync=False)
    log.truncate(0.0)
    with pytest.raises(CapacityError):
        log.truncate(0.0, upto=offset)


def test_capacity_error_when_full_of_live_entries():
    log = make_log(capacity=1 * KB)
    with pytest.raises(CapacityError):
        for i in range(100):
            log.append(KIND_DATA, i, 0, b"q" * 64, 0.0, sync=False)


def test_circular_reuse_after_truncation():
    log = make_log(capacity=1 * KB)
    # Fill, truncate, fill again, repeatedly: must never raise.
    for round_no in range(10):
        for i in range(5):
            log.append(KIND_DATA, i, 0, b"r" * 64, 0.0, sync=False)
        log.truncate(0.0)
    assert log.appends == 50


def test_wrap_preserves_scannable_entries():
    log = make_log(capacity=1 * KB)
    for i in range(5):
        log.append(KIND_DATA, i, 0, b"s" * 64, 0.0, sync=False)
    log.truncate(0.0)
    # These appends wrap around the physical end.
    kept = []
    for i in range(5, 10):
        offset, _ = log.append(KIND_DATA, i, 0, b"t" * 64, 0.0, sync=False)
        kept.append(i)
    entries = list(log.rebuild_and_scan())
    assert [e.tx_id for e in entries] == kept


def test_scan_does_not_resurrect_stale_laps():
    log = make_log(capacity=1 * KB)
    for i in range(6):
        log.append(KIND_DATA, i, 0, b"u" * 64, 0.0, sync=False)
    log.truncate(0.0)
    # One fresh entry after wrap; the scan must yield only it, not the
    # valid-looking bytes of the previous lap beyond it.
    log.append(KIND_DATA, 99, 0, b"fresh", 0.0, sync=False)
    entries = list(log.rebuild_and_scan())
    assert [e.tx_id for e in entries] == [99]


def test_scan_does_not_resurrect_an_entry_sixteen_laps_back():
    # Every recovery resets the log to a fresh lap at physical offset 0,
    # and the magic byte's lap salt is four bits: lap 16 salts like lap
    # 0.  Lap 0's committed transaction sits past the one entry each
    # later lap writes at offset 0, so a scan of lap 16 that trusts the
    # magic and an unsalted CRC replays it over newer home data.
    log = make_log(capacity=1 * KB)
    log.append(KIND_COMMIT, 1, 0, b"", 0.0, sync=True)
    log.append(KIND_DATA, 2, 0x100, b"OLD-DATA", 0.0, sync=False)
    log.append(KIND_COMMIT, 2, 0, b"", 0.0, sync=True)
    for lap in range(1, 17):
        log.truncate(0.0)
        log.reset()
        offset, _ = log.append(KIND_COMMIT, 100 + lap, 0, b"", 0.0, sync=True)
        assert log._physical(offset) == log._data_base
    fresh = AppendLog(log.port, log.base, log.capacity)
    entries = [(e.kind, e.tx_id) for e in fresh.rebuild_and_scan()]
    assert entries == [(KIND_COMMIT, 116)]


def test_torn_tail_detected():
    log = make_log()
    log.append(KIND_DATA, 1, 0, b"good", 0.0, sync=False)
    offset, _ = log.append(KIND_DATA, 2, 0, b"torn", 0.0, sync=False)
    # Corrupt the second entry's payload on the device.
    physical = log._physical(offset)
    log.port.device.poke(physical + 24, b"XXXX")
    entries = list(log.rebuild_and_scan())
    assert [e.tx_id for e in entries] == [1]


def test_empty_log_scans_empty():
    log = make_log()
    assert list(log.rebuild_and_scan()) == []


def test_reset_starts_fresh_lap():
    log = make_log(capacity=1 * KB)
    log.append(KIND_DATA, 1, 0, b"v" * 64, 0.0, sync=False)
    log.reset()
    assert list(log.rebuild_and_scan()) == []
    offset, _ = log.append(KIND_DATA, 2, 0, b"w", 0.0, sync=False)
    assert [e.tx_id for e in log.rebuild_and_scan()] == [2]


def test_fill_fraction():
    log = make_log(capacity=2 * KB)
    assert log.fill_fraction == 0.0
    log.append(KIND_DATA, 1, 0, b"x" * 100, 0.0, sync=False)
    assert 0 < log.fill_fraction < 1


@pytest.mark.parametrize(
    "kind, stride_units, size",
    [
        # What the lsm serve run hit: stale payload bytes that pass the
        # one-byte salted magic by chance, a plausible stride, and a
        # size field reaching 4 GB past a 64 MB device.
        (KIND_DATA, 4883, 4_142_309_978),
        (KIND_DATA, 4, 9),  # one byte more than its own stride holds
        (KIND_WRAP, 0xFFFF, 4_142_309_978),  # a filler past the wrap point
    ],
)
def test_scan_stops_at_a_header_no_append_could_have_written(
    kind, stride_units, size
):
    log = make_log(capacity=64 * KB)
    log.append(KIND_DATA, 1, 0x100, b"live", 0.0, sync=False)
    log.append(KIND_COMMIT, 1, 0, b"", 0.0, sync=True)
    tail = log._physical(log._cursor)
    log.port.device.poke(
        tail,
        _ENTRY_HEADER.pack(
            log._magic_for(log._cursor), kind, stride_units, 7, 0, size, 0
        ),
    )
    entries = list(log.rebuild_and_scan())
    assert [(e.kind, e.tx_id) for e in entries] == [
        (KIND_DATA, 1), (KIND_COMMIT, 1)
    ]
    # The append cursor is the valid tail, not past the planted header.
    assert log._physical(log._cursor) == tail


def test_lsm_replicated_run_survives_a_recovery_scan_over_stale_bytes():
    # After the first lap the bytes past lsm's live tail are old
    # payload; this config's second recovery scan met a chance magic
    # there and died with AddressError instead of stopping at the tail.
    from repro.serve.__main__ import main as serve_main

    argv = (
        "--shards 2 --clients 3 --rate 400000 --duration-ms 3 --keyspace 512"
        " --seed 13 --scheme lsm --replicas 1 --kill-shard 0"
        " --kill-primary-at-ms 1.7 --kill-backup-at-ms 2.6"
    )
    for torn in ([], ["--torn"]):
        assert serve_main(argv.split() + torn) == 0  # 0 = oracle CLEAN
