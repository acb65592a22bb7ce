"""Recovery's shortcuts against the slow way they replace.

A crash case pays only for what it adds: the append log resumes its scan
after the byte-checked prefix an earlier scan (of this machine or a
snapshot fork of it) parsed, and home writes reach the device as one
``poke_batch``.  Each shortcut is checked here against the same entry
point fed the slow way — a log with an empty memo, one ``poke`` per
element — and must leave *equal* state, not approximately equal state.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import crashtest
from repro.common.config import FaultConfig, NVMConfig, SystemConfig
from repro.common.errors import AddressError, CapacityError, PowerLossError
from repro.common.units import KB, MB
from repro.core.recovery import RecoveryManager
from repro.core.slices import SliceCodec
from repro.faults.injector import FaultyNVMDevice
from repro.memctrl.port import MemoryPort
from repro.nvm.device import NVMDevice
from repro.schemes.logregion import KIND_COMMIT, KIND_DATA, AppendLog
from repro.snapshot import capture, clone_state
from repro.snapshot.replay import run_txns
from repro.txn.system import MemorySystem

# -- (a) poke_batch == one poke per element ------------------------------------

_NVM = NVMConfig(capacity=8 * MB)

# Addresses near zero, a page edge, a 2 MB edge and the device's end, so
# negative, single-page, page-crossing and out-of-range elements all
# occur; empty elements too.
_pokes = st.lists(
    st.tuples(
        st.sampled_from([0, 4096, 3 * 4096, 2 * MB, _NVM.capacity]),
        st.integers(-72, 8),
        st.binary(min_size=0, max_size=64),
    ).map(lambda e: (e[0] + e[1], e[2])),
    max_size=10,
)
_warm = st.lists(
    st.tuples(
        st.integers(0, 6 * 4096 // 8).map(lambda i: i * 8),
        st.binary(min_size=8, max_size=64),
    ),
    max_size=4,
)

# Injector states a batch can meet.  "dead" lost power to a recovery
# budget, "cut" to a timed write with no recovery budget armed.
_STATES = ["inert", "recovery", "dead", "cut"]


class _Consumed(list):
    """A list that remembers which element it handed out last."""

    last = -1

    def __iter__(self):
        for index, item in enumerate(list.__iter__(self)):
            self.last = index
            yield item


def _device(cls, state, warm, budget, torn):
    if cls is NVMDevice:
        device = NVMDevice(_NVM)
    else:
        device = FaultyNVMDevice(
            _NVM, FaultConfig(enabled=True, seed=3, torn=torn)
        )
    for addr, data in warm:
        NVMDevice.poke(device, addr, data)  # content only, no fault logic
    if state == "dead":
        device.injector.arm_recovery_fault(after_ops=0)
        try:
            device.poke(0, device.peek(0, 8))
        except PowerLossError:
            pass
        assert device.injector.power_lost
    elif state == "cut":
        device.injector.arm_power_loss(after_writes=0)
        try:
            device.write(0, device.peek(0, 8))
        except PowerLossError:
            pass
        assert device.injector.power_lost
    elif state == "recovery":
        device.injector.arm_recovery_fault(after_ops=budget, torn=torn)
    return device


def _state(device, twin):
    out = [
        device.content_fingerprint(),
        sorted(device._pages),
        sorted(device._cow_shared),
        device.stats,
        # A page shared copy-on-write with a snapshot is cloned, never
        # written through.
        twin.content_fingerprint(),
    ]
    if isinstance(device, FaultyNVMDevice):
        injector = device.injector
        out += [
            device.fault_stats,
            # The PRNG's next draws (it is seeded at its first draw).
            [injector._draws().random() for _ in range(4)],
            injector.power_lost,
            injector._recovery_budget,
        ]
    return out


def _apply(cls, state, warm, pokes, budget, torn, *, batched):
    device = _device(cls, state, warm, budget, torn)
    twin = clone_state(device)
    error = raised_at = None
    try:
        if batched:
            consumed = _Consumed(pokes)
            device.poke_batch(consumed)
        else:
            for index, (addr, data) in enumerate(pokes):
                raised_at = index
                device.poke(addr, data)
    except (PowerLossError, AddressError) as exc:
        error = (type(exc), str(exc))
        if batched:
            raised_at = consumed.last
    if error is None:
        raised_at = None
    return error, raised_at, _state(device, twin)


@settings(max_examples=120, deadline=None)
@given(warm=_warm, pokes=_pokes)
def test_poke_batch_equals_per_element_pokes_on_the_plain_device(warm, pokes):
    args = (NVMDevice, "inert", warm, pokes, None, False)
    assert _apply(*args, batched=True) == _apply(*args, batched=False)


# Batches recovery actually issues: one power-of-two size, aligned, many
# repeats of few addresses — the batch applies only the last value per
# address.  Now and then one element breaks the pattern (another size, a
# misaligned or out-of-range address) and the batch runs unchanged.
_aligned = st.sampled_from([8, 64, 4096]).flatmap(
    lambda size: st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2, 5, 63, 64, 2 * MB // size - 1]).map(
                lambda i, size=size: i * size
            ),
            st.binary(min_size=size, max_size=size),
        ),
        max_size=12,
    )
)
_odd = st.sampled_from(
    [(4, b"\x01" * 8), (8, b"\x02" * 16), (-8, b"\x03" * 8),
     (_NVM.capacity, b"\x04" * 8)]
)


@settings(max_examples=120, deadline=None)
@given(
    warm=_warm, pokes=_aligned, odd=st.none() | _odd, at=st.integers(0, 12)
)
def test_aligned_batches_apply_the_last_value_per_address(warm, pokes, odd, at):
    if odd is not None:
        pokes = pokes[:at] + [odd] + pokes[at:]
    args = (NVMDevice, "inert", warm, pokes, None, False)
    assert _apply(*args, batched=True) == _apply(*args, batched=False)


@settings(max_examples=120, deadline=None)
@given(warm=_warm, pokes=_pokes, state=st.sampled_from(_STATES))
def test_poke_batch_equals_per_element_pokes_in_every_injector_state(
    warm, pokes, state
):
    # A budget is fired at every element of the batch, and past its end.
    budgets = range(len(pokes) + 1) if state == "recovery" else [None]
    for torn in (False, True):
        for budget in budgets:
            with mock.patch.object(
                NVMDevice, "poke_batch", autospec=True,
                side_effect=NVMDevice.poke_batch,
            ) as base_batch:
                batched = _apply(
                    FaultyNVMDevice, state, warm, pokes, budget, torn,
                    batched=True,
                )
            per_element = _apply(
                FaultyNVMDevice, state, warm, pokes, budget, torn,
                batched=False,
            )
            # Same error at the same element, same bytes, same counters,
            # same PRNG draws.
            assert batched == per_element
            # The base-class batch runs exactly when nothing is armed.
            assert base_batch.call_count == (1 if state == "inert" else 0)


# -- (b) the scan memo == a memo-free scan -------------------------------------

_CAPACITY = 1 * KB  # 960 data bytes: appends wrap every few entries

_op = st.one_of(
    st.tuples(
        st.just("append"),
        st.sampled_from([KIND_DATA, KIND_COMMIT]),
        st.integers(1, 9),
        st.binary(min_size=0, max_size=80),
        st.sampled_from([0, 64, 128]),
    ),
    st.tuples(st.just("truncate"), st.integers(0, 8)),
    st.just(("reset",)),
    st.just(("scan",)),
    # Flip a byte inside the memoised span, in the header, past the tail.
    st.tuples(
        st.just("flip"),
        st.sampled_from(["span", "header", "tail"]),
        st.integers(0, 1 << 20),
        st.integers(1, 255),
    ),
)


def _scan_both(log):
    """The memoised scan and an empty-memo scan of the same bytes."""
    fresh = AppendLog(log.port, log.base, log.capacity)
    got = list(log.rebuild_and_scan())
    want = list(fresh.rebuild_and_scan())
    assert got == want
    assert (log._start, log._cursor) == (fresh._start, fresh._cursor)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_memoised_scan_equals_a_memo_free_scan(ops):
    device = NVMDevice(NVMConfig(capacity=16 * MB))
    log = AppendLog(MemoryPort(device), 4096, _CAPACITY)
    offsets = []
    for op in ops:
        if op[0] == "append":
            _, kind, tx_id, payload, min_bytes = op
            try:
                offset, _ = log.append(
                    kind, tx_id, 0x100 * tx_id, payload, 0.0, sync=False,
                    min_entry_bytes=min_bytes,
                )
            except CapacityError:
                log.truncate(0.0)
            else:
                offsets.append(offset)
        elif op[0] == "truncate":
            live = [o for o in offsets if log._start <= o <= log._cursor]
            log.truncate(0.0, upto=live[op[1] % len(live)] if live else None)
        elif op[0] == "reset":
            log.reset()
        elif op[0] == "scan":
            _scan_both(log)
        else:
            _, where, pos, bits = op
            memo = log._scan_memo
            if where == "header":
                addr = log.base + pos % 20
            elif where == "span":
                if memo.cursor <= memo.start:
                    continue
                addr = log._physical(
                    memo.start + pos % (memo.cursor - memo.start)
                )
            else:
                addr = log._physical(memo.cursor + pos % 64)
            device.poke(addr, bytes([device.peek(addr, 1)[0] ^ bits]))
            _scan_both(log)
    _scan_both(log)


def test_a_rescan_parses_only_the_suffix():
    device = NVMDevice(NVMConfig(capacity=16 * MB))
    log = AppendLog(MemoryPort(device), 0, 8 * KB)
    for tx_id in (1, 2):
        log.append(KIND_DATA, tx_id, 0x100, b"x" * 16, 0.0, sync=False)
        log.append(KIND_COMMIT, tx_id, 0, b"", 0.0, sync=True)
    first = list(log.rebuild_and_scan())
    log.append(KIND_DATA, 3, 0x200, b"y" * 16, 0.0, sync=False)
    second = list(log.rebuild_and_scan())
    assert [e.tx_id for e in second] == [1, 1, 2, 2, 3]
    # The shared prefix is the remembered entries themselves.
    assert all(a is b for a, b in zip(first, second))
    # A changed byte inside the prefix sends the scan back to the header.
    device.poke(log._physical(first[1].offset) + 2, b"\x05")
    third = list(log.rebuild_and_scan())
    assert [e.tx_id for e in third] == [1]
    assert third[0] is not first[0]


def test_snapshot_forks_share_one_memo_and_a_fresh_build_starts_empty():
    faults = FaultConfig(enabled=True, seed=1)
    system, txns = crashtest.build_workload(
        "opt-redo", faults, seed=1, transactions=10, addresses=4
    )
    run_txns(system, txns)
    memo = system.scheme.log._scan_memo
    snapshot = capture(system)
    forks = [snapshot.restore() for _ in range(2)]
    assert all(f.scheme.log._scan_memo is memo for f in forks)
    forks[0].crash()
    forks[0].recover()
    assert memo.entries  # the fork's recovery filled the shared memo
    assert forks[1].scheme.log._scan_memo.entries == memo.entries
    fresh = crashtest._build_system("opt-redo", faults).scheme.log._scan_memo
    assert fresh is not memo
    assert (fresh.start, fresh.cursor, fresh.raw, fresh.entries) == (
        0, 0, b"", ()
    )


# -- (c) what a scan charges per entry -----------------------------------------


def test_opt_redo_entries_charge_header_plus_padded_payload_not_stride():
    system = MemorySystem(SystemConfig.small(), scheme="opt-redo")
    addr = system.allocate(64)
    with system.transaction() as tx:
        tx.store_u64(addr, 7)
    data, commit = list(system.scheme.log.rebuild_and_scan())
    assert (data.kind, commit.kind) == (KIND_DATA, KIND_COMMIT)
    assert commit.offset - data.offset == 128  # data stride: two lines
    assert data.total_bytes == 88  # 24-byte header + 64-byte line
    assert commit.total_bytes == 24  # header only, of a 64-byte stride


# -- (d) a fault-free sweep, counted -------------------------------------------


def test_sweeps_poke_home_in_batches_and_walk_what_the_scan_decoded():
    real_walk = RecoveryManager.walk_tx
    real_decode = SliceCodec.decode_data
    real_recover = MemorySystem.recover
    real_poke = FaultyNVMDevice.poke
    real_kept = RecoveryManager._kept_fold
    real_replay = RecoveryManager.replay
    kept_raws = []  # per open walk_tx: the raw bytes of the kept slices
    counts = {"walks": 0, "kept": 0, "recovering": 0, "pokes": 0}
    replays = []  # per replay: [committed, resumed past, walks]

    def recover(self, *args, **kwargs):
        counts["recovering"] += 1
        try:
            return real_recover(self, *args, **kwargs)
        finally:
            counts["recovering"] -= 1

    def poke(self, addr, data):
        # Forward writes that cross a page still poke; recovery must not.
        counts["pokes"] += counts["recovering"] > 0
        return real_poke(self, addr, data)

    def walk_tx(self, reader, tx):
        kept = {reader.slice_raw(index) for index in reader.decoded}
        counts["walks"] += 1
        replays[-1][2] += 1
        counts["kept"] += len(kept)
        kept_raws.append(kept)
        try:
            return real_walk(self, reader, tx)
        finally:
            kept_raws.pop()

    def decode_data(self, raw):
        # No decode inside a walk for a slice the scan already decoded.
        assert not kept_raws or raw not in kept_raws[-1]
        return real_decode(self, raw)

    def replay(self, scan, **kwargs):
        replays.append([0, 0, 0])
        report = real_replay(self, scan, **kwargs)
        replays[-1][0] = report.committed_transactions
        return report

    def kept_fold(self, reader, committed, threads):
        fold = real_kept(self, reader, committed, threads)
        replays[-1][1] = len(fold.committed)
        return fold

    for scheme in ("opt-redo", "hoop"):
        with mock.patch.object(
            MemorySystem, "recover", recover
        ), mock.patch.object(FaultyNVMDevice, "poke", poke), mock.patch.object(
            FaultyNVMDevice, "poke_batch", autospec=True,
            side_effect=FaultyNVMDevice.poke_batch,
        ) as faulty_batch, mock.patch.object(
            NVMDevice, "poke_batch", autospec=True,
            side_effect=NVMDevice.poke_batch,
        ) as base_batch, mock.patch.object(
            RecoveryManager, "walk_tx", walk_tx
        ), mock.patch.object(
            SliceCodec, "decode_data", decode_data
        ), mock.patch.object(
            RecoveryManager, "replay", replay
        ), mock.patch.object(RecoveryManager, "_kept_fold", kept_fold):
            sweep = crashtest.sweep_scheme(scheme, seed=5, transactions=40)
        assert sweep.cases and not sweep.failures
        # One batch per recovery, every one on the inert fast path, and
        # not a single per-element poke.
        assert faulty_batch.call_count == len(sweep.cases)
        assert base_batch.call_count == len(sweep.cases)
        assert counts["pokes"] == 0
    assert counts["walks"] > 0 and counts["kept"] > 0
    # hoop walks only the transactions past each fold checkpoint, and
    # most crash cases resume from the one the case before them kept.
    assert len(replays) == len(sweep.cases)
    assert all(walks == committed - resumed for committed, resumed, walks in replays)
    assert sum(resumed > 0 for _, resumed, _ in replays) > len(replays) // 2
    assert counts["walks"] < sum(committed for committed, _, _ in replays) // 4
