"""Host-time spans around the calls into each layer, taken from outside.

Nothing under ``src/`` knows about this tracer.  :func:`tracing` replaces
the public functions named in :data:`TARGETS` — class attributes and
module globals — by wrappers that record one span per call, and puts the
originals back afterwards.  A span is ``(layer/name, start, end, parent)``;
spans stay in memory (four parallel arrays) until the run ends, when
:meth:`Tracer.by_layer` folds them into per-layer self time and call
counts and :meth:`Tracer.write_perfetto` writes them as Perfetto
``trace_event`` JSON.

Self time of a span is its duration minus the durations of the spans it
directly caused, so the self times of all spans under one root add up to
that root's duration exactly.  A layer's ``calls`` is the number of spans
recorded in it; it repeats exactly from run to run, ``self_s`` does not.

What the spans cannot see: ``txn/system.py`` inlines the cache hierarchy
into its store and load paths, so ``memhier`` never gets a span of its own
and its host time is part of ``txn`` (its simulated counts come from the
stats objects instead).  Only calls that go through a patched name are
seen: a hot path that inlines the device timing math instead of calling
``NVMDevice.write`` shows up in the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import time
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

# The span that brackets one measured section; its self time is whatever
# ran outside every traced layer (the benchmark's own loop).
ROOT_LAYER = "bench"

# Every layer that gets `<layer>.self_s` and `<layer>.calls`, in report order.
LAYERS = (
    "workloads",
    "txn",
    "schemes",
    "core.gc",
    "core.recovery",
    "memctrl",
    "nvm",
    "serve.client",
    "serve.router",
    "serve.admission",
    "serve.batcher",
    "serve.shard",
    "serve.engine",
    "serve.replica",
    "serve.oracle",
    "snapshot",
    "crashtest",
    "faults",
)

_SCHEME_CALLS = (
    "tx_begin on_store tx_end tick fill_line on_evict quiesce crash recover"
).split()

# layer -> {"module:Owner": names}.  An owner without a dot-suffix is the
# module itself; a module that did `from x import f` holds its own binding
# of f, so it is listed as an owner of f too.
TARGETS: Dict[str, Dict[str, List[str]]] = {
    "workloads": {
        "repro.workloads.driver:WorkloadDriver": ["run"],
        "repro.workloads.driver:HashmapWorkload": ["do_transaction"],
        "repro.workloads.driver:RBTreeWorkload": ["do_transaction"],
        "repro.workloads.ycsb:YCSBWorkload": ["do_transaction"],
        "repro.workloads.tpcc:TPCCNewOrderWorkload": ["do_transaction"],
    },
    "txn": {
        "repro.txn.transaction:Transaction": (
            "__enter__ __exit__ store load store_u64 load_u64".split()
        ),
        "repro.txn.system:MemorySystem": (
            "load run_batch crash recover".split()
        ),
    },
    "schemes": {
        "repro.core.controller:HoopScheme": _SCHEME_CALLS,
        "repro.core.multi_controller:MultiControllerHoopScheme": _SCHEME_CALLS,
        "repro.schemes.redo:OptRedoScheme": _SCHEME_CALLS,
    },
    "core.gc": {"repro.core.gc:GarbageCollector": ["run"]},
    "core.recovery": {"repro.core.recovery:RecoveryManager": ["recover"]},
    "memctrl": {
        "repro.memctrl.port:MemoryPort": (
            "sync_write async_write async_write_words read drain".split()
        ),
    },
    "nvm": {
        "repro.nvm.device:NVMDevice": (
            "read write write_batch peek poke content_fingerprint".split()
        ),
    },
    "faults": {
        "repro.faults.injector:FaultyNVMDevice": (
            "read write write_batch peek poke rearm restore_power".split()
        ),
        "repro.faults.injector:FaultInjector": ["arm_power_loss_at"],
    },
    "serve.client": {
        "repro.serve.client:ArrivalStream": ["__init__", "take_until"],
        "repro.serve.engine": ["make_clients"],
    },
    "serve.router": {
        "repro.serve.router:ConsistentHashRouter": ["shard_for"],
    },
    "serve.admission": {
        "repro.serve.admission:AdmissionController": [
            "admit",
            "requeue_front",
        ],
    },
    "serve.batcher": {
        "repro.serve.batcher:BatchScheduler": [
            "ready",
            "take",
            "deadline_ns",
        ],
    },
    "serve.shard": {
        "repro.serve.shard:ShardExecutor": (
            "submit advance_to arm_kills final_verify".split()
        ),
    },
    "serve.engine": {"repro.serve.engine": ["drive"]},
    "serve.replica": {
        "repro.serve.replica:ReplicationGroup": (
            "commit_and_ship begin_replica_recovery promote catch_up "
            "try_go_live live_projections divergence_of"
        ).split(),
        "repro.serve.replica:Replica": (
            "receive_ship apply_tail durable_projection".split()
        ),
    },
    "serve.oracle": {
        "repro.serve.oracle:AckOracle": (
            "record_ack verify_shard verify_replica".split()
        ),
    },
    "snapshot": {
        "repro.snapshot": ["capture", "clone_state"],
        "repro.snapshot:Snapshot": ["restore"],
        "repro.crashtest": ["capture"],
        "repro.serve.replica": ["clone_state"],
    },
    "crashtest": {
        "repro.crashtest": ["sweep_scheme", "verify_atomic_durability"],
    },
}

_MISSING = object()


class Tracer:
    """Span storage plus the stack of spans currently open."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.labels: List[Tuple[str, str]] = []  # label id -> (layer, name)
        self._label_ids: Dict[Tuple[str, str], int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []

    def __len__(self) -> int:
        return len(self.label)

    def label_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        found = self._label_ids.get(key)
        if found is None:
            found = self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        return found

    def begin(self, label_id: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.label)
        self.label.append(label_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        """Close span ``index`` (the innermost open one)."""
        self.end[index] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[int]:
        index = self.begin(self.label_id(layer, name))
        try:
            yield index
        finally:
            self.finish(index)

    def wrap(self, layer: str, name: str, function):
        """``function`` with a span of ``layer`` recorded around each call."""
        label_id = self.label_id(layer, name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(label_id)
            try:
                return function(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # -- folding ---------------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children."""
        start, end, parent = self.start, self.end, self.parent
        own = array("d", (end[i] - start[i] for i in range(len(start))))
        for index, above in enumerate(parent):
            if above >= 0:
                own[above] -= end[index] - start[index]
        return own

    def by_layer(self, ranges=None) -> Dict[str, Tuple[float, int]]:
        """``{layer: (self seconds, spans)}`` over the spans in ``ranges``.

        ``ranges`` are ``(first, stop)`` index pairs — a root span's index
        and ``len(tracer)`` once it has finished bracket exactly the spans
        under that root.  Default: every recorded span.
        """
        layer_of = [layer for layer, _ in self.labels]
        label, own = self.label, self.self_times()
        totals: Dict[str, List[float]] = {}
        for first, stop in ranges if ranges is not None else [(0, len(self))]:
            for index in range(first, stop):
                entry = totals.setdefault(layer_of[label[index]], [0.0, 0])
                entry[0] += own[index]
                entry[1] += 1
        return {layer: (t[0], int(t[1])) for layer, t in totals.items()}

    # -- export ----------------------------------------------------------------

    def write_perfetto(self, path, ranges, *, limit: int) -> int:
        """Write the spans in ``ranges``, ``limit`` at most, as ``trace_event`` JSON.

        Open the file at https://ui.perfetto.dev (or chrome://tracing).
        Returns how many spans were written; the file's ``metadata``
        says how many the ranges held and how many were recorded in all.
        """
        in_ranges = sum(stop - first for first, stop in ranges)
        indices = itertools.chain.from_iterable(
            range(first, stop) for first, stop in ranges
        )
        origin = self.start[ranges[0][0]] if in_ranges else 0.0
        events = []
        for index in itertools.islice(indices, limit):
            layer, name = self.labels[self.label[index]]
            events.append(
                {
                    "name": f"{layer}:{name}",
                    "cat": layer,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (self.start[index] - origin) * 1e6,
                    "dur": (self.end[index] - self.start[index]) * 1e6,
                    "args": {"span": index, "parent": self.parent[index]},
                }
            )
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ns",
                    "metadata": {
                        "spans_recorded": len(self),
                        "spans_in_ranges": in_ranges,
                        "spans_written": len(events),
                    },
                },
                handle,
            )
        return len(events)


def _resolve(owner_path: str):
    module_name, _, attribute = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if attribute:
        owner = getattr(owner, attribute)
    return owner


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Patch every name in :data:`TARGETS` for the duration of the block.

    State built inside the block may hold on to wrapped bound methods
    (the cache hierarchy keeps the scheme's ``fill_line``), so build,
    run and drop it inside the block.
    """
    tracer = tracer if tracer is not None else Tracer()
    patched = []
    try:
        for layer, owners in TARGETS.items():
            for owner_path, names in owners.items():
                owner = _resolve(owner_path)
                for name in names:
                    # Inherited methods are patched on the subclass and
                    # deleted again, so the base class is never touched.
                    original = vars(owner).get(name, _MISSING)
                    function = getattr(owner, name)
                    label = f"{getattr(owner, '__name__', owner_path)}.{name}"
                    setattr(owner, name, tracer.wrap(layer, label, function))
                    patched.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
