"""The trace format: an ordered stream of transactional memory events.

Text serialization, one event per line::

    # hoop-trace v1
    B 0              Tx_begin on core 0
    S 0 1000 deadbeefdeadbeef   store at 0x1000 (hex payload)
    L 0 1000 8       load of 8 bytes at 0x1000
    E 0              Tx_end on core 0

Addresses are hex without prefix; payloads are hex bytes.  The format is
deliberately line-oriented so traces diff and grep like logs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, TextIO, Union

from repro.common.errors import ReproError

_HEADER = "# hoop-trace v1"

BEGIN = "B"
STORE = "S"
LOAD = "L"
END = "E"
_KINDS = {BEGIN, STORE, LOAD, END}


class TraceFormatError(ReproError):
    """Malformed trace text."""


@dataclass(frozen=True)
class TraceOp:
    """One event: kind, core, and (for S/L) the address and payload/size."""

    kind: str
    core: int
    addr: int = 0
    data: bytes = b""
    size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise TraceFormatError(f"unknown op kind {self.kind!r}")
        if self.kind == STORE and not self.data:
            raise TraceFormatError("store op needs data")
        if self.kind == LOAD and self.size <= 0:
            raise TraceFormatError("load op needs a positive size")

    def render(self) -> str:
        if self.kind == STORE:
            return f"S {self.core} {self.addr:x} {self.data.hex()}"
        if self.kind == LOAD:
            return f"L {self.core} {self.addr:x} {self.size}"
        return f"{self.kind} {self.core}"

    @classmethod
    def parse(cls, line: str) -> "TraceOp":
        parts = line.split()
        if not parts:
            raise TraceFormatError("empty trace line")
        kind = parts[0]
        try:
            if kind in (BEGIN, END):
                return cls(kind, int(parts[1]))
            if kind == STORE:
                return cls(
                    kind,
                    int(parts[1]),
                    addr=int(parts[2], 16),
                    data=bytes.fromhex(parts[3]),
                )
            if kind == LOAD:
                return cls(
                    kind,
                    int(parts[1]),
                    addr=int(parts[2], 16),
                    size=int(parts[3]),
                )
        except (IndexError, ValueError) as exc:
            raise TraceFormatError(f"bad trace line: {line!r}") from exc
        raise TraceFormatError(f"unknown op kind in line: {line!r}")


@dataclass
class Trace:
    """An ordered event stream plus summary accessors."""

    ops: List[TraceOp] = field(default_factory=list)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    @property
    def transactions(self) -> int:
        return sum(1 for op in self.ops if op.kind == END)

    @property
    def stores(self) -> int:
        return sum(1 for op in self.ops if op.kind == STORE)

    def cores(self) -> List[int]:
        return sorted({op.core for op in self.ops})

    def validate(self) -> None:
        """Every core's events must form well-nested transactions."""
        open_cores = set()
        for op in self.ops:
            if op.kind == BEGIN:
                if op.core in open_cores:
                    raise TraceFormatError(
                        f"core {op.core}: Tx_begin inside a transaction"
                    )
                open_cores.add(op.core)
            elif op.kind == END:
                if op.core not in open_cores:
                    raise TraceFormatError(
                        f"core {op.core}: Tx_end without Tx_begin"
                    )
                open_cores.discard(op.core)
            elif op.core not in open_cores:
                raise TraceFormatError(
                    f"core {op.core}: {op.kind} outside a transaction"
                )

    # -- serialization ------------------------------------------------------------

    def dump(self, stream: TextIO) -> None:
        stream.write(_HEADER + "\n")
        for op in self.ops:
            stream.write(op.render() + "\n")

    def dumps(self) -> str:
        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    @classmethod
    def load(cls, stream: Union[TextIO, Iterable[str]]) -> "Trace":
        lines = iter(stream)
        try:
            header = next(lines).strip()
        except StopIteration:
            raise TraceFormatError("empty trace") from None
        if header != _HEADER:
            raise TraceFormatError(f"bad header: {header!r}")
        trace = cls()
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            trace.append(TraceOp.parse(line))
        return trace

    @classmethod
    def loads(cls, text: str) -> "Trace":
        return cls.load(io.StringIO(text))
