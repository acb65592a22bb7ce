"""Bit-level pack/unpack helpers for on-NVM metadata layouts.

The memory-slice metadata in Fig. 5b is specified in bits (a 320-bit home
address vector, a 24-bit next-slice offset, a 32-bit TxID, ...).  The slice
codecs in :mod:`repro.core.slices` build on this small big-integer packer so
the layout stays declarative and round-trips are easy to property-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Field:
    """One field in a bit-level record: a name and a width in bits."""

    name: str
    bits: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")


class BitStruct:
    """A fixed layout of named bit fields packed LSB-first into bytes.

    >>> layout = BitStruct([Field("txid", 32), Field("flag", 4)], total_bytes=8)
    >>> raw = layout.pack({"txid": 7, "flag": 3})
    >>> layout.unpack(raw) == {"txid": 7, "flag": 3}
    True
    """

    def __init__(self, fields: Sequence[Field], total_bytes: int) -> None:
        self.fields: Tuple[Field, ...] = tuple(fields)
        self.total_bytes = total_bytes
        used = sum(f.bits for f in self.fields)
        if used > total_bytes * 8:
            raise ValueError(
                f"fields need {used} bits but layout only has "
                f"{total_bytes * 8} bits"
            )
        self._offsets: Dict[str, Tuple[int, int]] = {}
        cursor = 0
        for field in self.fields:
            if field.name in self._offsets:
                raise ValueError(f"duplicate field name {field.name!r}")
            self._offsets[field.name] = (cursor, field.bits)
            cursor += field.bits
        self.used_bits = cursor
        # Flattened (name, offset, mask) rows so pack/unpack — called per
        # block header and commit-log page — skip the per-field dict
        # probes and mask reconstruction.
        self._rows: Tuple[Tuple[str, int, int], ...] = tuple(
            (f.name, self._offsets[f.name][0], (1 << f.bits) - 1)
            for f in self.fields
        )

    def max_value(self, name: str) -> int:
        """Largest value representable by field ``name``."""
        _, bits = self._offsets[name]
        return (1 << bits) - 1

    def pack(self, values: Dict[str, int]) -> bytes:
        """Pack ``values`` into ``total_bytes`` bytes; unset fields are 0."""
        acc = 0
        for name, offset, mask in self._rows:
            value = values.get(name, 0)
            if value and not 0 <= value <= mask:
                raise ValueError(
                    f"value {value} does not fit field {name!r}"
                )
            acc |= value << offset
        return acc.to_bytes(self.total_bytes, "little")

    def with_field(self, raw: bytes, name: str, value: int) -> bytes:
        """OR ``value`` into a currently-zero field of packed bytes.

        Lets codecs pack once with a placeholder (e.g. ``checksum=0``),
        compute the derived value, and splice it in without re-packing
        the whole record.
        """
        offset, bits = self._offsets[name]
        if not 0 <= value <= (1 << bits) - 1:
            raise ValueError(f"value {value} does not fit field {name!r}")
        acc = int.from_bytes(raw, "little") | (value << offset)
        return acc.to_bytes(self.total_bytes, "little")

    def clear_field(self, raw: bytes, name: str) -> bytes:
        """Return ``raw`` with field ``name`` zeroed (checksum checks)."""
        offset, bits = self._offsets[name]
        mask = ((1 << bits) - 1) << offset
        acc = int.from_bytes(raw, "little") & ~mask
        return acc.to_bytes(self.total_bytes, "little")

    def unpack(self, raw: bytes) -> Dict[str, int]:
        """Unpack bytes produced by :meth:`pack` back into a dict."""
        if len(raw) != self.total_bytes:
            raise ValueError(
                f"expected {self.total_bytes} bytes, got {len(raw)}"
            )
        acc = int.from_bytes(raw, "little")
        return {
            name: (acc >> offset) & mask
            for name, offset, mask in self._rows
        }


# -- snapshot declarations ----------------------------------------------------
# Layouts are immutable after construction: clones may share them freely.
Field.__snapshot_state__ = "__shared__"
BitStruct.__snapshot_state__ = "__shared__"


def unpack_uint_list(raw: bytes, bits_each: int, count: int) -> List[int]:
    """The first ``count`` ``bits_each``-bit unsigned ints packed LSB-first
    in ``raw`` (e.g. a data slice's home-address vector)."""
    if count * bits_each > len(raw) * 8:
        raise ValueError("requested more bits than the buffer holds")
    acc = int.from_bytes(raw, "little")
    mask = (1 << bits_each) - 1
    return [(acc >> (i * bits_each)) & mask for i in range(count)]
