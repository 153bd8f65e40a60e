"""Message encoding size accounting for the CONGEST model.

The CONGEST model allows O(log n) bits per message per round. To enforce
that, every message an algorithm sends is measured by
:func:`message_bits`, a conservative structural encoding size: integers
cost their two's-complement width, containers cost the sum of their
elements plus a small per-element framing overhead, and so on. The point
is not an optimal wire format but a *consistent* accounting that scales
the way real encodings scale, so bandwidth violations are caught.
"""

from __future__ import annotations

from typing import Any

from ..errors import ModelViolation

#: The two message-passing models of Section 2: unbounded messages
#: (LOCAL) and :func:`congest_limit` bits per message (CONGEST).
LOCAL = "LOCAL"
CONGEST = "CONGEST"

#: framing overhead per container element, in bits (length/type tags).
_FRAMING_BITS = 2


def message_bits(payload: Any) -> int:
    """Size of a message payload in bits under the accounting encoding.

    Supported payload types: ``None``, ``bool``, ``int``, ``float``,
    ``str``, and (nested) tuples/lists/dicts/frozensets of those.
    """
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        # Sign bit plus magnitude; zero still costs one bit.
        return max(1, payload.bit_length()) + 1
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * len(payload) + _FRAMING_BITS
    if isinstance(payload, (tuple, list)):
        return sum(message_bits(x) + _FRAMING_BITS for x in payload) + _FRAMING_BITS
    if isinstance(payload, (set, frozenset)):
        return sum(message_bits(x) + _FRAMING_BITS for x in payload) + _FRAMING_BITS
    if isinstance(payload, dict):
        total = _FRAMING_BITS
        for key, value in payload.items():
            total += message_bits(key) + message_bits(value) + 2 * _FRAMING_BITS
        return total
    raise ModelViolation(
        f"unencodable message payload of type {type(payload).__name__}"
    )


def ceil_log2(x: int) -> int:
    """``ceil(log2 x)``, at least 1: the integer ``log n`` of every
    round, phase and bit budget (a float ``log2`` rounds wrongly past
    2^49)."""
    return max(1, (max(2, x) - 1).bit_length())


def congest_limit(n: int, factor: int = 32) -> int:
    """The CONGEST bandwidth limit for an n-node network, in bits.

    ``factor * ceil(log2 n)`` bits: the constant absorbs the framing
    overhead of the accounting encoding while remaining O(log n).
    """
    return factor * ceil_log2(n)
