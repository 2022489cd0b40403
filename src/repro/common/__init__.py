"""Shared substrate: simulated clock, errors, units, and value coding.

Everything in the reproduction runs against a single virtual clock
(:class:`~repro.common.clock.SimClock`) so that controller behaviour that
spans "minutes" of server time (Section 2 of the paper) can be reproduced
deterministically in milliseconds of wall time.
"""

from repro.common.clock import SimClock
from repro.common.errors import (
    BufferPoolExhaustedError,
    CalibrationError,
    CatalogError,
    ExecutionError,
    MemoryQuotaExceededError,
    OptimizerError,
    ReproError,
    SqlParseError,
    SqlTypeError,
    TransactionError,
)
from repro.common.hashing import (
    order_preserving_hash,
    string_hash,
    value_width,
    word_tokens,
)
from repro.common.units import (
    DEFAULT_PAGE_SIZE,
    GiB,
    KiB,
    MiB,
    MICROSECOND,
    MILLISECOND,
    MINUTE,
    SECOND,
    bytes_to_pages,
    pages_to_bytes,
)

__all__ = [
    "SimClock",
    "ReproError",
    "BufferPoolExhaustedError",
    "CalibrationError",
    "CatalogError",
    "ExecutionError",
    "MemoryQuotaExceededError",
    "OptimizerError",
    "SqlParseError",
    "SqlTypeError",
    "TransactionError",
    "order_preserving_hash",
    "string_hash",
    "value_width",
    "word_tokens",
    "DEFAULT_PAGE_SIZE",
    "KiB",
    "MiB",
    "GiB",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "MINUTE",
    "bytes_to_pages",
    "pages_to_bytes",
]
