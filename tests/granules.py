"""The granule arithmetic the engine tests model placements with."""


def round16(n: int) -> int:
    """Round ``n`` up to the 16-byte granule."""
    return (n + 15) & ~15
