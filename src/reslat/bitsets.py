"""Subsets of a finite carrier encoded as int bit vectors."""

from collections.abc import Callable, Iterable, Iterator, Sequence

# Carriers of at most this many elements have every subset mask below
# 256, so `bits` answers from a table; larger masks take the loop.
# Nothing else depends on the carrier size.
SMALL_N = 8

_SMALL_BITS = tuple(
    tuple(i for i in range(SMALL_N) if m >> i & 1) for m in range(1 << SMALL_N)
)


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits, ascending."""
    if 0 <= mask < 1 << SMALL_N:
        return _SMALL_BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def union_over(masks: Sequence[int], m: int) -> int:
    """Union of masks[x] over the set bits x of m."""
    out = 0
    for x in bits(m):
        out |= masks[x]
    return out


def closed_under(table: Sequence[Sequence[int]], m: int) -> bool:
    """True iff table[x][y] is in m for every x and y in m."""
    members = bits(m)
    for x in members:
        row = table[x]
        for y in members:
            if not m >> row[y] & 1:
                return False
    return True


def closure_under(table: Sequence[Sequence[int]], m: int) -> int:
    """Least superset of m that is closed under table."""
    while True:
        members = bits(m)
        nxt = m
        for x in members:
            row = table[x]
            for y in members:
                nxt |= 1 << row[y]
        if nxt == m:
            return m
        m = nxt


def subset_fold(
    values: Sequence[int], empty: int, op: Callable[[int, int], int]
) -> list[int]:
    """Entry m folds `op` over values[i] for the set bits i of m.

    Covers every mask below 2**len(values); entry 0 is `empty`.  Each
    entry extends the entry of its mask without the lowest bit, so the
    whole table costs one `op` per mask.
    """
    out = [empty] * (1 << len(values))
    for m in range(1, len(out)):
        low = m & -m
        out[m] = op(out[m ^ low], values[low.bit_length() - 1])
    return out


def submasks(universe: int) -> Iterator[int]:
    """Every submask of `universe`, including 0 and `universe` itself."""
    sub = 0
    while True:
        yield sub
        if sub == universe:
            return
        sub = (sub - universe) & universe
