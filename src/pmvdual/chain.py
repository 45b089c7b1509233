"""The finite positive MV-chain on {0, 1/n, ..., 1}.

Elements are stored as integer numerators (i stands for i/n), so all
arithmetic is exact.  The signature is {meet, join, oplus, odot, 0, 1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidElementError, SizeLimitError

OP_NAMES = ("meet", "join", "oplus", "odot")

ORACLE_MAX_N = 12


@dataclass(frozen=True)
class Chain:
    """The (n+1)-element chain; element i means the rational i/n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    def check(self, x: int) -> int:
        if not (0 <= x <= self.n):
            raise InvalidElementError(f"numerator {x} out of range 0..{self.n}")
        return x

    @property
    def elements(self) -> range:
        return range(self.n + 1)

    def meet(self, x: int, y: int) -> int:
        return min(self.check(x), self.check(y))

    def join(self, x: int, y: int) -> int:
        return max(self.check(x), self.check(y))

    def oplus(self, x: int, y: int) -> int:
        # truncated addition: min{1, x + y}
        return min(self.n, self.check(x) + self.check(y))

    def odot(self, x: int, y: int) -> int:
        # truncated subtraction-style product: max{0, x + y - 1}
        return max(0, self.check(x) + self.check(y) - self.n)

    def op(self, name: str, x: int, y: int) -> int:
        if name not in OP_NAMES:
            raise ValueError(f"unknown operation {name!r}")
        return getattr(self, name)(x, y)

    def tau(self, d: int, x: int) -> int:
        """Threshold at d: 1 if d <= x, else 0."""
        return self.n if self.check(d) <= self.check(x) else 0


@dataclass(frozen=True)
class Subalgebra:
    """A subuniverse of the chain, canonicalized as a sorted numerator tuple."""

    n: int
    carrier: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "carrier", tuple(sorted(self.carrier)))

    def __le__(self, other: "Subalgebra") -> bool:
        return set(self.carrier) <= set(other.carrier)

    def to_json(self) -> dict:
        return {"n": self.n, "carrier": list(self.carrier)}

    @staticmethod
    def from_json(data: dict) -> "Subalgebra":
        return Subalgebra(int(data["n"]), tuple(int(v) for v in data["carrier"]))


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def chain_subalgebras(c: Chain) -> list[Subalgebra]:
    """One subalgebra per divisor k of n: the multiples of n/k.

    Ordered by divisor; inclusion among the carriers mirrors divisibility,
    so the result forms a lattice isomorphic to the divisor lattice of n.
    """
    result = []
    for k in divisors(c.n):
        step = c.n // k
        result.append(Subalgebra(c.n, tuple(range(0, c.n + 1, step))))
    return result


def _closed_under_ops(c: Chain, subset: frozenset[int]) -> bool:
    for x in subset:
        for y in subset:
            for name in OP_NAMES:
                if c.op(name, x, y) not in subset:
                    return False
    return True


def subalgebra_oracle(c: Chain) -> list[Subalgebra]:
    """Brute-force subset scan; independent check of chain_subalgebras."""
    if c.n > ORACLE_MAX_N:
        raise SizeLimitError(
            f"subset scan supports n <= {ORACLE_MAX_N}, got n = {c.n}"
        )
    interior = [x for x in c.elements if x not in (0, c.n)]
    found = []
    for r in range(len(interior) + 1):
        for extra in combinations(interior, r):
            subset = frozenset((0, c.n) + extra)
            if _closed_under_ops(c, subset):
                found.append(Subalgebra(c.n, tuple(sorted(subset))))
    found.sort(key=lambda s: (len(s.carrier), s.carrier))
    return found
