"""The finite positive MV-chain on {0, 1/n, ..., 1}.

Elements are stored as integer numerators (i stands for i/n), so all
arithmetic is exact.  The signature is {meet, join, oplus, odot, 0, 1};
the operations are the tables of algebra.chain_algebra(n).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidElementError

OP_NAMES = ("meet", "join", "oplus", "odot")


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
