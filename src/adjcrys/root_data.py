"""Root data of types A_n, C_n and B_n in epsilon-coordinates.

Weights are plain tuples of integers (m_1, ..., m_dim).  For family A the
tuple has n+1 entries normalized to sum to zero; `RootDatum.weight` rejects
violating input rather than renormalizing it.  `shell` gives the least k
whose irreducible module with highest weight k*theta holds a weight, theta
the family's distinguished root (the highest root for A and C, the highest
short root for B), and is the one place each family's criterion is written.
`in_shell` and `classify_shift`, the move of that index under adding theta
on the outermost shell, read it.  They take the family and the weight's
coordinate tuple, as the operator tables hold it, and trust the tuple to
have the family's form.  Whether a weight lies on the boundary shell k*theta
of its component k is `shell(...) == k`; a theorem run reads it per element
from masks made by one `shell` call per distinct weight, and `in_shell`
serves the weights mu + theta, which no table holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Family(Enum):
    """Classical family underlying one of the three coordinate models."""

    A = "A"
    C = "C"
    B = "B"


@dataclass(frozen=True)
class RootDatum:
    family: Family
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        if self.family is Family.C and self.rank < 2:
            # rank 1 would make alpha_n = 2*eps_n collide with the A_1 root.
            raise ValueError("family C requires rank >= 2")

    @property
    def dim(self) -> int:
        """Number of epsilon-coordinates carried by a weight."""
        return self.rank + 1 if self.family is Family.A else self.rank

    def weight(self, coeffs) -> tuple[int, ...]:
        """The coordinate tuple of a weight, checked to have `dim` entries
        and, for family A, to sum to zero."""
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coeffs)}")
        if self.family is Family.A and sum(coeffs) != 0:
            raise ValueError("family A weight coordinates must sum to zero")
        return coeffs

    def theta(self) -> tuple[int, ...]:
        """The distinguished root: eps_1 - eps_{n+1} (A), 2*eps_1 (C), eps_1 (B)."""
        coeffs = [0] * self.dim
        coeffs[0] = 2 if self.family is Family.C else 1
        if self.family is Family.A:
            coeffs[-1] = -1
        return self.weight(coeffs)

    def simple_root(self, i: int) -> tuple[int, ...]:
        """alpha_i = eps_i - eps_{i+1}, except alpha_n = 2*eps_n (C) or eps_n (B)."""
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple root index {i} out of range 1..{self.rank}")
        coeffs = [0] * self.dim
        if self.family is Family.A or i < self.rank:
            coeffs[i - 1] = 1
            coeffs[i] = -1
        elif self.family is Family.C:
            coeffs[i - 1] = 2
        else:
            coeffs[i - 1] = 1
        return self.weight(coeffs)


def shell(family: Family, coords) -> Optional[int]:
    """The least k >= 0 whose module with highest weight k*theta holds the
    weight mu with coordinates `coords`, or None when no k does.

    Criteria: the sum of positive coordinates (A); |mu|/2, None for odd
    |mu| (C); |mu| (B).
    """
    if family is Family.A:
        return sum(c for c in coords if c > 0)
    s = sum(map(abs, coords))
    if family is Family.C:
        return None if s % 2 else s // 2
    return s


def in_shell(family: Family, coords, k: int) -> bool:
    """Whether the weight mu with coordinates `coords` lies in the module
    with highest weight k*theta: its `shell` is at most k.  k < 0 gives
    False (empty module)."""
    s = shell(family, coords)
    return s is not None and s <= k


class ShellStep(Enum):
    """Shell index move of mu + theta relative to a boundary weight mu; the
    value is the move itself, +1, 0 or -1."""

    UP = 1
    SAME = 0
    DOWN = -1


def classify_shift(family: Family, coords, k: int) -> ShellStep:
    """Where mu + theta lands when mu, with coordinates `coords`, is on the
    boundary shell of k*theta.

    Family A splits on the signs of m_1 and m_{n+1}; C splits on m_1 against
    {>= 0, == -1, <= -2}; B never produces SAME.  Raises ValueError when mu
    is not on the boundary shell (the criteria assume it).
    """
    if shell(family, coords) != k:
        raise ValueError(f"weight {tuple(coords)} is not on the boundary shell for k={k}")
    first = coords[0]
    if family is Family.A:
        last = coords[-1]
        if first >= 0 and last <= 0:
            return ShellStep.UP
        if first >= 0 or last <= 0:
            return ShellStep.SAME
        return ShellStep.DOWN
    if first >= 0:
        return ShellStep.UP
    if family is Family.C and first == -1:
        return ShellStep.SAME
    return ShellStep.DOWN
