"""Subgroups of Z^d given by integer generators.

Row-style Hermite reduction over Python ints; inputs here are tiny
(d <= 3, a handful of generators), so a plain gcd elimination is all
that is needed.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def hermite_basis(generators: Iterable[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Echelon basis rows (positive pivots) of the generated subgroup."""
    rows = [list(g) for g in generators if any(g)]
    basis: list[list[int]] = []
    for col in range(dim):
        # gcd-eliminate until at most one row is nonzero in this column
        while True:
            live = sorted((r for r in rows if r[col] != 0), key=lambda r: abs(r[col]))
            if len(live) <= 1:
                break
            p = live[0]
            for r in live[1:]:
                q = r[col] // p[col]
                for i in range(dim):
                    r[i] -= q * p[i]
            rows = [r for r in rows if any(r)]
        live = [r for r in rows if r[col] != 0]
        if live:
            pivot = live[0]
            rows.remove(pivot)
            if pivot[col] < 0:
                pivot = [-c for c in pivot]
            basis.append(pivot)
    # reduce entries above each pivot for a canonical form
    for i in reversed(range(len(basis))):
        lead = next(k for k, c in enumerate(basis[i]) if c != 0)
        for j in range(i):
            q = basis[j][lead] // basis[i][lead]
            if q:
                for k in range(dim):
                    basis[j][k] -= q * basis[i][k]
    return [tuple(r) for r in basis]


def is_full_lattice(basis: Sequence[Sequence[int]], dim: int) -> bool:
    """True iff the subgroup is all of Z^d (rank d and unit determinant)."""
    if len(basis) != dim:
        return False
    det = 1
    for row in basis:
        lead = next((c for c in row if c != 0), None)
        if lead is None:
            return False
        det *= lead
    return abs(det) == 1

