"""Separability-structure classification for non-GME pure states.

A vanishing cut concurrence certifies a product structure across that
bipartition; grouping the parties that sit on the same side of every
such cut yields the finest factorization detectable from the cut table.
When it has two or more blocks B, the same table certifies it with the
product defect d = sum_B C(B|rest)**2 / 2.  With P_B the top
eigenprojector of the block marginal rho_B, 1 - lambda_max(rho_B) <=
1 - Tr rho_B**2 = C(B|rest)**2 / 2, and the P_B commute, so
1 - <psi| (x)_B P_B |psi> <= d: psi is within d, in fidelity, of an
explicit product over the blocks, whatever its dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, ValidationError
# _pure_marginal is unused here; the benchmark (perfbench/tracing.py)
# wraps it by name as an attribute of this module.
from .states import Cut, PureState, _check_tol, _pure_marginal
from .concurrence import all_cut_concurrences

DEFAULT_TOL = 1e-6
MARGINAL_FACTOR = 10.0
MAX_PARTIES = 10
RECON_CLIP = 1e-2  # the loosest product-defect check

__all__ = [
    "Factorization",
    "product_cuts",
    "marginal_cuts",
    "finest_factorization",
    "DEFAULT_TOL",
]


@dataclass(frozen=True)
class Factorization:
    """Disjoint party blocks whose tensor product reproduces the state,
    and the cuts within 10x of the threshold (``marginal_cuts``)."""

    factors: tuple[tuple[int, ...], ...]
    marginal_cuts: tuple[Cut, ...]

    @property
    def is_gme(self) -> bool:
        return len(self.factors) == 1


def _split_cuts(psi: PureState, tol: float, caller: str
                ) -> tuple[dict[Cut, float], list[Cut], list[Cut]]:
    """One cut table's entries, its product cuts (at most ``tol``) and
    its marginal cuts (above ``tol``, within 10x of it), each sorted."""
    _check_tol(tol)
    n = psi.nparties
    if n < 2:
        raise ValidationError(f"{caller} needs at least 2 parties")
    if n > MAX_PARTIES:
        raise ValidationError(
            f"{caller} is capped at {MAX_PARTIES} parties (cut enumeration "
            f"is exponential); got {n}")
    entries = all_cut_concurrences(psi, n // 2).entries
    product = sorted(cut for cut, value in entries.items() if value <= tol)
    marginal = sorted(cut for cut, value in entries.items()
                      if tol < value <= MARGINAL_FACTOR * tol)
    return entries, product, marginal


def product_cuts(psi: PureState, tol: float = DEFAULT_TOL) -> list[Cut]:
    """Canonical cuts whose concurrence is at most ``tol``."""
    return _split_cuts(psi, tol, "product_cuts")[1]


def marginal_cuts(psi: PureState, tol: float = DEFAULT_TOL) -> list[Cut]:
    """Cuts within 10x of the threshold, flagged instead of classified."""
    return _split_cuts(psi, tol, "marginal_cuts")[2]


def _product_defect(entries: dict[Cut, float],
                    blocks: list[tuple[int, ...]], n: int) -> float:
    """sum_B C(B|rest)**2 / 2 over two or more blocks of n parties."""
    return sum(entries[Cut.of(block, n)] ** 2 for block in blocks) / 2


def finest_factorization(psi: PureState,
                         tol: float = DEFAULT_TOL) -> Factorization:
    """Finest party factorization detectable from vanishing cuts.

    A party's signature is the side it takes of every product cut, and
    the blocks are the sorted classes of equal signatures.  One block is
    GME; two or more are certified by a product defect (see the module
    docstring) of at most ``tol`` clipped to [1e-6, 1e-2].  The upper
    clip keeps an absurdly loose cut threshold from hiding its own
    misclassification: above it a failed certificate is the caller's
    threshold at fault and is refused with ValidationError, at or below
    it a failure is an InternalInvariantError.  The marginal cuts come
    from the same table.
    """
    entries, product, marginal = _split_cuts(psi, tol, "finest_factorization")
    n = psi.nparties
    parties = range(1, n + 1)
    side = {p: tuple(p in cut.parties for cut in product) for p in parties}
    blocks = sorted({tuple(q for q in parties if side[q] == s)
                     for s in side.values()})

    defect = _product_defect(entries, blocks, n) if len(blocks) > 1 else 0.0
    recon_tol = max(1e-6, min(tol, RECON_CLIP))
    if defect > recon_tol:
        error = ValidationError if tol > RECON_CLIP else InternalInvariantError
        raise error(
            f"inconsistent factorization: product defect {defect!r} "
            f"exceeds {recon_tol!r} for factors {tuple(blocks)}; the cut "
            f"threshold {tol!r} is likely too loose for this state")
    return Factorization(tuple(blocks), tuple(marginal))
