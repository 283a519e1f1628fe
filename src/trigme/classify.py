"""Separability-structure classification for non-GME pure states.

A vanishing cut concurrence certifies a product structure across that
bipartition; grouping the parties that sit on the same side of every
such cut yields the finest factorization detectable from the cut table,
which, when it has two or more blocks, is verified by rebuilding the
state from their marginals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .states import Cut, PureState, _check_tol, _pure_marginal
from .concurrence import all_cut_concurrences

DEFAULT_TOL = 1e-6
MARGINAL_FACTOR = 10.0
MAX_PARTIES = 10
RECON_CLIP = 1e-2  # the loosest reconstruction check
_ROW_BLOCK = 1 << 14  # complex entries per compared reconstruction block

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


def _split_cuts(psi: PureState, tol: float,
                caller: str) -> tuple[list[Cut], list[Cut]]:
    """Product cuts (at most ``tol``) and marginal cuts (above ``tol``,
    within 10x of it) of one cut table, each sorted."""
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
    return product, marginal


def product_cuts(psi: PureState, tol: float = DEFAULT_TOL) -> list[Cut]:
    """Canonical cuts whose concurrence is at most ``tol``."""
    return _split_cuts(psi, tol, "product_cuts")[0]


def marginal_cuts(psi: PureState, tol: float = DEFAULT_TOL) -> list[Cut]:
    """Cuts within 10x of the threshold, flagged instead of classified."""
    return _split_cuts(psi, tol, "marginal_cuts")[1]


def _reconstruction_error(psi: PureState,
                          factors: list[tuple[int, ...]]) -> float:
    """Max entrywise deviation of the factor-marginal product from
    |psi><psi|, both in block order (the parties of ``factors`` in
    turn), compared about ``_ROW_BLOCK`` entries at a time: each entry
    is the one ``np.kron`` and ``np.outer`` give, bit for bit, and no
    D x D array is built."""
    marginals = [_pure_marginal(psi.amplitudes, psi.dims,
                                [p - 1 for p in block]) for block in factors]
    amps = psi.amplitudes.reshape(psi.dims).transpose(
        [p - 1 for block in factors for p in block]).reshape(-1)
    conj = amps.conj()
    step = max(1, _ROW_BLOCK // amps.size)
    err = 0.0
    for start in range(0, amps.size, step):
        rows = np.arange(start, min(start + step, amps.size))
        digits = np.unravel_index(rows, [len(m) for m in marginals])
        rec = marginals[0][digits[0]]
        for m, i in zip(marginals[1:], digits[1:]):  # in np.kron's order
            rec = (rec[:, :, None] * m[i][:, None, :]).reshape(rows.size, -1)
        err = max(err, float(np.max(np.abs(rec - amps[rows, None] * conj))))
    return err


def finest_factorization(psi: PureState,
                         tol: float = DEFAULT_TOL) -> Factorization:
    """Finest party factorization detectable from vanishing cuts.

    A party's signature is the side it takes of every product cut, and
    the blocks are the sorted classes of equal signatures.  One block is
    GME and has nothing to rebuild; two or more are verified by checking
    that the tensor product of their marginals equals |psi><psi| within
    ``tol`` clipped to [1e-6, 1e-2].  The upper clip keeps an absurdly
    loose cut threshold from hiding its own misclassification: above it
    a failed reconstruction is the caller's threshold at fault and is
    refused with ValidationError, at or below it a failure is an
    InternalInvariantError.  The marginal cuts come from the same table.
    """
    product, marginal = _split_cuts(psi, tol, "finest_factorization")
    parties = range(1, psi.nparties + 1)
    side = {p: tuple(p in cut.parties for cut in product) for p in parties}
    blocks = sorted({tuple(q for q in parties if side[q] == s)
                     for s in side.values()})

    err = _reconstruction_error(psi, blocks) if len(blocks) > 1 else 0.0
    recon_tol = max(1e-6, min(tol, RECON_CLIP))
    if err > recon_tol:
        error = ValidationError if tol > RECON_CLIP else InternalInvariantError
        raise error(
            f"inconsistent factorization: reconstruction error {err!r} "
            f"exceeds {recon_tol!r} for factors {tuple(blocks)}; the cut "
            f"threshold {tol!r} is likely too loose for this state")
    return Factorization(tuple(blocks), tuple(marginal))
