"""Dense multi-qudit pure states, density matrices, and local channels.

Amplitudes are stored row-major in party order: the flat index of the
basis state ``|c_1 c_2 ... c_N>`` is ``sum_k c_k * prod_{j>k} d_j``.
Parties are labeled ``1..N`` in the public API.  Every operation is a
pure function of its inputs plus an explicit seed, and every object's
data is read-only after construction.  A ``PureState`` keeps the cut
concurrences computed from it (see ``concurrence.all_cut_concurrences``):
each is written once and is a pure function of the read-only
amplitudes, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ValidationError

NORM_TOL = 1e-9
KRAUS_TOL = 1e-9
BRANCH_PROB_FLOOR = 1e-12
# a complex amplitude takes 16 bytes, so no larger vector is addressable
MAX_STATE_DIM = np.iinfo(np.intp).max // 16

__all__ = [
    "Cut",
    "PureState",
    "DensityMatrix",
    "LocalChannel",
    "tensor_product",
    "partial_trace",
    "purity",
    "linear_entropy",
    "hermitian_eig",
    "haar_random_pure",
    "haar_random_unitary",
    "apply_local_channel_branches",
    "random_local_channel",
    "ghz_state",
    "w_state",
    "basis_state",
]


def _party_tuple(parties: Iterable[int], nparties: int) -> tuple[int, ...]:
    """Validate and sort a collection of 1-based party labels."""
    raw = tuple(int(p) for p in parties)
    out = tuple(sorted(set(raw)))
    if len(out) != len(raw):
        raise ValidationError(f"duplicate party labels in {raw}")
    for p in out:
        if not 1 <= p <= nparties:
            raise ValidationError(
                f"party label {p} out of range 1..{nparties}")
    return out


@dataclass(frozen=True, order=True)
class Cut:
    """A bipartition S | S^c of parties 1..nparties, stored canonically.

    The stored side is the smaller of S and S^c; when both sides have
    the same size, the side containing party 1 is kept.  This gives one
    key per bipartition regardless of which side the caller named.
    Build instances with :meth:`Cut.of`.
    """

    parties: tuple[int, ...]
    nparties: int

    def __post_init__(self):
        parties = _party_tuple(self.parties, self.nparties)
        if not parties or len(parties) == self.nparties:
            raise ValidationError("improper bipartition: subset must be "
                                  "nonempty and proper")
        object.__setattr__(self, "parties", parties)
        comp_size = self.nparties - len(parties)
        if len(parties) > comp_size or (len(parties) == comp_size
                                        and parties[0] != 1):
            raise ValidationError(
                f"cut {parties} is not canonical; use Cut.of()")

    @classmethod
    def of(cls, subset: Iterable[int], nparties: int) -> "Cut":
        """Canonicalize ``subset`` (or its complement) into a Cut."""
        s = _party_tuple(subset, nparties)
        comp = tuple(p for p in range(1, nparties + 1) if p not in s)
        if len(s) < len(comp) or (len(s) == len(comp) and 1 in s):
            return cls(s, nparties)
        return cls(comp, nparties)

    @property
    def complement(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.nparties + 1)
                     if p not in self.parties)

    def label(self) -> str:
        left = ",".join(str(p) for p in self.parties)
        right = ",".join(str(p) for p in self.complement)
        return f"{left}|{right}"


def _check_finite(values: np.ndarray, what: str) -> None:
    """Refuse NaN and infinities, which every later check would pass."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        where = idx[0] if len(idx) == 1 else idx
        raise ValidationError(
            f"{what} {where} is not finite: {complex(values[idx])!r}")


def _check_tol(tol: float) -> None:
    """Refuse a NaN, infinite or negative tolerance: NaN turns every
    check off, and a negative one fails exact input."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(
            f"tolerance {tol!r} is not a finite number >= 0")


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValidationError("dims must be nonempty")
    for d in out:
        # d == 1 is tolerated so rank-1 purifications can carry a trivial
        # reference party; state documents require d >= 2.
        if d < 1:
            raise ValidationError(f"local dimension {d} < 1")
    total = math.prod(out)
    if total > MAX_STATE_DIM:
        raise ValidationError(
            f"product of dims {total} exceeds the largest addressable "
            f"state dimension {MAX_STATE_DIM}")
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over a list of local dimensions.

    Parameters
    ----------
    dims : sequence of int
        Local dimensions ``d_1..d_N``.
    amplitudes : array_like
        Complex vector of length ``prod(dims)``, row-major in party order.
    tol : float
        Norm validation tolerance (defaults to 1e-9); finite and >= 0.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    tol: float = field(default=NORM_TOL, repr=False)

    def __post_init__(self):
        _check_tol(self.tol)
        dims = _check_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        d = math.prod(dims)
        if amps.size != d:
            raise ValidationError(
                f"amplitude length {amps.size} != product of dims {d}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):  # NaN or inf, or a square overflowed
            _check_finite(amps, "amplitude")
            scale = float(np.max(np.abs(amps)))
            norm = scale * float(np.linalg.norm(amps / scale))
        if abs(norm - 1.0) > self.tol:
            raise ValidationError(
                f"state norm {norm!r} deviates from 1 by more than {self.tol}")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)
        # cut concurrences in cut-plan order, a prefix that grows as
        # larger tables are asked for
        object.__setattr__(self, "_cut_values", [])

    @property
    def nparties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amplitudes.reshape(self.dims)

    def projector(self) -> "DensityMatrix":
        """|psi><psi| as a DensityMatrix."""
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.dims, mat, tol=max(self.tol, NORM_TOL))


def _checked_eig(mat: np.ndarray, tol: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Descending ``eigh`` of a finite matrix Hermitian within ``tol``."""
    _check_finite(mat, "matrix entry")
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > tol:
        raise ValidationError(
            f"matrix is not Hermitian: max |M - M^H| = {herm!r}")
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive-semidefinite matrix with unit trace.

    The validation tolerance is carried on the instance so that objects
    derived from loosely validated inputs (such as rounded published
    fixtures loaded with ``tol=1e-3``) propagate their tolerance to
    their own marginals and to the mixed-state rank cut.  It must be
    finite and >= 0; the validating eigendecomposition is kept.
    """

    dims: tuple[int, ...]
    entries: np.ndarray
    tol: float = field(default=NORM_TOL, repr=False)

    def __post_init__(self):
        _check_tol(self.tol)
        dims = _check_dims(self.dims)
        mat = np.array(self.entries, dtype=complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ValidationError(
                f"matrix shape {mat.shape} != ({d}, {d}) from dims {dims}")
        vals, vecs = _checked_eig(mat, self.tol)
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > self.tol:
            raise ValidationError(
                f"trace {tr!r} deviates from 1 by more than {self.tol}")
        if vals[-1] < -self.tol:
            raise ValidationError(
                f"matrix has negative eigenvalue {float(vals[-1])!r}")
        for a in (mat, vals, vecs):
            a.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "_eig", (vals, vecs))

    @property
    def nparties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class LocalChannel:
    """Kraus operators acting on a single party.

    ``sum_k K_k^H K_k`` must equal the identity within 1e-9.
    """

    party: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if int(self.party) < 1:
            raise ValidationError(f"party label {self.party} < 1")
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValidationError(
                    f"Kraus operator shape {k.shape} != ({d}, {d})")
            _check_finite(k, "Kraus operator entry")
        total = sum(k.conj().T @ k for k in ops)
        err = float(np.max(np.abs(total - np.eye(d))))
        if err > KRAUS_TOL:
            raise ValidationError(
                f"Kraus completeness violated: max |sum K^H K - I| = {err!r}")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "party", int(self.party))
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


def tensor_product(states: Sequence[PureState]) -> PureState:
    """Kronecker product of pure states, in the given party order."""
    if not states:
        raise ValidationError("no factors")
    amps = reduce(np.kron, (s.amplitudes for s in states))
    dims = tuple(d for s in states for d in s.dims)
    tol = max(s.tol for s in states)
    return PureState(dims, amps, tol=max(tol, NORM_TOL))


def _keep_axes(state_dims: tuple[int, ...], keep) -> _Layout:
    """Resolve a Cut or iterable of 1-based labels to their layout."""
    n = len(state_dims)
    if isinstance(keep, Cut):
        if keep.nparties != n:
            raise ValidationError(
                f"cut is over {keep.nparties} parties, state has {n}")
        labels = keep.parties
    else:
        labels = _party_tuple(keep, n)
    if not labels or len(labels) == n:
        raise ValidationError("improper bipartition: keep must be a "
                              "nonempty proper subset")
    return _Layout.of(state_dims, [p - 1 for p in labels])


def _check_rows(dims: tuple[int, ...], rows: np.ndarray, tol: float) -> None:
    """PureState's checks on every row of an (m, D) stack of amplitudes.

    The squared norms are screened together.  A squared norm within
    ``tol`` of 1 puts the norm within about ``tol / 2`` of 1, far inside
    PureState's bound whatever the rounding; every other row (NaN and
    infinities included) gets PureState's own check, which decides and
    raises exactly as it does for one state.
    """
    sq = np.einsum("ij,ij->i", rows.conj(), rows).real
    ok = np.abs(sq - 1.0) <= tol
    if not ok.all():
        for i in np.flatnonzero(~ok).tolist():
            PureState(dims, rows[i], tol=tol)


@dataclass(frozen=True, slots=True)
class _Layout:
    """One side of a bipartition of ``dims``: ``axes`` puts its ``size``
    axes (0-based, sorted; what iterating the layout yields) first, and
    ``shape`` is the (dk, dr) matrix the amplitudes then take."""

    axes: tuple[int, ...]
    shape: tuple[int, int]
    size: int

    @classmethod
    def of(cls, dims: tuple[int, ...], side) -> "_Layout":
        """The layout of ``side``."""
        rest = [i for i in range(len(dims)) if i not in side]
        dk = math.prod(dims[i] for i in side)
        return cls((*side, *rest), (dk, math.prod(dims) // dk), len(side))

    def __iter__(self):
        return iter(self.axes[:self.size])

    def __len__(self) -> int:
        return self.size


def _pure_marginal(amps: np.ndarray, dims: tuple[int, ...],
                   keep0: _Layout) -> np.ndarray:
    """Reduced density matrix of a pure state over the side ``keep0``.

    ``amps`` may carry leading batch axes, (..., D) -> (..., dk, dk);
    each matrix equals the one of its state alone, bit for bit.
    """
    lead = amps.shape[:-1]
    axes = keep0.axes if not lead else (
        *range(len(lead)), *(len(lead) + i for i in keep0.axes))
    m = amps.reshape(lead + dims).transpose(axes).reshape(lead + keep0.shape)
    return m @ m.conj().swapaxes(-1, -2)


def _mixed_marginal(mat: np.ndarray, dims: tuple[int, ...],
                    keep0: _Layout) -> np.ndarray:
    t = mat.reshape(dims + dims).transpose(
        keep0.axes + tuple(len(dims) + i for i in keep0.axes))
    return np.einsum("ajbj->ab", t.reshape(keep0.shape * 2))


def partial_trace(state: PureState | DensityMatrix, keep) -> DensityMatrix:
    """Trace out everything except ``keep``.

    Parameters
    ----------
    state : PureState or DensityMatrix
    keep : Cut or iterable of int
        1-based labels of the parties to keep.

    Returns
    -------
    DensityMatrix
        Reduced state on the kept parties, in ascending party order.
    """
    side = _keep_axes(state.dims, keep)
    kept_dims = tuple(state.dims[i] for i in side)
    if isinstance(state, PureState):
        mat = _pure_marginal(state.amplitudes, state.dims, side)
    else:
        mat = _mixed_marginal(state.entries, state.dims, side)
    return DensityMatrix(kept_dims, mat, tol=max(state.tol, NORM_TOL))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), computed as the squared Frobenius norm."""
    return float(np.sum(np.abs(rho.entries) ** 2))


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2); zero exactly on pure states."""
    return 1.0 - purity(rho)


def hermitian_eig(rho: DensityMatrix | np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns
    -------
    (eigenvalues, eigenvectors)
        ``eigenvalues`` is a real descending vector; column k of
        ``eigenvectors`` is the eigenvector for ``eigenvalues[k]``.
        Degenerate subspaces may return any orthonormal completion.

    A DensityMatrix returns copies of the decomposition its validation
    made.  A raw array is refused unless it is a nonempty square matrix,
    finite and Hermitian within NORM_TOL.
    """
    if isinstance(rho, DensityMatrix):
        return rho._eig[0].copy(), rho._eig[1].copy()
    mat = np.asarray(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValidationError(
            f"matrix shape {mat.shape} is not a nonempty square matrix")
    return _checked_eig(mat, NORM_TOL)


def haar_random_pure(dims: Sequence[int], seed: int) -> PureState:
    """Haar-random pure state: normalized standard complex Gaussian vector.

    Uses ``numpy.random.default_rng(seed)`` (PCG64), so results are
    deterministic per seed.
    """
    dims = _check_dims(dims)
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(dims, z / np.linalg.norm(z))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def apply_local_channel_branches(
        psi: PureState, ch: LocalChannel) -> list[tuple[float, PureState]]:
    """Pure-state branch ensemble of a single-party channel.

    Branch k carries probability ``p_k = ||K_k psi||^2`` and the
    renormalized post-measurement state.  Branches with probability
    below 1e-12 are dropped; the remaining probabilities sum to 1
    within 1e-9.
    """
    if not 1 <= ch.party <= psi.nparties:
        raise ValidationError(
            f"channel party {ch.party} out of range 1..{psi.nparties}")
    axis = ch.party - 1
    if ch.dim != psi.dims[axis]:
        raise ValidationError(
            f"channel dimension {ch.dim} != party dimension {psi.dims[axis]}")
    t = psi.tensor()
    out = []
    for k in ch.kraus:
        bt = np.moveaxis(np.tensordot(k, t, axes=([1], [axis])), 0, axis)
        amps = bt.reshape(-1)
        p = float(np.real(np.vdot(amps, amps)))
        if p >= BRANCH_PROB_FLOOR:
            out.append((p, PureState(psi.dims, amps / math.sqrt(p))))
    return out


def random_local_channel(party: int, dim: int, kraus_count: int,
                         seed: int) -> LocalChannel:
    """Random channel on one party from a Haar-random isometry.

    The ``kraus_count`` operators are the d x d blocks of a random
    isometry from C^d into C^d (x) C^kraus_count, so completeness holds
    by construction.
    """
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim * kraus_count, dim))
         + 1j * rng.standard_normal((dim * kraus_count, dim)))
    q, _ = np.linalg.qr(z)
    ops = tuple(q[j * dim:(j + 1) * dim, :] for j in range(kraus_count))
    return LocalChannel(party, ops)


def basis_state(dims: Sequence[int], levels: Sequence[int]) -> PureState:
    """Computational basis state |levels[0] levels[1] ...>."""
    dims = _check_dims(dims)
    if len(levels) != len(dims):
        raise ValidationError("levels and dims must have equal length")
    idx = 0
    for d, c in zip(dims, levels):
        if not 0 <= int(c) < d:
            raise ValidationError(f"level {c} out of range for dimension {d}")
        idx = idx * d + int(c)
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[idx] = 1.0
    return PureState(dims, amps)


def ghz_state(nparties: int, dim: int = 2) -> PureState:
    """(|0...0> + |1...1> + ... + |d-1 ... d-1>) / sqrt(d)."""
    if nparties < 2:
        raise ValidationError("GHZ state needs at least 2 parties")
    if dim < 2:
        raise ValidationError(
            f"GHZ state needs local dimension >= 2, got dimension {dim}")
    dims = (dim,) * nparties
    amps = np.zeros(dim ** nparties, dtype=complex)
    step = (dim ** nparties - 1) // (dim - 1)
    amps[::step] = 1.0 / math.sqrt(dim)
    return PureState(dims, amps)


def w_state(nparties: int) -> PureState:
    """Equal superposition of all single-excitation qubit basis states."""
    if nparties < 2:
        raise ValidationError("W state needs at least 2 parties")
    amps = np.zeros(2 ** nparties, dtype=complex)
    for k in range(nparties):
        amps[1 << k] = 1.0 / math.sqrt(nparties)
    return PureState((2,) * nparties, amps)
