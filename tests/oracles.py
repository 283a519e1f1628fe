"""Independent brute-force reference implementations for the tests.

Everything here avoids the library's reshape/transpose machinery on
purpose: marginals are built by explicit summation over basis indices,
triangle areas come from coordinate geometry instead of Heron's
formula, and the convex-roof reference is a plain parameter grid.
"""

import math

import numpy as np


def index_digits(idx: int, dims) -> list[int]:
    out = []
    for d in reversed(dims):
        out.append(idx % d)
        idx //= d
    return list(reversed(out))


def brute_marginal(amps, dims, keep0) -> np.ndarray:
    """Reduced density matrix by explicit double summation."""
    dims = list(dims)
    n = len(dims)
    drop0 = [i for i in range(n) if i not in keep0]
    keep_dims = [dims[i] for i in keep0]
    dk = 1
    for d in keep_dims:
        dk *= d

    def kept_index(dgs):
        r = 0
        for i, d in zip(keep0, keep_dims):
            r = r * d + dgs[i]
        return r

    rho = np.zeros((dk, dk), dtype=complex)
    big = len(amps)
    digits = [index_digits(x, dims) for x in range(big)]
    for x in range(big):
        for y in range(big):
            if all(digits[x][i] == digits[y][i] for i in drop0):
                rho[kept_index(digits[x]), kept_index(digits[y])] += \
                    amps[x] * np.conj(amps[y])
    return rho


def product_infidelity(amps, dims, factors) -> float:
    """1 - <psi| (x)_B P_B |psi>, with P_B the projector on a top
    eigenvector v_B of the block marginal: the product state over the
    blocks is summed amplitude by amplitude in party order."""
    tops = []
    for block in factors:
        keep0 = [p - 1 for p in block]
        vals, vecs = np.linalg.eigh(brute_marginal(amps, dims, keep0))
        tops.append((keep0, [dims[i] for i in keep0], vecs[:, -1]))
    overlap = 0.0
    for x, a in enumerate(amps):
        digits = index_digits(x, dims)
        product = 1.0
        for keep0, keep_dims, v in tops:
            k = 0
            for i, d in zip(keep0, keep_dims):
                k = k * d + digits[i]
            product *= v[k]
        overlap += np.conj(product) * a
    return 1.0 - abs(overlap) ** 2


def refine_blocks(blocks, subset) -> list[tuple[int, ...]]:
    """Split every block against a subset and its complement: applied
    once per product cut, from the single block 1..N, this is the
    cut-by-cut common refinement of the product cuts."""
    s = set(subset)
    out = []
    for block in blocks:
        inside = tuple(p for p in block if p in s)
        outside = tuple(p for p in block if p not in s)
        if inside:
            out.append(inside)
        if outside:
            out.append(outside)
    return sorted(out)


def brute_purity(rho) -> float:
    d = rho.shape[0]
    total = 0.0
    for i in range(d):
        for j in range(d):
            total += (rho[i, j] * rho[j, i]).real
    return total


def brute_concurrence(amps, dims, subset0) -> float:
    rho = brute_marginal(amps, dims, subset0)
    return math.sqrt(max(0.0, 2.0 * (1.0 - brute_purity(rho))))


def pure_two_qubit_concurrence(amps) -> float:
    """C = 2 |a00 a11 - a01 a10| for a pure two-qubit state."""
    return 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])


def coordinate_triangle_area(a: float, b: float, c: float) -> float:
    """Classic triangle area from side lengths via a planar embedding.

    Vertices at (0, 0) and (c, 0); the third vertex is located from the
    two remaining distances.  Returns 0 for degenerate inputs.
    """
    if c == 0.0:
        return 0.0
    x = (c * c + b * b - a * a) / (2.0 * c)
    y_sq = b * b - x * x
    if y_sq <= 0.0:
        return 0.0
    return 0.5 * c * math.sqrt(y_sq)


def coordinate_area_normalized(a: float, b: float, c: float,
                               exponent: float) -> float:
    """Normalized area [(16/3) * area^2] ** exponent via coordinates."""
    area = coordinate_triangle_area(a, b, c)
    return ((16.0 / 3.0) * area * area) ** exponent


def _grid_f3(amps) -> float:
    """Compact three-qubit area value used only to score grid members.

    The grid oracle exists to cross-check the decomposition *search*,
    so the member scoring may share the pure-state formula; the formula
    itself is validated against ``brute_concurrence`` elsewhere.
    """
    t = amps.reshape(2, 2, 2)
    conc = []
    for axis in range(3):
        m = np.moveaxis(t, axis, 0).reshape(2, 4)
        g = m @ m.conj().T
        pur = float(np.sum(np.abs(g) ** 2))
        conc.append(math.sqrt(max(0.0, 2.0 * (1.0 - pur))))
    a, b, c = conc
    q = 0.5 * (a + b + c)
    rad = (16.0 / 3.0) * q * (q - a) * (q - b) * (q - c)
    return max(rad, 0.0) ** 0.5


# Output of grid_roof_oracle at 450 x 224 grid points for the mixture
# 3/4 GHZ_3 + 1/4 |000><000|; coarse size-3 and size-4 Givens grids
# (~1e5 samples total) found nothing lower.
GHZ_MIX_ROOF_REFERENCE = 0.562500617706415


def ghz_000_mixture() -> np.ndarray:
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    rho = 0.75 * np.outer(ghz, ghz)
    rho[0, 0] += 0.25
    return rho


def grid_roof_oracle(rho, theta_points: int = 180,
                     phase_points: int = 96) -> float:
    """Brute-force convex-roof reference for a rank-2 three-qubit state.

    Size-2 decompositions are enumerated on a dense (theta, phase) grid
    of 2x2 isometries acting on the spectral ensemble.
    """
    vals, vecs = np.linalg.eigh(rho)
    lam = vals[::-1][:2]
    sub = vecs[:, ::-1][:, :2] * np.sqrt(np.clip(lam, 0.0, None))
    best = math.inf
    for th in np.linspace(0.0, math.pi / 2.0, theta_points):
        co, si = math.cos(th), math.sin(th)
        for ph in np.linspace(0.0, 2.0 * math.pi, phase_points,
                              endpoint=False):
            e = complex(math.cos(ph), math.sin(ph))
            u = np.array([[co, si * e], [-si * e.conjugate(), co]])
            total = 0.0
            for i in range(2):
                member = sub @ u[i, :].conj()
                p = float(np.vdot(member, member).real)
                if p > 1e-14:
                    total += p * _grid_f3(member / math.sqrt(p))
            if total < best:
                best = total
    return best
