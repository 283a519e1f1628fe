"""Independent brute-force reference implementations for the tests.

Everything here avoids the library's reshape/transpose machinery on
purpose: marginals are built by explicit summation over basis indices,
triangle areas come from coordinate geometry instead of Heron's
formula, and the convex-roof reference is a plain parameter grid.
The one exception is ``kernel_concurrence``, a bit-for-bit reference
for the cut kernel.
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


def kernel_concurrence(amps, dims, keep0) -> float:
    """One cut's concurrence as the library computed it before cut
    layouts, step for step: the smaller side (ties keep ``keep0``), the
    transposed copy that puts it first, the Gram product, then the sum
    of squared moduli."""
    dk = math.prod(dims[i] for i in keep0)
    side = (keep0 if dk <= math.prod(dims) // dk
            else [i for i in range(len(dims)) if i not in keep0])
    rest = [i for i in range(len(dims)) if i not in side]
    m = amps.reshape(dims).transpose(side + rest).reshape(
        math.prod(dims[i] for i in side), -1)
    g = m @ m.conj().T
    pur = float((np.abs(g) ** 2).sum())
    return math.sqrt(max(0.0, 2.0 * (1.0 - pur)))


def pure_two_qubit_concurrence(amps) -> float:
    """C = 2 |a00 a11 - a01 a10| for a pure two-qubit state."""
    return 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])


def eager_inventory(psi, conv):
    """The triangle records as ``f_total`` once built them, eagerly and
    one checked ``TriangleEdges`` per triangle: every triangle, the first
    of each unordered zero-area triangle, and those above area one."""
    from trigme.concurrence import all_cut_concurrences
    from trigme.triangles import (UNIT_AREA_TOL, ZERO_AREA_TOL,
                                  ZERO_EDGE_TOL, Triangle, TriangleEdges,
                                  ZeroAreaTriangle, _level_areas, _level_plan)

    n = psi.nparties
    values = np.array([all_cut_concurrences(psi, n // 2).values])
    triangles, zero = [], {}
    for level in range(1, max(1, (n - 2) // 2) + 1):
        raw, [areas] = _level_areas(values, n, level, conv)
        for labels, edge_raw, area in zip(_level_plan(n, level)[0],
                                          raw[0].T.tolist(), areas):
            edges = TriangleEdges(*map(conv.edge, edge_raw), labels)
            triangles.append(Triangle(level, edges, area))
            if area <= ZERO_AREA_TOL:  # first of each unordered triangle
                zero.setdefault((level, frozenset(labels)), ZeroAreaTriangle(
                    level, labels, area,
                    tuple(v for v, x in zip(labels, edge_raw)
                          if x <= ZERO_EDGE_TOL)))
    above = tuple(t for t in triangles if t.area > 1.0 + UNIT_AREA_TOL)
    return tuple(triangles), tuple(zero.values()), above


def blas_free_lines() -> str:
    """``repr`` of every cut concurrence and ``gme_value`` of seeded 16^4
    and 24^4 states, one a line.  The states are normalised with
    ``math.fsum``, so no BLAS call touches their amplitudes
    (``haar_random_pure`` divides by ``np.linalg.norm``, a BLAS sum)."""
    from trigme import EdgeConvention, PureState, all_cut_concurrences, \
        gme_value

    lines = []
    for dims, seed in (([16] * 4, 1), ([24] * 4, 2)):
        rng, d = np.random.default_rng(seed), math.prod(dims)
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        norm = math.sqrt(math.fsum(np.square(z.view(float)).tolist()))
        psi = PureState(dims, z / norm)
        table = all_cut_concurrences(psi, 2)  # 7 cuts
        lines += [repr(v) for v in table.entries.values()]
        lines += [repr(gme_value(psi, conv)) for conv in EdgeConvention]
    return "\n".join(lines) + "\n"


def analysis_dict(report) -> dict:
    """The ``analyze --json`` document of an ``AnalysisReport`` as a dict
    built from its records, for ``canonical_json``."""
    from trigme import __version__

    gme, fact = report.gme, report.factorization
    return {
        "tool_version": __version__,
        "input_digest": report.input_digest,
        "dims": list(gme.dims),
        "tolerance": report.tolerance,
        "seed": report.seed,
        "convention": gme.convention.value,
        "cut_concurrences": {cut.label(): v
                             for cut, v in sorted(gme.cut_values.items())},
        "level_values": {str(l): v
                         for l, v in sorted(gme.level_values.items())},
        "f_total": gme.value,
        "is_gme": gme.is_gme,
        "factorization": {"factors": [list(f) for f in fact.factors],
                          "is_gme": fact.is_gme},
        "zero_triangles": [
            {"level": z.level,
             "vertices": [list(v) for v in z.vertex_labels],
             "area": z.area,
             "zero_edges": [list(e) for e in z.zero_edges]}
            for z in gme.zero_triangles],
        "areas_above_one": [
            {"level": t.level,
             "vertices": [list(v) for v in t.vertex_labels],
             "area": t.area}
            for t in gme.areas_above_one],
        "marginal_cuts": [c.label() for c in fact.marginal_cuts],
        "notices": list(report.notices),
    }


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


def givens_isometry(m: int, r: int, params) -> np.ndarray:
    """The roof's m x r isometry from the full product of the m(m-1)/2
    complex Givens rotations (angle, phase pairs over the index pairs
    p < q in lexicographic order), first r columns, rephased by the last
    r coordinates: every rotation applied, past the rank or not."""
    u = np.eye(m, dtype=complex)
    rot = np.eye(m, dtype=complex)  # reset to the identity after each use
    angles = params.tolist()
    k = 0
    for p in range(m):
        for q in range(p + 1, m):
            th, ph = angles[k], angles[k + 1]
            k += 2
            c, s = math.cos(th), math.sin(th)
            e = complex(math.cos(ph), math.sin(ph))
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s * e
            rot[q, p] = -s * e.conjugate()
            u = u @ rot
            rot[p, p] = rot[q, q] = 1.0
            rot[p, q] = rot[q, p] = 0.0
    return u[:, :r] * np.exp(1j * params[k:k + r])


def single_search(fun, x0, max_iterations):
    """``mixed._nelder_mead`` driven alone, each point it asks for scored
    by ``fun`` in turn, with no lockstep driver in between."""
    from trigme.mixed import _nelder_mead

    search = _nelder_mead(x0, max_iterations)
    points = next(search)
    while True:
        try:
            points = search.send([fun(x) for x in points])
        except StopIteration as done:
            return done.value


def sequential_roof(rho, conv, config):
    """The convex roof's search one local search at a time, in the
    size-major order its results are folded in: ``single_search`` on the
    one-isometry objective, restart streams spawned on demand, and every
    search skipped once the incumbent is zero.  Returns the value, the
    spectral value, the history, the members (p_i, psi_i) and the result
    of every search run, in that order."""
    from trigme.mixed import (_ensemble_members, _ensemble_values,
                              _isometry, _param_count, _spectrum)
    from trigme.triangles import gme_value

    spec = _spectrum(rho)
    r = spec.rank
    sub = spec.vectors[:, :r] * np.sqrt(spec.values[:r])
    sizes = config.ensemble_sizes or tuple(range(r, r + 3))
    members = ([(1.0, spec.pure)] if spec.pure is not None
               else _ensemble_members(sub, np.eye(r), rho.dims, spec.cut))
    spectral = best = math.fsum(p * gme_value(psi, conv) for p, psi in members)
    history = [best]
    searches = []
    seed_seq = np.random.SeedSequence(config.seed)
    for m in sizes:
        def objective(params):
            [value] = _ensemble_values(sub, [_isometry(m, r, params)],
                                       rho.dims, spec.cut, conv)
            return value

        for _ in range(config.restarts):
            if r == 1 or best <= 1e-10:
                history.append(best)
                continue
            rng = np.random.default_rng(seed_seq.spawn(1)[0])
            x0 = rng.uniform(0.0, 2.0 * math.pi, size=_param_count(m, r))
            res = single_search(objective, x0, config.max_iterations)
            searches.append(res)
            if res.fun < best - 1e-12:
                best = float(res.fun)
                members = _ensemble_members(sub, _isometry(m, r, res.x),
                                            rho.dims, spec.cut)
            history.append(best)
    return best, spectral, tuple(history), members, searches
