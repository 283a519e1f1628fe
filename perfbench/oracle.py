"""Independent numpy reference for the pure-state GME measure.

The benchmark checks the program's outputs against this module, so it
shares no code with ``trigme``: cuts are bitmasks, purities come from a
Gram matrix on the smaller side of each cut, and the triangle stage is
vectorised.  The conventions follow the published definition: edges
are cut concurrences (or their squares), the normalized Heron area is
``[(16/3) Q (Q-a)(Q-b)(Q-c)]**e`` with e = 1/2 (or 1/4), an edge at or
below 1e-6 forces a zero area, an area at or below 1e-8 zeroes its
level, and the total is the geometric mean of the level values.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

ZERO_EDGE = 1e-6
ZERO_AREA = 1e-8


def cut_purity(amps: np.ndarray, dims: tuple[int, ...],
               axes: tuple[int, ...]) -> float:
    """Tr(rho_S^2) for the 0-based party axes ``axes`` of a pure state."""
    rest = tuple(i for i in range(len(dims)) if i not in axes)
    dk = math.prod(dims[i] for i in axes)
    side = axes if dk * dk <= amps.size else rest
    other = tuple(i for i in range(len(dims)) if i not in side)
    m = np.transpose(amps.reshape(dims), side + other).reshape(
        math.prod(dims[i] for i in side), -1)
    g = m @ m.conj().T
    return float(np.vdot(g, g).real)


def gme_reference(amps: np.ndarray, dims: tuple[int, ...],
                  squared: bool = False) -> float:
    """Total concurrence-triangle GME value of a normalized pure state."""
    n = len(dims)
    full = (1 << n) - 1
    conc: dict[int, float] = {}

    def edge(mask: int) -> float:
        key = min(mask, full ^ mask)
        if key not in conc:
            axes = tuple(i for i in range(n) if key >> i & 1)
            pur = cut_purity(amps, dims, axes)
            conc[key] = math.sqrt(max(0.0, 2.0 * (1.0 - pur)))
        return conc[key]

    levels = [1] if n == 3 else range(1, max(1, (n - 2) // 2) + 1)
    level_values = []
    for level in levels:
        raw = []
        for i in range(n):
            others = [p for p in range(n) if p != i]
            for s in combinations(others, level):
                smask = sum(1 << p for p in s)
                raw.append((edge(1 << i), edge(smask),
                            edge(full ^ (1 << i) ^ smask)))
        raw = np.array(raw)
        e = raw * raw if squared else raw
        q = 0.5 * e.sum(axis=1)
        rad = (16.0 / 3.0) * q * np.prod(q[:, None] - e, axis=1)
        area = np.maximum(rad, 0.0) ** (0.25 if squared else 0.5)
        area[raw.min(axis=1) <= ZERO_EDGE] = 0.0
        if area.min() <= ZERO_AREA:
            return 0.0
        level_values.append(math.exp(math.fsum(np.log(area)) / area.size))
    return math.exp(math.fsum(math.log(v) for v in level_values)
                    / len(level_values))


def purification(rho: np.ndarray,
                 rank_tol: float = 1e-9) -> tuple[np.ndarray, int]:
    """Amplitudes of a spectral purification, reference party last."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    r = int(np.sum(vals > rank_tol))
    amps = (vecs[:, :r] * np.sqrt(vals[:r])).reshape(-1)
    return amps / np.linalg.norm(amps), r
