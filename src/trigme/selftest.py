"""Runnable paper check behind the ``selftest`` CLI command.

Each check prints one PASS/FAIL line.  The campaign covers the paper's
GHZ/W values, the appendix C classification and its traced witness,
the appendix E witness, the polygamy-inequality suites, LOCC-branch and
edge monotonicity, local unitary invariance, the 5-party level
equivalence, witness gauge invariance and the witness verdict on the
maximally mixed state.  The acceptance criteria 1-7 and 9 run these
checks.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .classify import finest_factorization
from .concurrence import all_cut_concurrences, check_polygamy, \
    wootters_concurrence
from .errors import TrigmeError
from .mixed import _spectrum, minimal_purification, witness
from .states import (DensityMatrix, LocalChannel, PureState, ghz_state,
                     haar_random_pure, haar_random_unitary, hermitian_eig,
                     partial_trace, random_local_channel, tensor_product,
                     apply_local_channel_branches, w_state)
from .stateio import fixture_path, parse_state_file
from .triangles import EdgeConvention, f_level, f_total, gme_value

__all__ = ["run_selftest", "CHECKS", "appendix_c_state"]

BOTH = (EdgeConvention.CONCURRENCE, EdgeConvention.SQUARED)


def permute_parties(psi: PureState, order: list[int]) -> PureState:
    """Relabel parties so that new party k is old party order[k-1]."""
    perm0 = [p - 1 for p in order]
    t = psi.tensor().transpose(perm0)
    return PureState(tuple(psi.dims[i] for i in perm0), t.reshape(-1))


def random_biseparable(nparties: int, seed: int) -> PureState:
    """Haar factors on a random bipartition, randomly interleaved."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, nparties))
    order = list(rng.permutation(nparties) + 1)
    left = tensor_product([haar_random_pure([2] * size, seed * 2 + 1),
                           haar_random_pure([2] * (nparties - size),
                                            seed * 2 + 2)])
    inverse = list(np.argsort(order) + 1)
    return permute_parties(left, inverse)


def _near(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:  # a NaN fails too
        raise AssertionError(f"{what} = {got:.6g}, expected {want} +- {tol:g}")


def check_golden_pure() -> str:
    ghz4, w4 = ghz_state(4), w_state(4)
    area = (5.0 / 12.0) ** 0.25
    w4_sq = f_total(w4, BOTH[1])
    expect = [
        (gme_value(ghz4, BOTH[0]), 1.0),
        (gme_value(ghz4, BOTH[1]), 1.0),
        (gme_value(w4, BOTH[0]), math.sqrt(2.0 / 3.0)),
        (gme_value(w4, BOTH[1]), area),
        (gme_value(ghz_state(3), BOTH[0]), 1.0),
        (gme_value(w_state(3), BOTH[0]), 8.0 / 9.0),
        (gme_value(ghz_state(6), BOTH[0]), 1.0),
        (f_total(ghz4, BOTH[0]).value, 1.0),
        (f_total(ghz4, BOTH[1]).value, 1.0),
        (f_total(w4, BOTH[0]).value, math.sqrt(2.0 / 3.0)),
        (w4_sq.value, area),
    ]
    for tri in w4_sq.triangles:  # every W4 triangle, squared convention
        edges = sorted((tri.edges.a, tri.edges.b, tri.edges.c))
        expect += [*zip(edges, (0.75, 0.75, 1.0)), (tri.area, area)]
    devs = [abs(got - want) for got, want in expect]
    if not all(d <= 1e-9 for d in devs):
        raise AssertionError(f"golden pure values deviate by {max(devs):.3e}")
    return f"{len(expect)} values, max deviation {max(devs):.1e}"


def appendix_c_state() -> PureState:
    """The appendix_c fixture, rank 1 at tolerance 1e-3, as a pure state."""
    rho = parse_state_file(fixture_path("appendix_c.json"), tol=1e-3)
    spec = _spectrum(rho)
    if spec.pure is None:
        raise AssertionError(f"appendix_c eigenvalue 2 = {spec.values[1]:.2e}")
    return spec.pure


def check_appendix_c() -> str:
    psi = appendix_c_state()
    for conv in BOTH:
        rep = f_total(psi, conv)
        if rep.value != 0.0:
            raise AssertionError(f"appendix_c F_4 = {rep.value!r} != 0")
        flagged = {frozenset(z.vertex_labels) for z in rep.zero_triangles}
        for verts in (((1,), (3,), (2, 4)), ((2,), (4,), (1, 3))):
            if frozenset(verts) not in flagged:
                raise AssertionError(f"triangle {verts} not flagged zero")
    # the published 0.866 is the internal concurrence of the (3,4) pair,
    # visible as the pair's Wootters value and as the cuts isolating
    # party 3 or 4; the bipartition {3,4}|{1,2} itself vanishes,
    # consistently with the {1},{2},{3,4} factorization
    pair = wootters_concurrence(partial_trace(psi, (3, 4)))
    _near("appendix_c pair (3,4) concurrence", pair, 0.866, 5e-3)
    table = all_cut_concurrences(psi, 2)
    for cut, want, tol in (((3,), 0.866, 5e-3), ((4,), 0.866, 5e-3),
                           ((3, 4), 0.0, 1e-4)):
        _near(f"appendix_c cut {cut} concurrence", table.value(cut), want,
              tol)
    factors = finest_factorization(psi, tol=1e-3).factors
    if factors != ((1,), (2,), (3, 4)):
        raise AssertionError(f"appendix_c factors {factors}")
    return f"F = 0, factors {{1}},{{2}},{{3,4}}, pair concurrence {pair:.4f}"


def check_appendix_e() -> str:
    rho = parse_state_file(fixture_path("appendix_e.json"))
    evals = hermitian_eig(rho)[0]
    _near("appendix_e eigenvalue 0", evals[0], 0.75, 1e-3)
    _near("appendix_e eigenvalue 1", evals[1], 0.25, 1e-3)
    for labels in ((1, 2), (1, 3), (2, 3)):
        _near(f"appendix_e pair {labels} concurrence",
              wootters_concurrence(partial_trace(rho, labels)), 0.5, 5e-3)
    values = {conv.value: witness(rho, conv).value for conv in BOTH}
    matching = [name for name, v in values.items()
                if abs(v - 0.8034) <= 5e-3]
    rounded = {name: round(v, 6) for name, v in values.items()}
    if BOTH[1].value not in matching:
        raise AssertionError(f"appendix_e witness {rounded} does not give "
                             f"0.8034 under the squared convention")
    return (f"witness 0.8034 reproduced under the {' and '.join(matching)} "
            f"convention (values: {rounded})")


def check_traced_witness() -> str:
    rho = partial_trace(appendix_c_state(), (1, 2, 4))
    values = [witness(rho, conv).value for conv in BOTH]
    if not all(abs(v) <= 1e-6 for v in values):
        raise AssertionError(f"traced appendix_c witness {values} != 0")
    return f"witness {max(values):.1e} under both conventions"


def check_theorem1() -> str:
    trials = 1000
    worst = math.inf
    for dims in ([2] * 3, [2] * 4, [2] * 5, [3] * 3):
        for k in range(trials):
            rep = check_polygamy(haar_random_pure(dims, 100_000 + k))
            worst = min(worst, rep.min_slack)
            if not rep.all_hold:
                raise AssertionError(
                    f"inequality violated at dims {dims}, trial {k}: "
                    f"min slack {rep.min_slack:.3e}")
    return f"{4 * trials} states, min slack {worst:.3e}"


def check_locc_monotonicity() -> str:
    trials = 200
    worst = math.inf
    for k in range(trials):
        n = 3 if k % 2 == 0 else 4
        psi = haar_random_pure([2] * n, 200_000 + k)
        party = k % n + 1
        ch = random_local_channel(party, 2, 2 + k % 3, 201_000 + k)
        branches = apply_local_channel_branches(psi, ch)
        for conv in BOTH:
            before = gme_value(psi, conv)
            after = math.fsum(p * gme_value(b, conv) for p, b in branches)
            worst = min(worst, before - after)
            if after > before + 1e-7:
                raise AssertionError(
                    f"branch average {after!r} exceeds {before!r} "
                    f"(trial {k}, {conv.value})")
    return f"{trials} channel pairs, min slack {worst:.3e}"


def check_edge_monotonicity() -> str:
    trials = 1000
    rng = np.random.default_rng(202_000)
    step = 1e-5
    worst = math.inf
    for _ in range(trials):
        # sample edges satisfying the squared polygamy constraints
        while True:
            e = rng.uniform(0.05, 1.0, size=3)
            sq = e ** 2
            if (sq[0] <= sq[1] + sq[2] and sq[1] <= sq[0] + sq[2]
                    and sq[2] <= sq[0] + sq[1]):
                break

        def g(a, b, c):
            q = 0.5 * (a + b + c)
            return q * (q - a) * (q - b) * (q - c)

        for i in range(3):
            hi = e.copy()
            lo = e.copy()
            hi[i] += step
            lo[i] -= step
            d = (g(*hi) - g(*lo)) / (2 * step)
            worst = min(worst, d)
            if d < -1e-9:
                raise AssertionError(f"dG/dedge = {d!r} at edges {e}")
    return f"{trials} samples, min derivative {worst:.3e}"


def check_lu_invariance() -> str:
    trials = 100
    worst = 0.0
    for k in range(trials):
        n = 3 + k % 3
        psi = haar_random_pure([2] * n, 40_000 + k)
        rng = np.random.default_rng(41_000 + k)
        party = k % n + 1
        u = haar_random_unitary(2, rng)
        rotated = apply_local_channel_branches(
            psi, LocalChannel(party, (u,)))[0][1]
        t0 = all_cut_concurrences(psi, n // 2)
        t1 = all_cut_concurrences(rotated, n // 2)
        dev = max(abs(a - b) for a, b in zip(t0.values, t1.values))
        worst = max(worst, dev)
        if dev > 1e-9:
            raise AssertionError(f"cut table moved by {dev:.3e} under a "
                                 f"local unitary (trial {k})")
    return f"{trials} unitaries, max deviation {worst:.1e}"


def check_f5_equivalence() -> str:
    per_kind = 50
    states = [random_biseparable(5, 300_000 + k) for k in range(per_kind)]
    states += [haar_random_pure([2] * 5, 301_000 + k)
               for k in range(per_kind)]
    for idx, psi in enumerate(states):
        z1 = f_level(psi, 1) <= 1e-8
        z2 = f_level(psi, 2) <= 1e-8
        if z1 != z2:
            raise AssertionError(
                f"level-1 zero {z1} but level-2 zero {z2} (state {idx})")
        if z1 and idx >= per_kind:
            raise AssertionError(f"Haar state {idx} vanishes at both levels")
    return f"{len(states)} states, levels agree on vanishing"


def check_witness_gauge() -> str:
    rho = partial_trace(w_state(4), (1, 2, 3))
    pur = minimal_purification(rho)
    worst = 0.0
    for conv in BOTH:
        base = f_total(pur.state, conv).value
        for k in range(20):
            rng = np.random.default_rng(400_000 + k)
            u = haar_random_unitary(pur.rank, rng)
            gauged = apply_local_channel_branches(
                pur.state, LocalChannel(pur.reference_party, (u,)))[0][1]
            dev = abs(f_total(gauged, conv).value - base)
            worst = max(worst, dev)
        # zero-padding the reference dimension
        block = pur.state.amplitudes.reshape(-1, pur.rank)
        padded = np.hstack([block, np.zeros((block.shape[0], 2))])
        padded_state = PureState(rho.dims + (pur.rank + 2,),
                                 padded.reshape(-1))
        worst = max(worst, abs(f_total(padded_state, conv).value - base))
    if worst >= 1e-8:
        raise AssertionError(f"witness moved by {worst:.3e} under a "
                             "reference-system gauge")
    return f"max deviation {worst:.1e} over 21 gauges x 2 conventions"


def check_maximally_mixed_witness() -> str:
    # I/8 is fully separable, yet its purification scores well above 0
    rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
    reports = [witness(rho, conv) for conv in BOTH]
    if any(r.gme_detected for r in reports):
        raise AssertionError(f"I/8 reported as GME: {reports[0].verdict}")
    values = ", ".join(f"{r.value:.4f}" for r in reports)
    return f"I/8 witness {values}: {reports[0].verdict}"


CHECKS = [
    ("golden-pure-values", check_golden_pure),
    ("appendix-c-reproduction", check_appendix_c),
    ("appendix-e-reproduction", check_appendix_e),
    ("traced-appendix-c-witness", check_traced_witness),
    ("polygamy-inequalities", check_theorem1),
    ("locc-branch-monotonicity", check_locc_monotonicity),
    ("edge-monotonicity", check_edge_monotonicity),
    ("local-unitary-invariance", check_lu_invariance),
    ("five-party-level-equivalence", check_f5_equivalence),
    ("witness-gauge-invariance", check_witness_gauge),
    ("maximally-mixed-witness", check_maximally_mixed_witness),
]


def run_selftest(out=None) -> bool:
    """Run every check, print one line each, return True iff all pass."""
    out = out or sys.stdout
    ok = True
    for name, fn in CHECKS:
        try:
            detail = fn()
        except (AssertionError, TrigmeError) as exc:  # a refusal fails too
            ok = False
            print(f"FAIL {name}: {exc}", file=out)
        else:
            print(f"PASS {name}: {detail}", file=out)
    return ok
