"""Derandomized campaign over structured documents run through the CLI:
products of Haar blocks with their parties permuted, the same products
slightly perturbed, and GHZ and W states.  Every document is computed
right or refused: exit 0 or 1, never 2, with no traceback; a product is
never split finer than its blocks, and at the default threshold it
splits into exactly them."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from trigme import (PureState, ghz_state, haar_random_pure, tensor_product,
                    w_state, write_state_file)
from trigme.cli import run_command
from trigme.selftest import permute_parties

# capsys is read after every command, so it is safe to share between
# examples
CAMPAIGN = settings(
    derandomize=True, max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
THRESHOLDS = st.sampled_from([None, "1e-3", "5"])


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    return tmp_path_factory.mktemp("campaign") / "state.json"


def _run(capsys, argv):
    code = run_command(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1), err
    assert "Traceback" not in err
    return code, out


def _analyze_and_classify(capsys, psi, path, tol):
    """(code, F) of analyze --json and (code, factors) of classify."""
    write_state_file(psi, path)
    extra = [] if tol is None else ["--tol", tol]
    code, out = _run(capsys, ["analyze", str(path), "--json"] + extra)
    value = json.loads(out)["f_total"] if code == 0 else None
    ccode, cout = _run(capsys, ["classify", str(path)] + extra)
    factors = None
    if ccode == 0:
        line = next(x for x in cout.splitlines() if x.startswith("factors: "))
        factors = [tuple(map(int, block.strip("{}").split(",")))
                   for block in line[len("factors: "):].split("},{")]
    return (code, value), (ccode, factors)


@st.composite
def products(draw):
    """A product of 2-4 Haar blocks of party dims 2-4, D <= 1024, with
    its parties permuted; returns the state and its blocks."""
    shapes = draw(st.lists(st.lists(st.sampled_from([2, 3, 4]), min_size=1,
                                    max_size=3), min_size=2, max_size=4))
    dims = [d for shape in shapes for d in shape]
    assume(len(dims) >= 3 and math.prod(dims) <= 1024)
    seed = draw(st.integers(0, 2 ** 20))
    state = tensor_product([haar_random_pure(shape, seed + i)
                            for i, shape in enumerate(shapes)])
    # new party k is old party order[k-1]
    order = [p + 1 for p in draw(st.permutations(range(len(dims))))]
    where = {old: new for new, old in enumerate(order, 1)}
    blocks, first = [], 1
    for shape in shapes:
        blocks.append(tuple(sorted(where[p]
                                   for p in range(first, first + len(shape)))))
        first += len(shape)
    return permute_parties(state, order), sorted(blocks)


@CAMPAIGN
@given(product=products(), tol=THRESHOLDS)
def test_products_are_split_into_their_blocks_or_refused(capsys, document,
                                                         product, tol):
    psi, blocks = product
    (code, value), (ccode, factors) = _analyze_and_classify(capsys, psi,
                                                            document, tol)
    if tol is None:
        assert code == ccode == 0
        assert value == 0.0
        assert factors == blocks
    elif ccode == 0:  # a loose threshold may merge nothing it must not
        assert all(any(set(b) <= set(f) for f in factors) for b in blocks)


@CAMPAIGN
@given(product=products(), tol=THRESHOLDS,
       log_eps=st.floats(-9.0, -4.0), seed=st.integers(0, 2 ** 20))
def test_perturbed_products_are_computed_or_refused(capsys, document,
                                                    product, tol, log_eps,
                                                    seed):
    psi, _ = product
    kick = haar_random_pure(psi.dims, seed).amplitudes
    amps = psi.amplitudes + 10.0 ** log_eps * kick
    _analyze_and_classify(capsys, PureState(psi.dims,
                                            amps / np.linalg.norm(amps)),
                          document, tol)


@CAMPAIGN
@given(kind=st.sampled_from(["ghz", "ghz3", "w", "haar"]),
       n=st.integers(3, 7), tol=THRESHOLDS, seed=st.integers(0, 2 ** 20))
def test_ghz_w_and_haar_states_are_gme_or_refused(capsys, document, kind, n,
                                                  tol, seed):
    psi = {"ghz": lambda: ghz_state(n),
           "ghz3": lambda: ghz_state(min(n, 5), 3),
           "w": lambda: w_state(n),
           "haar": lambda: haar_random_pure([2] * n, seed)}[kind]()
    (code, value), (ccode, factors) = _analyze_and_classify(capsys, psi,
                                                            document, tol)
    if tol != "5":
        assert code == ccode == 0
    if code == 0:
        assert value > 0.0
    if ccode == 0:
        assert factors == [tuple(range(1, psi.nparties + 1))]
