"""Derandomized hypothesis properties: party-permutation and qudit
local-unitary invariance of the measures, bit-exact document round
trips, canonical report JSON against the standard library's, and no
GME certificate for mixtures of biseparable states."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trigme import (DensityMatrix, EdgeConvention, LocalChannel, PureState,
                    all_cut_concurrences, apply_local_channel_branches,
                    f_total, finest_factorization, gme_value,
                    haar_random_pure, parse_state_document, partial_trace,
                    render_state_document, tensor_product, witness)
from trigme.reporting import canonical_json, fmt10
from trigme.selftest import random_biseparable
from trigme.states import haar_random_unitary

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


def party_dims(min_size=3, max_size=6):
    return st.lists(st.sampled_from([2, 3]), min_size=min_size,
                    max_size=max_size)


def _permuted(psi: PureState, perm: list[int]) -> PureState:
    """The state with party k of the result being party perm[k] of psi."""
    amps = psi.amplitudes.reshape(psi.dims).transpose(perm).reshape(-1)
    return PureState(tuple(psi.dims[p] for p in perm), amps)


@PROPERTY
@given(dims=party_dims(), seed=st.integers(0, 2 ** 31),
       conv=st.sampled_from(list(EdgeConvention)), data=st.data())
def test_measures_are_invariant_under_party_permutation(dims, seed, conv,
                                                        data):
    psi = haar_random_pure(dims, seed)
    moved = _permuted(psi, data.draw(st.permutations(range(len(dims)))))
    value = gme_value(psi, conv)
    assert abs(gme_value(moved, conv) - value) <= 1e-12
    assert abs(f_total(moved, conv).value - value) <= 1e-12


@PROPERTY
@given(dims=party_dims(), seed=st.integers(0, 2 ** 31),
       conv=st.sampled_from(list(EdgeConvention)), data=st.data())
def test_product_states_stay_exactly_zero_under_party_permutation(
        dims, seed, conv, data):
    k = data.draw(st.integers(1, len(dims) - 1))
    psi = tensor_product([haar_random_pure(dims[:k], seed),
                          haar_random_pure(dims[k:], seed + 1)])
    moved = _permuted(psi, data.draw(st.permutations(range(len(dims)))))
    for state in (psi, moved):
        assert gme_value(state, conv) == 0.0
        assert f_total(state, conv).value == 0.0


@PROPERTY
@given(dims=st.lists(st.sampled_from([2, 3, 4]), min_size=3, max_size=5),
       seed=st.integers(0, 2 ** 31),
       conv=st.sampled_from(list(EdgeConvention)), data=st.data())
def test_qudit_measures_are_invariant_under_a_local_unitary(dims, seed, conv,
                                                            data):
    psi = haar_random_pure(dims, seed)
    party = data.draw(st.integers(1, len(dims)))
    u = haar_random_unitary(dims[party - 1], np.random.default_rng(seed + 1))
    rotated = apply_local_channel_branches(
        psi, LocalChannel(party, (u,)))[0][1]
    # the bound of the selftest's qubit check, local-unitary-invariance
    t0, t1 = (all_cut_concurrences(s, len(dims) // 2).entries
              for s in (psi, rotated))
    assert max(abs(t0[cut] - t1[cut]) for cut in t0) <= 1e-9
    assert abs(gme_value(rotated, conv) - gme_value(psi, conv)) <= 1e-9


@PROPERTY
@given(dims=party_dims(1, 3), seed=st.integers(0, 2 ** 31),
       rank=st.integers(1, 3), pure=st.booleans())
def test_documents_round_trip_bit_for_bit(dims, seed, rank, pure):
    if pure:
        state = haar_random_pure(dims, seed)
    else:
        state = partial_trace(haar_random_pure(dims + [rank], seed),
                              range(1, len(dims) + 1))
    text = render_state_document(state, {"seed": seed})
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=1) + "\n"
    back = parse_state_document(json.loads(text))
    assert back.dims == state.dims
    if pure:
        assert isinstance(back, PureState)
        assert np.array_equal(back.amplitudes, state.amplitudes)
    else:
        assert isinstance(back, DensityMatrix)
        assert np.array_equal(back.entries, state.entries)


FLOATS = st.one_of(st.floats(),
                   st.sampled_from([-0.0, 5e-324, 1e308, math.nan,
                                    math.inf, -math.inf]))
TEXT = st.one_of(st.text(),
                 st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2211\U0001f600",
                                  '"\\/\n\t', "\ud800"]))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2 ** 200, 2 ** 200),
              FLOATS, TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


def _rounded(value):
    """A copy of ``value`` with every float value at 10 digits."""
    if isinstance(value, float):
        return fmt10(value)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


@PROPERTY
@given(value=JSON_VALUES)
def test_canonical_json_is_json_dumps_byte_for_byte(value):
    assert canonical_json(value) == _dumps(_rounded(value))


def test_canonical_json_raises_as_json_dumps_does():
    assert canonical_json([np.float64(0.1)]) == _dumps([0.1])
    for value in ([np.int64(1)], {"a": np.int64(1)}, np.int64(1),
                  {"a": 0, (1, 2): 0}, {"a": 0, 1: 0}):
        with pytest.raises(TypeError) as want:
            _dumps(_rounded(value))
        with pytest.raises(TypeError) as got:
            canonical_json(value)
        assert str(got.value) == str(want.value)


@PROPERTY
@given(nparties=st.sampled_from([3, 4]),
       seeds=st.lists(st.integers(0, 2 ** 20), min_size=2, max_size=4,
                      unique=True),
       data=st.data())
def test_mixtures_of_biseparable_states_are_never_certified(nparties, seeds,
                                                            data):
    members = [random_biseparable(nparties, seed) for seed in seeds]
    cuts = {finest_factorization(psi).factors for psi in members}
    assume(len(cuts) > 1)  # a mixture on one cut is biseparable there
    weights = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(seeds),
                                 max_size=len(seeds)))
    total = math.fsum(weights)
    rho = sum(w / total * np.outer(psi.amplitudes, psi.amplitudes.conj())
              for w, psi in zip(weights, members))
    rep = witness(DensityMatrix((2,) * nparties, rho),
                  data.draw(st.sampled_from(list(EdgeConvention))))
    assert not rep.gme_detected
    assert rep.verdict != "GME detected"
