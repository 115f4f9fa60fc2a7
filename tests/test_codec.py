"""Encoding, prefix erasure, decoding, and the simulation harness."""

import itertools

import pytest

from udm.codec import (
    ChannelOutput,
    decode,
    encode,
    erase,
    exact_pattern,
    geometric_pattern,
    simulate,
    trial_rng,
    uniform_pattern,
)
from udm.errors import (
    DecodeMismatch,
    DimensionMismatch,
    Inconsistent,
    InsufficientSymbols,
    RankDeficient,
)
from udm.families import UdmFamily, construct, enumerate_exact_tuples
from udm.gf import Field
from udm.linalg import identity

F2 = Field(2)
F3 = Field(3)


def known_family():
    return construct(F3, 4, 3)


# -- encode -----------------------------------------------------------------------


def test_encode_known_columns():
    x = encode(known_family(), (1, 0, 0))
    assert x == [(1, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 0)]


def test_encode_zero_vector():
    assert encode(known_family(), (0, 0, 0)) == [(0, 0, 0)] * 4


def test_second_block_is_the_reversed_vector():
    fam = known_family()
    for u in itertools.product(range(3), repeat=3):
        assert encode(fam, u)[1] == tuple(reversed(u))


def test_encode_validates_input():
    fam = known_family()
    with pytest.raises(DimensionMismatch):
        encode(fam, (1, 0))
    with pytest.raises(DimensionMismatch):
        encode(fam, (1, 0, 3))


# -- erase -------------------------------------------------------------------------


def test_erase_keeps_exact_prefixes():
    x = [(1, 2, 0), (0, 1, 2), (2, 2, 2), (0, 0, 1)]
    obs = erase(x, (2, 0, 3, 1))
    assert obs.ks == (2, 0, 3, 1)
    assert obs.prefixes == ((1, 2), (), (2, 2, 2), (0,))


def test_erase_full_and_empty():
    x = encode(known_family(), (1, 2, 0))
    assert erase(x, (3, 3, 3, 3)).prefixes == tuple(tuple(b) for b in x)
    assert erase(x, (0, 0, 0, 0)).prefixes == ((), (), (), ())


def test_erase_validates_lengths():
    x = encode(known_family(), (1, 2, 0))
    with pytest.raises(DimensionMismatch):
        erase(x, (4, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        erase(x, (1, 1))


def test_channel_output_validation():
    with pytest.raises(DimensionMismatch):
        ChannelOutput((2,), ((1,),))


# -- decode -------------------------------------------------------------------------


def test_decode_round_trip_exhaustive():
    fam = known_family()
    patterns = list(enumerate_exact_tuples(4, 3))
    assert len(patterns) == 20
    for u in itertools.product(range(3), repeat=3):
        x = encode(fam, u)
        for ks in patterns:
            assert decode(fam, erase(x, ks)) == u


def test_decode_insufficient_symbols():
    fam = known_family()
    x = encode(fam, (1, 2, 0))
    with pytest.raises(InsufficientSymbols):
        decode(fam, erase(x, (1, 1, 0, 0)))
    with pytest.raises(InsufficientSymbols):
        decode(fam, erase(x, (0, 0, 0, 0)))


def test_decode_reads_off_full_identity_observation():
    fam = known_family()
    u = (2, 1, 0)
    obs = erase(encode(fam, u), (3, 0, 0, 0))
    assert obs.prefixes[0] == u
    assert decode(fam, obs) == u


def test_decode_flags_corrupted_redundant_symbols():
    fam = known_family()
    u = (1, 2, 0)
    obs = erase(encode(fam, u), (3, 1, 0, 0))
    corrupted = ChannelOutput(
        obs.ks,
        (obs.prefixes[0], (F3.add(obs.prefixes[1][0], 1),), (), ()),
    )
    with pytest.raises(Inconsistent):
        decode(fam, corrupted)


def test_decode_rank_deficient_for_degenerate_family():
    fam = UdmFamily(F2, 2, 2, (identity(F2, 2), identity(F2, 2)))
    obs = ChannelOutput((1, 1), ((1,), (1,)))
    with pytest.raises(RankDeficient):
        decode(fam, obs)


def test_decode_validates_observation():
    fam = known_family()
    with pytest.raises(DimensionMismatch):
        decode(fam, ChannelOutput((3, 0, 0), ((1, 0, 0), (), ())))
    with pytest.raises(DimensionMismatch):
        decode(fam, ChannelOutput((4, 0, 0, 0), ((1, 0, 0, 1), (), (), ())))
    with pytest.raises(DimensionMismatch):
        decode(fam, ChannelOutput((3, 0, 0, 0), ((1, 0, 7), (), (), ())))


# -- simulate ------------------------------------------------------------------------


def test_simulate_exact_patterns_always_succeed():
    stats = simulate(known_family(), 300, "exact", seed=1)
    assert stats.trials == 300
    assert stats.successes == 300
    assert stats.failures_insufficient == 0
    assert stats.failures_rank_deficient == 0
    assert stats.mean_symbols == 3.0
    assert stats.weight_histogram == {3: 300}


def test_simulate_raises_when_decode_returns_a_wrong_vector(monkeypatch):
    # An explicit raise, not an assert, so it also holds under python -O.
    import udm.codec

    def wrong(family, obs):
        return (1,) * family.n

    monkeypatch.setattr(udm.codec, "decode", wrong)
    with pytest.raises(DecodeMismatch, match="trial 0"):
        simulate(known_family(), 5, lambda rng, L, n: (n,) + (0,) * (L - 1), seed=0)


def test_simulate_starved_patterns_always_fail():
    stats = simulate(known_family(), 100, lambda rng, L, n: (0,) * L, seed=2)
    assert stats.successes == 0
    assert stats.failures_insufficient == 100


def test_simulate_uniform_success_rate_matches_weight_condition():
    fam = known_family()
    trials = 10_000
    stats = simulate(fam, trials, "uniform", seed=3)
    expected_successes = 0
    for t in range(trials):
        rng = trial_rng(3, t)
        ks = uniform_pattern(rng, fam.L, fam.n)
        if sum(ks) >= fam.n:
            expected_successes += 1
    assert stats.successes == expected_successes
    assert stats.successes + stats.failures_insufficient == trials
    assert sum(stats.weight_histogram.values()) == trials


def test_simulate_is_reproducible():
    fam = known_family()
    a = simulate(fam, 500, "geometric", seed=9)
    b = simulate(fam, 500, "geometric", seed=9)
    assert a == b
    c = simulate(fam, 500, "geometric", seed=10)
    assert a != c


def test_simulate_counts_rank_failures_for_degenerate_families():
    fam = UdmFamily(F2, 2, 2, (identity(F2, 2), identity(F2, 2)))
    stats = simulate(fam, 200, "uniform", seed=4)
    assert stats.successes + stats.failures_insufficient + stats.failures_rank_deficient == 200
    assert stats.failures_rank_deficient > 0


def test_pattern_sources_stay_in_range():
    rng = trial_rng(5, 0)
    for src in (uniform_pattern, exact_pattern, geometric_pattern):
        for _ in range(50):
            ks = src(rng, 4, 3)
            assert len(ks) == 4
            assert all(0 <= k <= 3 for k in ks)
    for _ in range(50):
        assert sum(exact_pattern(rng, 4, 3)) == 3
