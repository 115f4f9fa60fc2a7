"""Encoding, prefix erasure, decoding, and the simulation harness."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import ORACLE_FIELDS, naive_matvec, outcome, solve_gaussian

from udm.cli import parse_family, render_family
from udm.codec import (
    ChannelOutput,
    SimulationStats,
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
from udm.families import (
    UdmFamily,
    construct,
    enumerate_exact_tuples,
    left_transform,
    permute,
    right_multiply,
    verify,
)
from udm.gf import Field
from udm.linalg import Matrix, identity, matvec, rank, stack_prefixes

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


# Every encoding class: the byte rows in characteristic 2, for primes up to
# 127 and for GF(9), GF(25) and GF(49); the per-element rows for GF(27),
# GF(121), GF(131) and GF(2^16).
ENCODE_FIELDS = [
    Field(p, s)
    for p, s in [
        (2, 1), (7, 1), (127, 1), (2, 4), (2, 8), (3, 2), (5, 2), (7, 2),
        (3, 3), (11, 2), (131, 1), (2, 16),
    ]
]


def scalar_encode(family, u):
    """Each block a sum of products through Field.add and Field.mul."""
    return [naive_matvec(family.field, m, u) for m in family.matrices]


@settings(max_examples=60)
@given(data=st.data())
def test_property_encode_matches_a_scalar_oracle(data):
    # construct's families and right_multiply's, either of them parsed back
    # from its file form, each encoded twice: the first encode packs the
    # columns and the second reuses them.
    field = data.draw(st.sampled_from(ENCODE_FIELDS))
    n = data.draw(st.integers(1, 7))
    L = data.draw(st.integers(1, min(field.q + 1, 6) if n > 1 else 6))
    fam = construct(field, L, n)
    elements = st.integers(0, field.q - 1)
    if data.draw(st.booleans()):
        b = Matrix(field, n, n, data.draw(st.lists(elements, min_size=n * n, max_size=n * n)))
        if rank(b) == n:
            fam = right_multiply(fam, b)
    if data.draw(st.booleans()):
        fam = parse_family(render_family(fam))
    for _ in range(2):
        u = tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
        x = encode(fam, u)
        assert x == scalar_encode(fam, u)
        assert x == [matvec(m, u) for m in fam.matrices]


@pytest.mark.parametrize("field", [Field(2, 8), Field(5, 2), Field(3, 3)], ids=repr)
def test_the_packed_columns_are_invisible(field):
    # Equality, hash, repr and pickle are the same before and after the
    # first encode; copies from pickle and _replace encode correctly on
    # their own; a bad u is refused before anything is packed.
    rng = random.Random(field.q)
    n = 4
    b = Matrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
    while rank(b) < n:
        b = Matrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
    fam = right_multiply(construct(field, 5, n), b)
    twin = UdmFamily(field, 5, n, fam.matrices, fam.alpha)
    seen = (hash(fam), repr(fam), pickle.dumps(fam))
    with pytest.raises(DimensionMismatch):
        encode(fam, (1,) * (n + 1))
    with pytest.raises(DimensionMismatch):
        encode(fam, (1,) * (n - 1) + (field.q,))
    assert fam._columns is None
    u = tuple(rng.randrange(field.q) for _ in range(n))
    x = encode(fam, u)
    assert fam._columns is not None
    assert (hash(fam), repr(fam), pickle.dumps(fam)) == seen
    assert fam == twin and twin == fam
    again = pickle.loads(pickle.dumps(fam))
    assert again._columns is None and again == fam
    assert encode(again, u) == x == scalar_encode(fam, u)
    same = fam._replace()
    assert same._columns is None
    assert encode(same, u) == x
    other = fam._replace(matrices=fam.matrices[::-1])
    assert encode(other, u) == x[::-1] == scalar_encode(other, u)


@pytest.mark.parametrize("field", [Field(7), Field(2, 8), Field(5, 2), Field(3, 3)], ids=repr)
def test_verify_leaves_the_packing_to_encode(field):
    # A passing family, one failing inside the walk (the last entry of the
    # identity zeroed) and one whose last matrix is singular (its last row
    # repeats its first). Verify packs its own stack and leaves _columns
    # None in all three cases; encode packs them; the reports are the same
    # whichever of the two ran first; copies by _replace and pickle start
    # unpacked.
    n = 4
    good = construct(field, 4, n)
    first = list(good.matrices[0].entries)
    first[-1] = 0
    last = list(good.matrices[-1].entries)
    last[-n:] = last[:n]
    in_walk = good._replace(matrices=(Matrix(field, n, n, first), *good.matrices[1:]))
    singular = good._replace(matrices=(*good.matrices[:-1], Matrix(field, n, n, last)))
    u = tuple(range(1, n + 1))
    for fam, passed in ((good, True), (in_walk, False), (singular, False)):
        verified = fam._replace()
        reports = (verify(verified), verify(verified, superset=True))
        assert reports[0].passed == reports[1].passed == passed
        assert verified._columns is None
        x = encode(verified, u)
        assert x == scalar_encode(fam, u)
        assert verified._columns is not None
        encoded = fam._replace()
        assert encode(encoded, u) == x
        cols = encoded._columns
        assert cols is not None
        assert (verify(encoded), verify(encoded, superset=True)) == reports
        assert encoded._columns is cols
        for copy in (verified._replace(), pickle.loads(pickle.dumps(verified))):
            assert copy._columns is None and copy == fam


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


def decode_reference(family, obs):
    a = stack_prefixes(family.matrices, obs.ks)
    return solve_gaussian(a, [v for pfx in obs.prefixes for v in pfx])


def oracle_families(rng):
    """construct and right_multiply families at desk scale, and a copy of
    each with one row zeroed, which some observations cannot decode."""
    for field in ORACLE_FIELDS:
        for L in range(2, min(field.q + 1, 5) + 1):
            for n in range(1, 5):
                fam = construct(field, L, n)
                while True:
                    b = Matrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
                    if rank(b) == n:
                        break
                for f in (fam, right_multiply(fam, b)):
                    yield f
                    l, i = rng.randrange(L), rng.randrange(n)
                    entries = list(f.matrices[l].entries)
                    entries[i * n : (i + 1) * n] = [0] * n
                    mats = list(f.matrices)
                    mats[l] = Matrix(field, n, n, entries)
                    yield UdmFamily(field, L, n, tuple(mats))


def test_decode_matches_gaussian_reference():
    # Every exact-sum observation, and seeded surplus ones with and without
    # one corrupted symbol: the same vector, or the same exception and rank.
    rng = random.Random(4242)
    counts = {"ok": 0, RankDeficient: 0, Inconsistent: 0}
    for fam in oracle_families(rng):
        L, n, q = fam.L, fam.n, fam.field.q
        patterns = [tuple(ks) for ks in enumerate_exact_tuples(L, n)]
        for _ in range(8):
            ks = [rng.randint(0, n) for _ in range(L)]
            if sum(ks) > n:
                patterns.append(tuple(ks))
        for ks in patterns:
            u = tuple(rng.randrange(q) for _ in range(n))
            obs = erase(encode(fam, u), ks)
            if sum(ks) > n and rng.random() < 0.5:
                prefixes = [list(pfx) for pfx in obs.prefixes]
                l = rng.choice([c for c, k in enumerate(ks) if k])
                prefixes[l][-1] = (prefixes[l][-1] + rng.randrange(1, q)) % q
                obs = ChannelOutput(ks, prefixes)
            want = outcome(decode_reference, fam, obs)
            assert outcome(decode, fam, obs) == want, (fam.field, L, n, ks)
            counts[want[0] if isinstance(want[0], type) else "ok"] += 1
    assert min(counts.values()) > 500, counts


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


@settings(max_examples=30)
@given(data=st.data())
def test_property_simulate_counts_add_up_to_its_trials(data):
    # Over seeded families, broken ones included, and every pattern source:
    # each trial is one success or one failure of one kind, and the weight
    # histogram counts every trial once.
    p, s = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]))
    field = Field(p, s)
    n = data.draw(st.integers(1, 4))
    fam = construct(field, data.draw(st.integers(1, min(field.q + 1, 5))), n)
    if data.draw(st.booleans()):
        l, i = data.draw(st.integers(0, fam.L - 1)), data.draw(st.integers(0, n - 1))
        entries = [list(m.entries) for m in fam.matrices]
        entries[l][i * n : (i + 1) * n] = [0] * n
        fam = UdmFamily(field, fam.L, n, tuple(Matrix(field, n, n, e) for e in entries))
    source = data.draw(st.sampled_from(["uniform", "exact", "geometric"]))
    trials = data.draw(st.integers(0, 40))
    stats = simulate(fam, trials, source, seed=data.draw(st.integers(0, 2**16)))
    assert stats.trials == trials
    assert stats.successes + stats.failures_insufficient + stats.failures_rank_deficient == trials
    assert sum(stats.weight_histogram.values()) == trials


def simulate_full_encode(family, trials, source, seed):
    """simulate's trial loop with each block encoded by its own
    linalg.matvec, independent of encode's packed columns, then erased. The
    reference for simulate."""
    n, L, q = family.n, family.L, family.field.q
    counts = {"ok": 0, InsufficientSymbols: 0, RankDeficient: 0}
    total = 0
    histogram = {}
    for t in range(trials):
        rng = trial_rng(seed, t)
        ks = tuple(source(rng, L, n))
        u = tuple(rng.randrange(q) for _ in range(n))
        obs = erase([matvec(m, u) for m in family.matrices], ks)
        total += sum(ks)
        histogram[sum(ks)] = histogram.get(sum(ks), 0) + 1
        try:
            assert decode(family, obs) == u
            counts["ok"] += 1
        except (InsufficientSymbols, RankDeficient) as exc:
            counts[type(exc)] += 1
    return SimulationStats(
        trials,
        counts["ok"],
        counts[InsufficientSymbols],
        counts[RankDeficient],
        total / trials,
        histogram,
    )


@pytest.mark.parametrize(
    "name, source",
    [("uniform", uniform_pattern), ("exact", exact_pattern), ("geometric", geometric_pattern)],
)
def test_simulate_matches_full_encode_then_erase(name, source):
    fields = (Field(2, 2), Field(5), Field(3, 2))
    fams = [construct(f, 5, 4) for f in fields]
    fams.append(UdmFamily(F2, 2, 2, (identity(F2, 2), identity(F2, 2))))
    for fam in fams:
        for seed in (0, 1, 7, 123):
            want = simulate_full_encode(fam, 60, source, seed)
            assert simulate(fam, 60, name, seed=seed) == want


@pytest.mark.parametrize(
    "seed, L, n, draws",
    [
        (0, 1, 5, [(5,), (5,), (5,)]),
        (0, 4, 3, [(0, 2, 1, 0), (2, 0, 0, 1), (2, 0, 1, 0)]),
        (1, 5, 4, [(1, 0, 2, 1, 0), (1, 2, 0, 0, 1), (1, 2, 1, 0, 0)]),
        (2, 2, 9, [(5, 4), (0, 9), (5, 4)]),
        (123, 3, 0, [(0, 0, 0)] * 3),
        (
            7,
            20,
            64,
            [
                (1, 0, 9, 0, 2, 6, 4, 1, 2, 4, 1, 4, 4, 9, 0, 4, 0, 2, 8, 3),
                (6, 6, 4, 0, 2, 1, 6, 7, 6, 2, 5, 0, 0, 4, 1, 2, 4, 0, 6, 2),
                (1, 3, 4, 4, 13, 1, 3, 4, 2, 3, 0, 2, 7, 1, 0, 5, 0, 3, 8, 0),
            ],
        ),
    ],
)
def test_exact_pattern_draws_are_pinned(seed, L, n, draws):
    # Fixed seeds keep their simulate statistics only while these hold.
    rng = trial_rng(seed, 0)
    assert [exact_pattern(rng, L, n) for _ in draws] == draws


def test_pattern_sources_stay_in_range():
    rng = trial_rng(5, 0)
    for src in (uniform_pattern, exact_pattern, geometric_pattern):
        for _ in range(50):
            ks = src(rng, 4, 3)
            assert len(ks) == 4
            assert all(0 <= k <= 3 for k in ks)
    for _ in range(50):
        assert sum(exact_pattern(rng, 4, 3)) == 3


@settings(max_examples=40)
@given(data=st.data())
def test_property_decode_of_encode_after_transforms(data):
    # left_transform, right_multiply and permute keep a family universally
    # decodable, so every observation of at least n symbols decodes to u.
    # A transformed family takes the generic solve, on the byte-row kernels
    # here, and its matrices come from the matmul kernel.
    p, s = data.draw(st.sampled_from([(7, 1), (5, 2), (2, 8)]))
    field = Field(p, s)
    n = data.draw(st.integers(1, 6))
    L = data.draw(st.integers(1, min(field.q + 1, 8) if n > 1 else 8))
    fam = construct(field, L, n)
    elements = st.integers(0, field.q - 1)
    for op in data.draw(st.lists(st.sampled_from(["left", "right", "permute"]), max_size=3)):
        if op == "left":
            entries = data.draw(st.lists(elements, min_size=n * n, max_size=n * n))
            for i in range(n):
                entries[i * n + i + 1 : (i + 1) * n] = [0] * (n - 1 - i)
                entries[i * n + i] = data.draw(st.integers(1, field.q - 1))
            l = data.draw(st.integers(0, L - 1))
            fam = left_transform(fam, l, Matrix(field, n, n, entries))
        elif op == "right":
            b = Matrix(field, n, n, data.draw(st.lists(elements, min_size=n * n, max_size=n * n)))
            if rank(b) == n:
                fam = right_multiply(fam, b)
        else:
            fam = permute(fam, data.draw(st.permutations(range(L))))
    u = tuple(data.draw(st.lists(elements, min_size=n, max_size=n)))
    ks = data.draw(st.lists(st.integers(0, n), min_size=L, max_size=L))
    for l in range(L):
        ks[l] += min(n - ks[l], max(0, n - sum(ks)))
    assert decode(fam, erase(encode(fam, u), ks)) == u
