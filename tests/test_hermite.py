"""The Hermite-interpolation decode path of construct's families: the
polynomial kernels against the Hasse-derivative route, decode against
solve and the Gaussian reference, and the provenance that selects it."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import outcome, solve_gaussian

import udm.codec
import udm.families
from udm import hasse
from udm.codec import ChannelOutput, decode, encode, erase, hermite, simulate
from udm.errors import DivisionByZero, Inconsistent, InsufficientSymbols, RankDeficient
from udm.families import (
    UdmFamily,
    construct,
    enumerate_exact_tuples,
    is_generator,
    prefix,
    right_multiply,
    tensor_power,
    with_checked_alpha,
)
from udm.gf import Field, field_of_order
from udm.linalg import Matrix, identity, rank, solve, stack_prefixes

# Every arithmetic path: prime fields, characteristic 2, odd extensions.
KERNEL_FIELDS = [
    Field(p, s) for p, s in [(2, 1), (3, 1), (7, 1), (2, 3), (2, 8), (3, 2), (5, 2), (3, 3)]
]


def hasse_taylor(field, a, beta, k):
    """The first k Hasse derivatives of a at beta, through the hasse module."""
    f = hasse.Polynomial(field, a)
    return [hasse.evaluate(hasse.hasse_derivative(f, i), beta) for i in range(k)]


def naive_newton(field, c, nodes, lead):
    """lead * N_d + sum(c[i] * N_i), N_i the product of (X - nodes[j]) over
    j < i, through Field.add and Field.mul on coefficient lists."""
    out = [0] * (len(nodes) + 1)
    basis = [1]
    for ci, b in zip(list(c) + [lead], list(nodes) + [None]):
        for t, v in enumerate(basis):
            out[t] = field.add(out[t], field.mul(ci, v))
        if b is not None:
            # basis * (X - b)
            shifted = [0] + basis
            for t, v in enumerate(basis):
                shifted[t] = field.add(shifted[t], field.mul(field.neg(b), v))
            basis = shifted
    return out


def stacked_solve(family, obs):
    """decode's result through the stacked system and linalg.solve."""
    a = stack_prefixes(family.matrices, obs.ks)
    return solve(a, [v for pfx in obs.prefixes for v in pfx])


def gaussian_solve(family, obs):
    a = stack_prefixes(family.matrices, obs.ks)
    return solve_gaussian(a, [v for pfx in obs.prefixes for v in pfx])


def corrupt(rng, obs, q):
    """obs with the last symbol of one nonempty channel changed."""
    prefixes = [list(pfx) for pfx in obs.prefixes]
    l = rng.choice([c for c, k in enumerate(obs.ks) if k])
    prefixes[l][-1] = (prefixes[l][-1] + rng.randrange(1, q)) % q
    return ChannelOutput(obs.ks, prefixes)


def surplus_pattern(rng, L, n):
    """A tuple in [0, n]^L with sum above n."""
    while True:
        ks = [rng.randint(0, n) for _ in range(L)]
        if sum(ks) > n:
            return ks


# -- kernels ----------------------------------------------------------------------


# Both kernel classes: byte rows up to GF(127) and GF(49), per-element rows
# for GF(27), GF(131), GF(2^9) and GF(2^16).
ROW_KERNEL_FIELDS = KERNEL_FIELDS + [
    Field(p, s) for p, s in [(127, 1), (131, 1), (7, 2), (2, 9), (2, 16)]
]


@pytest.mark.parametrize("field", ROW_KERNEL_FIELDS, ids=repr)
def test_from_newton_matches_naive_expansion(field):
    rng = random.Random(field.q + 3)
    q = field.q
    for _ in range(60):
        d = rng.randint(0, 9)
        nodes = [rng.choice([0, 0, 1, q - 1, rng.randrange(q)]) for _ in range(d)]
        c = [rng.choice([0, 1, q - 1, rng.randrange(q)]) for _ in range(d)]
        lead = rng.choice([0, 1, rng.randrange(q)])
        before = (list(c), list(nodes))
        want = naive_newton(field, c, nodes, lead)
        assert field.from_newton(c, nodes, lead) == want, (c, nodes, lead)
        assert (c, nodes) == before


def naive_divided_differences(field, points, d):
    """to_newton's (c, nodes) with one Field.mul, Field.sub and Field.inv
    per entry, level by level."""
    sub, mul = field.sub, field.mul
    betas = [beta for beta, _ in points]
    ws = [w for _, w in points]
    group = [g for g, w in enumerate(ws) for _ in w]
    c = [ws[g][0] for g in group]
    for k in range(1, d):
        c[k:] = [
            ws[g][k] if g == h else mul(sub(ci, cj), field.inv(sub(betas[g], betas[h])))
            for g, h, ci, cj in zip(group[k:], group, c[k:], c[k - 1 :])
        ]
    return c, [betas[g] for g in group]


@pytest.mark.parametrize("field", ROW_KERNEL_FIELDS + [Field(3, 10)], ids=repr)
def test_to_newton_matches_per_entry_levels(field):
    rng = random.Random(field.q + 5)
    q = field.q
    nz = rng.randrange(1, q)
    shapes = [
        [],  # d = 0
        [0],  # d = 1
        [nz],
        [0, nz, 1],  # beta = 0 beside others, one point each
        [nz] * 6,  # one point holds all d symbols: no pair table
        [0] * 5,
        [1, 0],  # betas 1 apart: the log of their difference is 0
        [nz, field.add(nz, 1), 0],
    ]
    for _ in range(30):
        # Repeated nodes: up to four symbols per point.
        betas = rng.sample(range(q), rng.randint(1, min(q, 6)))
        shapes.append([b for b in betas for _ in range(rng.randint(1, 4))])
    for shape in shapes:
        points = []
        for b in shape:
            if points and points[-1][0] == b:
                points[-1][1].append(rng.randrange(q))
            else:
                points.append((b, [rng.randrange(q)]))
        d = len(shape)
        want = naive_divided_differences(field, points, d)
        assert field.to_newton(points) == want, points
    # Two points with one beta: the per-entry levels divide by zero.
    with pytest.raises(DivisionByZero):
        field.to_newton([(nz, [1]), (0, [2]), (nz, [3])])


@pytest.mark.parametrize("field", ROW_KERNEL_FIELDS, ids=repr)
def test_hermite_recovers_random_polynomials(field):
    # Distinct points, each with up to three derivatives, and the top
    # coefficients, against the Hasse derivatives of a known polynomial.
    rng = random.Random(field.q + 2)
    q = field.q
    for _ in range(40):
        betas = rng.sample(range(q), rng.randint(0, min(q, 5)))
        ks = [rng.randint(1, 3) for _ in betas]
        n = sum(ks) + rng.randint(0 if ks else 1, 3)
        u = [rng.randrange(q) for _ in range(n)]
        top = u[::-1][: n - sum(ks)]
        points = [(b, hasse_taylor(field, u, b, k)) for b, k in zip(betas, ks)]
        assert hermite(field, top, points) == u


def hermite_case(field, u, top_count, betas, ks):
    """hermite's inputs for the known u: its top top_count coefficients and
    ks[i] Hasse derivatives at betas[i]."""
    top = u[::-1][:top_count]
    return top, [(b, hasse_taylor(field, u, b, k)) for b, k in zip(betas, ks)]


EDGE_FIELDS = [Field(p, s) for p, s in [(2, 8), (7, 1), (3, 2), (131, 1), (2, 9)]]


@pytest.mark.parametrize("field", EDGE_FIELDS, ids=repr)
def test_hermite_edge_shapes(field):
    rng = random.Random(field.q + 4)
    q = field.q
    nz = rng.randrange(1, q)
    shapes = [
        # One point holds all n symbols, at a nonzero beta and at 0.
        (8, 0, [nz], [8]),
        (8, 0, [0], [8]),
        # beta = 0 with multiplicity above 1, beside other points and top.
        (7, 1, [0, nz], [3, 3]),
        (6, 0, [nz, 0], [2, 4]),
        # More top coefficients than d + 1, so the solve for them must stop
        # at M's constant term: d = 0, 1 and 2 under five or six of them.
        (6, 5, [0], [1]),
        (6, 5, [nz], [1]),
        (8, 6, [nz, 0], [1, 1]),
        (5, 5, [], []),
    ]
    for n, top_count, betas, ks in shapes:
        for _ in range(10):
            u = [rng.randrange(q) for _ in range(n)]
            top, points = hermite_case(field, u, top_count, betas, ks)
            assert hermite(field, top, points) == u, (n, top_count, betas, ks)


# -- decode against solve and the Gaussian reference --------------------------------------


# (q, L, n): n > p, L = q + 1, and n = 1 with L > q + 1, where construct's
# points repeat.
DESK = [
    (2, 3, 4),
    (3, 4, 3),
    (3, 4, 5),
    (4, 5, 4),
    (5, 6, 3),
    (5, 4, 7),
    (7, 5, 4),
    (8, 9, 3),
    (9, 10, 3),
    (25, 4, 4),
    (27, 4, 3),
    (131, 4, 3),
    (512, 4, 3),
    (2, 7, 1),
    (3, 9, 1),
]


@pytest.mark.parametrize("q, L, n", DESK)
def test_hermite_decode_matches_solve_and_gaussian(q, L, n):
    # Every exact-sum tuple, then seeded surplus observations, half of them
    # with one symbol corrupted: the same vector or the same error.
    field = field_of_order(q)
    fam = construct(field, L, n)
    rng = random.Random(q * 1000 + L * 10 + n)
    patterns = [tuple(ks) for ks in enumerate_exact_tuples(L, n)]
    patterns += [tuple(surplus_pattern(rng, L, n)) for _ in range(60)]
    corrupted = 0
    for ks in patterns:
        u = tuple(rng.randrange(q) for _ in range(n))
        obs = erase(encode(fam, u), ks)
        got = outcome(decode, fam, obs)
        assert got == u
        assert got == outcome(stacked_solve, fam, obs) == outcome(gaussian_solve, fam, obs)
        if sum(ks) > n and rng.random() < 0.5:
            # Without the corrupted symbol at least n remain, which
            # determine u, so the corrupted one contradicts them.
            obs = corrupt(rng, obs, q)
            got = outcome(decode, fam, obs)
            assert got[0] is Inconsistent
            assert got == outcome(stacked_solve, fam, obs) == outcome(gaussian_solve, fam, obs)
            corrupted += 1
    assert corrupted > 10


def test_generator_decode_never_calls_solve(monkeypatch):
    fam = construct(Field(2, 4), 6, 5)
    calls = []
    monkeypatch.setattr(udm.codec, "solve", lambda *a: calls.append(a))
    u = (1, 2, 3, 4, 5)
    assert decode(fam, erase(encode(fam, u), (0, 1, 2, 0, 2, 1))) == u
    assert calls == []


def hand_built(field, L, n, rng):
    """Families claiming the primitive element as alpha whose matrices are
    not construct's: a right-multiplied one, one with a row zeroed (rank
    deficient for some tuples), and one with two matrices swapped."""
    fam = construct(field, L, n)
    alpha = field.primitive_element()
    while True:
        b = Matrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if rank(b) == n:
            break
    yield right_multiply(fam, b)._replace(alpha=alpha)
    l, i = rng.randrange(L), rng.randrange(n)
    entries = list(fam.matrices[l].entries)
    entries[i * n : (i + 1) * n] = [0] * n
    mats = list(fam.matrices)
    mats[l] = Matrix(field, n, n, entries)
    yield UdmFamily(field, L, n, tuple(mats), alpha=alpha)
    mats = list(fam.matrices)
    mats[0], mats[-1] = mats[-1], mats[0]
    yield UdmFamily(field, L, n, tuple(mats), alpha=alpha)


@pytest.mark.parametrize("q, L, n", [(3, 4, 3), (4, 5, 3), (5, 4, 4)])
def test_false_alpha_takes_the_solve_path(q, L, n):
    field = field_of_order(q)
    rng = random.Random(q)
    kinds = set()
    for fam in hand_built(field, L, n, rng):
        assert not is_generator(fam)
        assert with_checked_alpha(fam).alpha is None
        patterns = [tuple(ks) for ks in enumerate_exact_tuples(L, n)]
        patterns += [tuple(surplus_pattern(rng, L, n)) for _ in range(20)]
        for ks in patterns:
            u = tuple(rng.randrange(q) for _ in range(n))
            obs = erase(encode(fam, u), ks)
            if sum(ks) > n and rng.random() < 0.5:
                obs = corrupt(rng, obs, q)
            got = outcome(decode, fam, obs)
            assert got == outcome(gaussian_solve, fam, obs)
            kinds.add(got[0] if isinstance(got[0], type) else "ok")
    assert kinds == {"ok", RankDeficient, Inconsistent}


# -- provenance ----------------------------------------------------------------------------


def test_construct_vouches_for_its_output_without_a_second_construct(monkeypatch):
    fam = construct(Field(2, 4), 5, 4)
    monkeypatch.setattr(udm.families, "construct", None)
    assert is_generator(fam)
    assert with_checked_alpha(fam) is fam
    u = (1, 2, 3, 4)
    assert decode(fam, erase(encode(fam, u), (1, 1, 1, 1, 0))) == u


def test_is_generator_compares_once_per_instance(monkeypatch):
    field = Field(3)
    fam = UdmFamily(field, 4, 3, construct(field, 4, 3).matrices, alpha=field.primitive_element())
    calls = []
    real = udm.families.construct

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(udm.families, "construct", counting)
    assert is_generator(fam) and is_generator(fam)
    assert len(calls) == 1
    assert fam == construct(field, 4, 3)  # the memo takes no part in equality
    assert "_generator" not in repr(fam)


def test_is_generator_needs_alpha_and_construct_matrices():
    field = Field(2, 2)
    fam = construct(field, 4, 3)
    assert is_generator(fam)
    assert not is_generator(fam._replace(alpha=None))
    assert not is_generator(fam._replace(alpha=3 if fam.alpha == 2 else 2))
    # Transforms that keep alpha are checked again: these land on construct's
    # output, the permuted one does not.
    assert is_generator(prefix(fam, 3))
    assert is_generator(udm.families.reduce(fam))
    assert not is_generator(udm.families.permute(fam, (1, 0, 2, 3)))
    assert is_generator(tensor_power(construct(Field(3), 4, 3), 2))


def test_family_above_the_size_bound_is_not_a_generator(monkeypatch):
    # construct refuses such a family, so a parsed or hand-built one with
    # alpha set keeps to the solve path instead of raising.
    field = Field(3)
    fam = construct(field, 4, 3)
    claimed = UdmFamily(field, 4, 3, fam.matrices, alpha=fam.alpha)
    monkeypatch.setattr(udm.families, "MAX_FAMILY_ENTRIES", 35)
    assert not is_generator(claimed)
    assert with_checked_alpha(claimed).alpha is None
    u = (1, 2, 0)
    assert decode(claimed, erase(encode(claimed, u), (1, 1, 1, 0))) == u


def test_provenance_survives_pickling():
    fam = construct(Field(5), 4, 3)
    again = pickle.loads(pickle.dumps(fam))
    assert again == fam and is_generator(again)
    hand = UdmFamily(fam.field, 4, 3, tuple(reversed(fam.matrices)), alpha=fam.alpha)
    assert not is_generator(pickle.loads(pickle.dumps(hand)))


# -- simulate ------------------------------------------------------------------------------


def test_simulate_stacks_at_most_once_per_trial(monkeypatch):
    field = Field(2, 2)
    gen = construct(field, 5, 4)
    generic = right_multiply(gen, identity(field, 4))
    calls = []
    real = udm.codec.stack_prefixes

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(udm.codec, "stack_prefixes", counting)
    stats = simulate(gen, 50, "uniform", seed=3)
    assert calls == []
    again = simulate(generic, 50, "uniform", seed=3)
    assert again == stats
    assert len(calls) == stats.successes + stats.failures_rank_deficient <= 50


# -- property ----------------------------------------------------------------------------


PROPERTY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (7, 1)]


@settings(max_examples=60)
@given(data=st.data())
def test_property_decode_of_encode_equals_solve(data):
    p, s = data.draw(st.sampled_from(PROPERTY_FIELDS))
    field = Field(p, s)
    n = data.draw(st.integers(1, 7))
    L = data.draw(st.integers(1, field.q + 1 if n > 1 else field.q + 3))
    fam = construct(field, L, n)
    u = tuple(data.draw(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n)))
    ks = data.draw(st.lists(st.integers(0, n), min_size=L, max_size=L))
    obs = erase(encode(fam, u), ks)
    if data.draw(st.booleans()) and sum(ks) > n:
        channel = data.draw(st.sampled_from([c for c, k in enumerate(ks) if k]))
        delta = data.draw(st.integers(1, field.q - 1))
        prefixes = [list(pfx) for pfx in obs.prefixes]
        prefixes[channel][-1] = (prefixes[channel][-1] + delta) % field.q
        obs = ChannelOutput(obs.ks, prefixes)
    if sum(ks) < n:
        with pytest.raises(InsufficientSymbols):
            decode(fam, obs)
        return
    got = outcome(decode, fam, obs)
    assert got == outcome(stacked_solve, fam, obs)
    if obs.prefixes == erase(encode(fam, u), ks).prefixes:
        assert got == u
