"""The three workloads and the parts they are built from.

Every run reports every end-to-end metric, so every workload runs all three
parts: its own ("home") part at full size for most of the run window, and
a few light units of each other part, spread evenly over the window:

- verify light: the grid without the q = 59049 and q = 65536 families,
  whose fields take seconds to build;
- codec light: the same request mix over GF(16) at (L, n) = (17, 16);
- cli light: a few pipelines of each config.

The simulate batches are the same on every workload.

Load is one closed-loop client in this process: one request at a time, no
threads, and at most one subprocess alive at any moment.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path
from time import perf_counter

from udm import codec, families, gf
from udm.errors import Inconsistent, InsufficientSymbols, Singular, UdmError
from udm.linalg import Matrix

import oracle
from spans import NullTracer

UDM_MODULES = {"families": families, "codec": codec}

# (name, p, s, L, n, superset). Each exact-sum family exercises one gf
# arithmetic path, so a speedup in one path cannot hide behind another.
VERIFY_GRID = (
    ("p7", 7, 1, 5, 12, False),  # prime field: mod-p arithmetic
    ("q16", 2, 4, 6, 8, False),  # characteristic 2: XOR add, log/exp mul
    ("q25", 5, 2, 4, 14, False),  # odd characteristic with an add table
    ("q59049", 3, 10, 4, 8, False),  # odd characteristic, digit-by-digit add
    ("q65536", 2, 16, 5, 10, False),  # the largest supported field
    ("super_q4", 2, 2, 5, 4, True),  # superset runs: where prefix sharing gains most
    ("super_p7", 7, 1, 4, 7, True),
)
GRID = {g[0]: g for g in VERIFY_GRID}
VERIFY_LIGHT = ("p7", "q16", "q25", "super_q4", "super_p7")
# A (7, 5, 12) construct family with the (n-1, n-1) entry of its first
# matrix, the identity, zeroed. Tuples are enumerated with k_0 varying
# slowest, so only the last exact-sum tuple, (n, 0, ..., 0), stacks that row.
FAILING = (7, 1, 5, 12)
MAX_VERIFY_TUPLES = 20_000

CODEC_CONFIGS = {"home": (2, 8, 20, 64), "light": (2, 4, 17, 16)}
SIMULATE = (2, 4, 17, 16)  # geometric erasures put the sums near n
SIM_TRIALS = 50
SIM_BATCHES = 4
# Requests per codec pool, half per family; P95_MIN_SAMPLES per family is
# four replays of the pool.
CODEC_POOL = 100
# At least ten samples beyond the 95th percentile, per family.
P95_MIN_SAMPLES = 200
# A replayed input's best time is over exactly its first BEST_OF samples, so
# a run that fits more replays into its window is not favoured. The simulate
# batches replay their inputs exactly this often, the codec streams at least.
BEST_OF = P95_MIN_SAMPLES // (CODEC_POOL // 2)
CLI_CONFIGS = {"small": (3, 4, 3), "bigfield": (65536, 5, 6)}
CLI_TIMEOUT_S = 120
CLI_PROBE_REPEATS = 3
# The cli home unit: small pipelines are short and noisy, so take more.
CLI_SMALL_PER_BIGFIELD = 3

# Light units per workload, spread over the window: one family verify, ten
# codec requests, one simulate batch or one pipeline each. The codec home
# part needs P95_MIN_SAMPLES request pairs, which leaves room for one
# bigfield pipeline only.
LIGHT_UNITS = {
    "verify": {"codec": 40, "simulate": 16, "cli.small": 12, "cli.bigfield": 2},
    "codec": {"verify": 18, "simulate": 16, "cli.small": 6, "cli.bigfield": 1},
    "cli": {"verify": 18, "codec": 40, "simulate": 16},
}
# Twice the home minimum: light requests are short, and their 95th
# percentile steadier over more samples.
LIGHT_CODEC_REQUESTS = 4 * P95_MIN_SAMPLES
# Set-ups per run, the first before the window's units and the rest spread
# over it like light units. A verify set-up takes about 3 s, a codec one
# 0.3 s and a cli one 12 ms.
SETUP_SAMPLES = {"verify": 4, "codec": 6, "cli": 64}
# About half a millisecond of pure-Python work; see reference_loop().
REF_LOOP_ITERATIONS = 4000
# setup_s is converted from ref units to seconds at this loop time.
REF_NOMINAL_S = 0.5e-3

# Traced runs repeat a fixed unit of the home part, alternating untraced
# and traced, to measure the tracing overhead.
TRACE_ROUNDS = {"verify": 3, "codec": 3, "cli": 1}
TRACE_CODEC_REQUESTS = 40

GF_BUILDS = (("q16", 2, 4), ("q25", 5, 2), ("q256", 2, 8), ("q59049", 3, 10), ("q65536", 2, 16))
GF_PATHS = (("p7", 7, 1), ("q16", 2, 4), ("q25", 5, 2), ("q256", 2, 8), ("q59049", 3, 10))
GF_OPS = 20_000
GF_REPEATS = 5


class SizeGuardError(Exception):
    pass


def size_guard():
    """Refuse any verify config whose tuple count is above the cap, before
    anything runs; (256, 9, 16) alone has C(24, 8) ~ 7e5 tuples."""
    configs = [(name, L, n, sup) for name, _, _, L, n, sup in VERIFY_GRID]
    configs.append(("failing", FAILING[2], FAILING[3], False))
    configs += [(f"cli {name}", L, n, False) for name, (_, L, n) in CLI_CONFIGS.items()]
    for name, L, n, superset in configs:
        count = oracle.superset_tuple_count(L, n) if superset else families.count_exact_tuples(L, n)
        if count > MAX_VERIFY_TUPLES:
            raise SizeGuardError(
                f"verify config {name} (L={L}, n={n}) has {count} tuples, "
                f"above the cap of {MAX_VERIFY_TUPLES}"
            )


class Run:
    """Checks, samples and the tracer of one benchmark run."""

    def __init__(self, seed: int, tracer, src: Path, workdir: Path):
        self.seed = seed
        self.tr = tracer
        self.src = src
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        # Short operations in ref units of their moment: key -> all samples,
        # and key -> input index -> the input's first BEST_OF samples.
        self.ratios: dict[str, list[float]] = defaultdict(list)
        self.first: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        # Exact per seed; counted only while tracing.
        self.outcomes: Counter = Counter()
        self.verify_tuples = 0
        self.witness_tuples = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def record(self, key: str, index: int, seconds: float, ref: float):
        """A short operation on replayed input `index`, taken `seconds`,
        and a reference_loop() time taken right after it."""
        self.samples[key].append(seconds)
        self.ratios[key].append(seconds / ref)
        first = self.first[key][index]
        if len(first) < BEST_OF:
            first.append(seconds / ref)

    def best_sum(self, key: str) -> float:
        """Sum over the replayed inputs of each one's best time, in ref units."""
        return sum(min(times) for times in self.first[key].values())

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.seed}:{stream}")


def exact_composition(rng: random.Random, L: int, n: int) -> list[int]:
    """A uniform tuple of L non-negative parts summing to n."""
    seps = sorted(rng.sample(range(n + L - 1), L - 1))
    bounds = [-1] + seps + [n + L - 1]
    return [bounds[i + 1] - bounds[i] - 1 for i in range(L)]


def add_surplus(rng: random.Random, ks: list[int], n: int) -> list[int]:
    """Add one to eight symbols beyond n, never past a full block."""
    ks = list(ks)
    for _ in range(rng.randint(1, 8)):
        open_channels = [i for i, k in enumerate(ks) if k < n]
        ks[rng.choice(open_channels)] += 1
    return ks


# -- set-up ---------------------------------------------------------------------


class Setup:
    """Fields and families for one run, built from scratch."""

    def __init__(self, run: Run, home: str):
        self.run = run
        self.fields: dict[int, gf.Field] = {}
        self.fams = {}
        for name in GRID if home == "verify" else VERIFY_LIGHT:
            _, p, s, L, n, _ = GRID[name]
            self.fams[name] = self.construct(p, s, L, n)
        self.failing = self.failing_family()
        self.failing_rows = [m.to_lists() for m in self.failing.matrices]
        self.codec_key = "home" if home == "codec" else "light"
        p, s, L, n = CODEC_CONFIGS[self.codec_key]
        generator = self.construct(p, s, L, n)
        self.codec_pair = (("generator", generator), ("generic", self.generic(generator)))
        self.fams["sim"] = self.construct(*SIMULATE)

    def field(self, p: int, s: int) -> gf.Field:
        q = p**s
        if q not in self.fields:
            with self.run.tr.span("gf.Field"):
                self.fields[q] = gf.Field(p, s)
        return self.fields[q]

    def construct(self, p, s, L, n):
        field = self.field(p, s)
        with self.run.tr.span("families.construct"):
            return families.construct(field, L, n)

    def failing_family(self):
        p, s, L, n = FAILING
        fam = self.construct(p, s, L, n)
        first = list(fam.matrices[0].entries)
        first[(n - 1) * n + (n - 1)] = 0
        mats = (Matrix(fam.field, n, n, first),) + fam.matrices[1:]
        return families.UdmFamily(fam.field, L, n, mats)

    def generic(self, generator):
        """right_multiply by a seeded random invertible B, so alpha is None."""
        field, n = generator.field, generator.n
        rng = self.run.rng("codec:B")
        while True:
            b = Matrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
            try:
                with self.run.tr.span("families.right_multiply"):
                    return families.right_multiply(generator, b)
            except Singular:
                continue


def timed_setup(run: Run, home: str) -> Setup:
    t0 = perf_counter()
    st = Setup(run, home)
    run.samples["setup"].append(perf_counter() - t0)
    return st


# -- verify ---------------------------------------------------------------------


def verify_one(run: Run, st: Setup, name: str):
    """Verify one grid family, or the failing one, check the report, and
    record its tuples and seconds."""
    tr = run.tr
    tr.rid = f"verify:{name}"
    if name == "failing":
        t0 = perf_counter()
        with tr.span("families.verify"):
            rep = families.verify(st.failing)
        dt = perf_counter() - t0
        kind, want = "exact", oracle.FAILING_WITNESS_TUPLES
        ok = witness_ok(rep, st.failing_rows)
        if tr.enabled:
            run.witness_tuples = rep.tuples_checked
    else:
        _, _, _, L, n, superset = GRID[name]
        t0 = perf_counter()
        with tr.span("families.verify"):
            rep = families.verify(st.fams[name], superset=superset)
        dt = perf_counter() - t0
        if superset:
            kind, want = "superset", oracle.superset_tuple_count(L, n)
        else:
            kind, want = "exact", oracle.exact_tuple_count(L, n)
        ok = rep.passed and rep.witness is None and rep.tuples_checked == want
    run.check(ok, f"verify {name}: passed={rep.passed} tuples={rep.tuples_checked}")
    if tr.enabled:
        run.verify_tuples += rep.tuples_checked
    run.samples[f"verify.{kind}.tuples"].append(want)
    run.samples[f"verify.{kind}.s"].append(dt)


def verify_pass(run: Run, st: Setup, names):
    for name in (*names, "failing"):
        verify_one(run, st, name)


def witness_ok(rep, rows) -> bool:
    """The pinned witness, and a from-scratch mod-p rank of its stack."""
    w = rep.witness
    if rep.passed or w is None:
        return False
    if (tuple(w.ks), rep.tuples_checked, w.rank) != (
        oracle.FAILING_WITNESS_KS,
        oracle.FAILING_WITNESS_TUPLES,
        oracle.FAILING_WITNESS_RANK,
    ):
        return False
    stack = oracle.stack_rows(rows, w.ks)
    return w.stacked.to_lists() == stack and oracle.rank_mod_p(stack, FAILING[0]) == w.rank


# -- codec ----------------------------------------------------------------------


class CodecStream:
    """Closed-loop requests alternating the generator and generic families.

    The requests come from a seeded pool of CODEC_POOL entries, replayed in
    order. Each entry holds u and an erasure pattern: mostly exact-sum,
    some surplus, some surplus with one symbol corrupted. Replaying lets
    each entry be timed at several moments of the run.
    """

    def __init__(self, run: Run, st: Setup):
        self.run = run
        self.st = st
        self.key = st.codec_key
        p, s, L, n = CODEC_CONFIGS[self.key]
        self.q = q = p**s
        rng = run.rng(f"codec:{self.key}:pool")
        self.pool = []
        for j in range(CODEC_POOL):
            u = tuple(rng.randrange(q) for _ in range(n))
            r = rng.random()
            kind = "exact" if r < 0.7 else "surplus" if r < 0.9 else "corrupt"
            ks = exact_composition(rng, L, n)
            if kind != "exact":
                ks = add_surplus(rng, ks, n)
            channel = rng.choice([c for c, k in enumerate(ks) if k > 0])
            self.pool.append((st.codec_pair[j % 2], u, kind, ks, channel, rng.randrange(1, q)))
        self.i = 0

    def request(self):
        run, tr = self.run, self.run.tr
        j = self.i % CODEC_POOL
        (name, fam), u, kind, ks, channel, delta = self.pool[j]
        tr.rid = f"codec:{self.key}:{self.i}"
        t0 = perf_counter()
        with tr.span("codec.encode"):
            x = codec.encode(fam, u)
        t1 = perf_counter()
        obs = codec.erase(x, ks)
        if kind == "corrupt":
            obs = corrupt_last_symbol(obs, channel, delta, self.q)
        got = None
        t2 = perf_counter()
        try:
            with tr.span("codec.decode"):
                got = codec.decode(fam, obs)
            outcome = "ok"
        except Inconsistent:
            outcome = "inconsistent"
        except InsufficientSymbols:
            outcome = "insufficient"
        except UdmError as exc:
            outcome = type(exc).__name__
        t3 = perf_counter()
        want = "inconsistent" if kind == "corrupt" else "ok"
        run.check(
            outcome == want and (outcome != "ok" or got == u),
            f"codec {self.key} {name} request {self.i}: {kind} -> {outcome}",
        )
        if tr.enabled:
            run.outcomes[outcome] += 1
        ref = reference_loop()
        run.record(f"encode.{name}", j, t1 - t0, ref)
        run.record(f"decode.{name}", j, t3 - t2, ref)
        self.i += 1

    def requests(self, count: int):
        for _ in range(count):
            self.request()


def corrupt_last_symbol(obs, channel: int, delta: int, q: int):
    """Change the last surviving symbol of one channel. With more than n
    symbols the other rows still determine u, so decode must report
    Inconsistent for a universally decodable family."""
    prefixes = [list(pfx) for pfx in obs.prefixes]
    prefixes[channel][-1] = (prefixes[channel][-1] + delta) % q
    return codec.ChannelOutput(obs.ks, tuple(tuple(pfx) for pfx in prefixes))


def simulate_batch(run: Run, st: Setup, unit: int):
    """One simulate batch, checked against the expected outcomes. The seed
    is the batch index, not the run seed, so every run simulates the same
    SIM_BATCHES batches (replayed) and the rate does not move with the
    share of cheap insufficient-symbol trials."""
    p, s, L, n = SIMULATE
    seed = unit % SIM_BATCHES
    run.tr.rid = f"simulate:{unit}"
    t0 = perf_counter()
    with run.tr.span("codec.simulate"):
        stats = codec.simulate(st.fams["sim"], SIM_TRIALS, "geometric", seed=seed)
    run.record("simulate", seed, perf_counter() - t0, reference_loop())
    want = oracle.expected_geometric_simulation(L, n, p**s, SIM_TRIALS, seed)
    got = {k: getattr(stats, k) for k in want}
    run.check(got == want, f"simulate batch {seed}: {got} != {want}")
    if run.tr.enabled:
        run.outcomes["ok"] += stats.successes
        run.outcomes["insufficient"] += stats.failures_insufficient


# -- cli --------------------------------------------------------------------------


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_python(run: Run, args: list[str]):
    """One subprocess at a time; None on timeout (the child is killed)."""
    try:
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            env=cli_env(run.src),
            cwd=run.workdir,
        )
    except subprocess.TimeoutExpired:
        return None


def cli_import_check(run: Run):
    """The subprocesses must import udm from the same src/ as this process."""
    proc = run_python(run, ["-c", "import udm; print(udm.__file__)"])
    ok = proc is not None and proc.returncode == 0
    if ok:
        path = Path(proc.stdout.strip()).resolve()
        ok = path.is_relative_to(run.src.resolve())
    run.check(ok, "cli subprocess imports udm from the checkout's src/")


def cli_pipeline(run: Run, name: str, rng: random.Random):
    """generate -> verify -> codec roundtrip as three sequential processes."""
    q, L, n = CLI_CONFIGS[name]
    path = run.workdir / f"{name}.udm"
    path.unlink(missing_ok=True)
    u = " ".join(str(rng.randrange(q)) for _ in range(n))
    ks = exact_composition(rng, L, n)
    if rng.random() < 0.5:
        ks = add_surplus(rng, ks, n)
    k = " ".join(map(str, ks))
    mod = ["-m", "udm.cli"]
    steps = (
        ("generate", mod + ["generate", "--q", str(q), "--L", str(L), "--n", str(n), "--out", str(path)]),
        ("verify", mod + ["verify", "--in", str(path)]),
        ("codec", mod + ["codec", "roundtrip", "--in", str(path), "--u", u, "--k", k]),
    )
    total = 0.0
    for step, args in steps:
        run.tr.rid = f"cli:{name}"
        t0 = perf_counter()
        with run.tr.span(f"cli.{step}.{name}"):
            proc = run_python(run, args)
        total += perf_counter() - t0
        ok = proc is not None and proc.returncode == 0
        if ok and step == "generate":
            ok = path.exists() and oracle.family_file_header(path.read_text()) == (
                "UDMv1",
                f"L {L}",
                f"n {n}",
            )
        elif ok and step == "verify":
            ok = proc.stdout.strip() == f"PASS ({oracle.exact_tuple_count(L, n)} tuples)"
        elif ok:
            ok = proc.stdout.strip() == "PASS"
        code = "timeout" if proc is None else proc.returncode
        run.check(ok, f"cli {step} {name}: exit {code}")
    run.samples[f"cli.{name}"].append(total)


def cli_probe(run: Run) -> dict:
    """Interpreter start and udm import: together they bound what any cli
    change can save."""
    bare = []
    imp = []
    for _ in range(CLI_PROBE_REPEATS):
        for args, acc in ((["-c", "pass"], bare), (["-c", "import udm"], imp)):
            t0 = perf_counter()
            proc = run_python(run, args)
            acc.append(perf_counter() - t0)
            run.check(proc is not None and proc.returncode == 0, f"cli probe {args}")
    interp = statistics.median(bare)
    return {"cli.interpreter_s": interp, "cli.import_s": statistics.median(imp) - interp}


# -- gf -----------------------------------------------------------------------------


def gf_probe() -> dict:
    """Field builds and per-path mul/sub cost on a fixed operand stream."""
    out = {}
    fields = {}
    for name, p, s in GF_BUILDS:
        t0 = perf_counter()
        fields[name] = gf.Field(p, s)
        out[f"gf.field_build_s.{name}"] = perf_counter() - t0
    for name, p, s in GF_PATHS:
        field = fields.get(name) or gf.Field(p, s)
        rng = random.Random(f"gf:{name}")
        pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(GF_OPS)]
        for op in ("mul", "sub"):
            fn = getattr(field, op)
            times = []
            for _ in range(GF_REPEATS):
                t0 = perf_counter()
                for a, b in pairs:
                    fn(a, b)
                times.append(perf_counter() - t0)
            out[f"gf.{op}_ns.{name}"] = statistics.median(times) / GF_OPS * 1e9
    return out


# -- workloads ----------------------------------------------------------------------


HOME_VERIFY = (*GRID, "failing")
LIGHT_VERIFY = (*VERIFY_LIGHT, "failing")
HOME_CLI = ("small",) * CLI_SMALL_PER_BIGFIELD + ("bigfield",)


def home_unit(run: Run, st: Setup, home: str, stream: CodecStream | None, index: int):
    """Unit `index` of the home part: one family verify, one codec request,
    or one pipeline, cycling through the grid or the cli configs."""
    if home == "verify":
        verify_one(run, st, HOME_VERIFY[index % len(HOME_VERIFY)])
    elif home == "codec":
        stream.request()
    else:
        name = HOME_CLI[index % len(HOME_CLI)]
        cli_pipeline(run, name, run.rng(f"cli:home:{index}"))


def light_units(run: Run, st: Setup, home: str, setups: int = 0) -> list:
    """The light units of the other parts, and `setups` timed set-ups, each
    kind spread evenly over the window and interleaved with the others.
    Units are short, so every metric samples the whole run rather than a
    few moments of it."""
    stream = CodecStream(run, st) if home != "codec" else None
    makers = {
        "verify": lambda i: verify_one(run, st, LIGHT_VERIFY[i % len(LIGHT_VERIFY)]),
        "codec": lambda i: stream.requests(LIGHT_CODEC_REQUESTS // LIGHT_UNITS[home]["codec"]),
        "simulate": lambda i: simulate_batch(run, st, i),
        "cli.small": lambda i: cli_pipeline(run, "small", run.rng(f"cli:small:{i}")),
        "cli.bigfield": lambda i: cli_pipeline(run, "bigfield", run.rng(f"cli:big:{i}")),
        "setup": lambda i: timed_setup(run, home),
    }
    placed = []
    for kind, count in {**LIGHT_UNITS[home], "setup": setups}.items():
        for i in range(count):
            placed.append(((i + 0.5) / count, kind, partial(makers[kind], i)))
    placed.sort(key=lambda t: (t[0], t[1]))
    return [unit for _, _, unit in placed]


def home_complete(run: Run, st: Setup, home: str, homes: int) -> bool:
    """Whether the home units so far may end the run: whole grid cycles,
    so the family mix behind verify_tuples_per_ref is the same in every run;
    whole pool replays with P95_MIN_SAMPLES requests per codec family; and
    at least one pipeline of each cli config."""
    if homes == 0:
        return False
    if home == "verify":
        return homes % len(HOME_VERIFY) == 0
    if home == "codec":
        counts = [len(run.samples[f"decode.{f}"]) for f, _ in st.codec_pair]
        return min(counts) >= P95_MIN_SAMPLES and sum(counts) % CODEC_POOL == 0
    return all(run.samples[f"cli.{name}"] for name in CLI_CONFIGS)


def window(run: Run, st: Setup, home: str, until: float):
    """Fill the window with home units, running each light unit when its
    share of the window has elapsed. No home unit starts once one as long
    as the longest so far would end past the deadline, unless the home
    part is not yet complete."""
    light = light_units(run, st, home, setups=SETUP_SAMPLES[home] - 1)
    stream = CodecStream(run, st) if home == "codec" else None
    start = perf_counter()
    span = max(until - start, 1e-9)
    longest = 0.0
    done = homes = 0
    while True:
        now = perf_counter()
        if done < len(light) and now - start >= done * span / len(light):
            light[done]()
            run.samples["ref"].append(reference_loop())
            done += 1
            continue
        if now + longest > until and home_complete(run, st, home, homes):
            break
        t0 = perf_counter()
        home_unit(run, st, home, stream, homes)
        longest = max(longest, perf_counter() - t0)
        run.samples["ref"].append(reference_loop())
        homes += 1
    for unit in light[done:]:
        unit()
        run.samples["ref"].append(reference_loop())


_REF_TABLE = list(range(1024))


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work (list indexing, integer
    arithmetic), the kind of work udm's inner loops do. It runs after every
    unit, so its mean tracks how fast this host runs Python during the run."""
    table = _REF_TABLE
    acc = 0
    t0 = perf_counter()
    for i in range(REF_LOOP_ITERATIONS):
        acc = table[(acc + i) & 1023] ^ (i % 7)
    return perf_counter() - t0


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def p95(xs) -> float:
    return statistics.quantiles(xs, n=100)[94]


def summarize(run: Run) -> tuple[dict, dict]:
    """Gated metrics and informational ones from the run's samples.

    A shared host can switch between a fast and a slow processor state,
    about 1.45x apart, for seconds and sometimes for a whole run, which
    moved raw times by 0.2 to 0.35 (quartile spread over median) from run
    to run. The gated times are therefore in `ref` units, the time of
    reference_loop(), which moves with the host and not with udm:

    - a short operation (a codec request, a simulate batch) is divided by
      a loop timed right after it. These replay a fixed set of inputs and
      are gated on the mean over inputs of each input's fastest time, and
      on the 95th percentile of all samples;
    - a long one (a family verify, a cli pipeline, which runs in child
      processes, a set-up) outlasts the host's states, so its time is
      divided by the mean of the loop timed after every unit of the run.

    setup_s is the median set-up in ref units, converted back to seconds at
    REF_NOMINAL_S per loop: it must be in seconds, and raw seconds moved
    with the host's speed over whole runs, which no choice of set-ups
    within a run can remove. Raw times are printed, not gated.
    """
    samples, ratios = run.samples, run.ratios
    ref = statistics.fmean(samples["ref"])

    def best_mean(key):
        return run.best_sum(key) / len(run.first[key])

    def rate(work_key, time_key):
        return sum(samples[work_key]) / sum(samples[time_key])

    sim_trials = SIM_TRIALS * SIM_BATCHES
    gated = {
        "encode_ref_best_mean": best_mean("encode.generator"),
        "decode_ref_best_mean": best_mean("decode.generator"),
        "decode_ref_p95": p95(ratios["decode.generator"]),
        "encode_generic_ref_best_mean": best_mean("encode.generic"),
        "decode_generic_ref_best_mean": best_mean("decode.generic"),
        "decode_generic_ref_p95": p95(ratios["decode.generic"]),
        "cli_small_ref_mean": statistics.fmean(samples["cli.small"]) / ref,
        "cli_bigfield_ref_mean": statistics.fmean(samples["cli.bigfield"]) / ref,
        "verify_tuples_per_ref": rate("verify.exact.tuples", "verify.exact.s") * ref,
        "verify_superset_tuples_per_ref": rate("verify.superset.tuples", "verify.superset.s") * ref,
        "simulate_trials_per_ref": sim_trials / run.best_sum("simulate"),
        "setup_s": statistics.median(samples["setup"]) / ref * REF_NOMINAL_S,
    }
    info = {
        "ref_ms": ref * 1e3,
        "setup_s_raw_p50": statistics.median(samples["setup"]),
        "setup_s_raw_min": min(samples["setup"]),
        "verify_tuples_per_s": rate("verify.exact.tuples", "verify.exact.s"),
        "verify_superset_tuples_per_s": rate("verify.superset.tuples", "verify.superset.s"),
        "simulate_trials_per_s": SIM_TRIALS * len(samples["simulate"]) / sum(samples["simulate"]),
    }
    for op in ("encode", "decode"):
        for name, fam in (("generator", ""), ("generic", "_generic")):
            times = samples[f"{op}.{name}"]
            info[f"{op}{fam}_ms_p50"] = statistics.median(times) * 1e3
            info[f"{op}{fam}_ms_p95"] = p95(times) * 1e3
    for name in CLI_CONFIGS:
        info[f"cli_{name}_s_mean"] = statistics.fmean(samples[f"cli.{name}"])
        info[f"cli_{name}_s_p50"] = statistics.median(samples[f"cli.{name}"])
    info.update({f"samples.{k}": len(v) for k, v in samples.items() if not k.endswith(".tuples")})
    return gated, info


def end_to_end(run: Run, home: str, seconds: float) -> tuple[dict, dict]:
    """The gated metrics and the informational ones of one run.

    peak_rss_mb is this process's peak on verify and codec. On cli, whose
    work runs in udm.cli children, it is the larger of this process's and
    the children's peaks; elsewhere the children's peak is printed only.
    """
    start = perf_counter()
    cli_import_check(run)
    st = timed_setup(run, home)
    window(run, st, home, until=start + seconds)
    gated, info = summarize(run)
    own = peak_rss_mb(resource.RUSAGE_SELF)
    children = peak_rss_mb(resource.RUSAGE_CHILDREN)
    gated["peak_rss_mb"] = max(own, children) if home == "cli" else own
    info["peak_rss_children_mb"] = children
    return gated, info


def fixed_home_unit(run: Run, st: Setup, home: str):
    """A fixed amount of the home part, on the same inputs every call: a
    grid pass, TRACE_CODEC_REQUESTS requests, or one pipeline per config."""
    if home == "verify":
        verify_pass(run, st, GRID)
    elif home == "codec":
        CodecStream(run, st).requests(TRACE_CODEC_REQUESTS)
    else:
        for name in CLI_CONFIGS:
            cli_pipeline(run, name, run.rng("cli:home:0"))


def traced(run: Run, home: str, tracer) -> dict:
    """Per-layer metrics. Fixed units of the home part run alternately
    untraced and traced on the same inputs; the difference in their total
    time is the tracing overhead. The light units then run traced once."""
    null = NullTracer()
    layer = gf_probe()
    run.tr = null
    cli_import_check(run)
    layer.update(cli_probe(run))
    run.tr = tracer
    with tracer.patched(UDM_MODULES):
        st = Setup(run, home)
    base_s = traced_s = 0.0
    for _ in range(TRACE_ROUNDS[home]):
        run.tr = null
        t0 = perf_counter()
        fixed_home_unit(run, st, home)
        base_s += perf_counter() - t0
        run.tr = tracer
        with tracer.patched(UDM_MODULES):
            t0 = perf_counter()
            fixed_home_unit(run, st, home)
            traced_s += perf_counter() - t0
    with tracer.patched(UDM_MODULES):
        for unit in light_units(run, st, home):
            unit()
    agg = tracer.aggregate()

    def get(name, key):
        return agg[name][key] if name in agg else 0

    for name in ("rank", "solve", "matvec", "stack_prefixes"):
        layer[f"linalg.{name}.calls"] = get(f"linalg.{name}", "calls")
        layer[f"linalg.{name}.self_s"] = get(f"linalg.{name}", "self_s")
    layer["linalg.stacked_entries"] = tracer.stacked_entries
    layer["families.verify.tuples"] = run.verify_tuples
    layer["families.verify.self_s"] = get("families.verify", "self_s")
    layer["families.verify.witness_tuples"] = run.witness_tuples
    layer["families.construct_s"] = get("families.construct", "total_s")
    layer["families.transform_s"] = get("families.right_multiply", "total_s")
    for name in ("encode", "decode", "simulate"):
        layer[f"codec.{name}.self_s"] = get(f"codec.{name}", "self_s")
    for outcome in ("ok", "insufficient", "inconsistent"):
        layer[f"codec.decode.{outcome}"] = run.outcomes[outcome]
    for step in ("generate", "verify", "codec"):
        for cfg in CLI_CONFIGS:
            spans = agg.get(f"cli.{step}.{cfg}")
            layer[f"cli.{step}_s.{cfg}"] = statistics.median(spans["durations"]) if spans else 0.0
    layer["trace.overhead_s"] = traced_s - base_s
    layer["trace.overhead_share"] = (traced_s - base_s) / base_s
    return layer


def make_workdir(base: Path) -> tempfile.TemporaryDirectory:
    base.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=base)
