import contextlib
import itertools
import signal

import numpy as np
import pytest

from lindsim.formulas import (
    METHODS,
    Direction,
    Method,
    S1Block,
    S2Block,
    TermExp,
    qdrift_exact,
    s1_dir,
    s2_ran_exact,
    s2_sigma,
)
from lindsim.lindblad import GkslGenerator, constituent_channel, is_cptp
from lindsim.models import builtin_model
from lindsim.norms import diamond_norm
from lindsim.sampling import mixture_estimate, trajectory_channels
from lindsim.sampling import _draw, _products, _uniforms, _window

SZ = np.diag([1.0, -1.0]).astype(complex)


def schedule(method, gen, t, n, seed, r=0):
    """Step length and step list of trajectory r's schedule, steps[0] first."""
    dt, steps, index = _draw(method, gen, t, n, seed, range(r, r + 1))
    return dt, [steps[i] for i in index[0].tolist()]


def schedule_channel(steps, gen, dt):
    """Channel of a hand-built schedule, multiplied out by ``_products``."""
    distinct = list(dict.fromkeys(steps))
    index = np.array([[distinct.index(s) for s in steps]])
    return _products(distinct, index, gen, dt)[0]


@pytest.fixture(scope="module")
def gen():
    return builtin_model("random", dict(d=2, m=3, seed=7))


def test_draws_are_deterministic(gen):
    for method in (Method.S1_RAN, Method.S2_RAN, Method.QDRIFT):
        a = schedule(method, gen, 1.0, 32, 5)
        b = schedule(method, gen, 1.0, 32, 5)
        assert a == b
        assert a != schedule(method, gen, 1.0, 32, 6)


def test_draws_ignore_trailing_state(gen):
    # streams are indexed by (trajectory, step): a draw never depends on how
    # many draws happened before it
    long_dt, long = schedule(Method.QDRIFT, gen, 1.0, 64, 5)
    short_dt, short = schedule(Method.QDRIFT, gen, 1.0, 16, 5)
    ratio = len(long) / len(short)  # dt differs, steps prefix-match
    assert long[:16] == short
    assert long_dt == pytest.approx(short_dt / ratio)


def test_qdrift_single_term_always_first():
    single = GkslGenerator(dim=2, hamiltonian=SZ, terms=())
    for seed in (0, 1, 99):
        _, steps = schedule(Method.QDRIFT, single, 1.0, 10, seed)
        assert all(step == TermExp(k=1) for step in steps)


def test_coin_frequency_concentration(gen):
    _, steps = schedule(Method.S1_RAN, gen, 1.0, 10_000, 42)
    frac = sum(1 for s in steps if s.direction == Direction.FORWARD) / 10_000
    assert 0.48 <= frac <= 0.52


def test_qdrift_frequency_concentration():
    amp = builtin_model("amp_damp", dict(gamma=3.0))  # p = (1/4, 3/4)
    _, steps = schedule(Method.QDRIFT, amp, 1.0, 10_000, 42)
    frac = sum(1 for s in steps if s.k == 2) / 10_000
    assert 0.73 <= frac <= 0.77


def test_sampling_suite_reads_the_same_draws():
    # the suite's frequency checks read trajectory 0 of seed 42; these are its figures
    from lindsim.validation import validate_all

    results = {r.name: r for r in validate_all(seed=0, suite="sampling").results}
    expected = {"deterministic_gatesets": "byte-identical draws",
                "coin_frequency": "forward 0.5022",
                "rate_weighted_frequency": "term-2 0.7464"}
    for name, detail in expected.items():
        assert results[name].passed and results[name].detail == detail


SUPPORT_CASES = [(method, "random", dict(d=2, m=3, seed=7))
                 for method, record in METHODS.items() if record.randomised]
SUPPORT_CASES.append((Method.QDRIFT, "amp_damp", dict(gamma=3.0)))


@pytest.mark.parametrize("method, model, params", SUPPORT_CASES)
def test_draws_follow_the_support(method, model, params):
    # every drawn step is in the support, at its normalised weight within 5 sigma
    g = builtin_model(model, params)
    if method == Method.S2_RAN:  # its support sums the orders without listing them
        orders = list(itertools.permutations(range(1, g.m_total + 1)))
        weights, steps = (1.0,) * len(orders), [S2Block(p) for p in orders]
    else:
        weights, steps = METHODS[method].support(g)
    probs = np.asarray(weights, dtype=float) / np.sum(weights)
    n = 20_000
    _, drawn, index = _draw(method, g, 1.0, n, 11, range(1))
    assert set(drawn) <= set(steps)
    counts = np.bincount(index.ravel(), minlength=len(drawn))
    freq = {step: c / n for step, c in zip(drawn, counts)}
    for step, p in zip(steps, probs):
        assert abs(freq.get(step, 0.0) - p) <= 5 * np.sqrt(p * (1 - p) / n)


def test_s2_permutations_are_uniformish(gen):
    _, steps = schedule(Method.S2_RAN, gen, 1.0, 6000, 3)
    counts = {}
    for step in steps:
        counts[step.perm] = counts.get(step.perm, 0) + 1
    assert len(counts) == 6  # all of Sym(3) appears
    assert min(counts.values()) > 6000 / 6 * 0.8


def test_all_forward_gateset_matches_formula_power(gen):
    n = 5
    steps = [S1Block(Direction.FORWARD)] * n
    expected = np.linalg.matrix_power(s1_dir(gen, 0.2, Direction.FORWARD), n)
    assert np.max(np.abs(schedule_channel(steps, gen, 0.2) - expected)) < 1e-12


def test_gateset_channel_is_cptp(gen):
    for method in (Method.S1_RAN, Method.S2_RAN, Method.QDRIFT):
        assert is_cptp(trajectory_channels(method, gen, 1.0, 8, 11, range(1))[0])


def test_mixture_estimate_single_sample_reproduces_gateset(gen):
    est = mixture_estimate(Method.S1_RAN, gen, 1.0, 6, r_samples=1, seed=9)
    dt, steps = schedule(Method.S1_RAN, gen, 1.0, 6, 9)
    assert np.array_equal(est, schedule_channel(steps, gen, dt))


def test_mixture_estimate_tracks_exact_mixture(gen):
    n = 8
    t = 0.5
    est = mixture_estimate(Method.S2_RAN, gen, t, n, r_samples=5000, seed=0)
    target = np.linalg.matrix_power(s2_ran_exact(gen, t / n), n)
    assert diamond_norm(est - target) <= 0.05


def test_mixture_estimate_variance_shrinks(gen):
    n, t = 8, 0.5
    target = np.linalg.matrix_power(s2_ran_exact(gen, t / n), n)
    d_small = diamond_norm(mixture_estimate(Method.S2_RAN, gen, t, n, 250, seed=0) - target)
    d_large = diamond_norm(mixture_estimate(Method.S2_RAN, gen, t, n, 4000, seed=0) - target)
    assert d_large <= d_small


def test_qdrift_mixture_estimate_against_exact_power():
    amp = builtin_model("amp_damp")
    n, t = 16, 1.0
    omega = t * float(np.sum(amp.rates)) / n
    est = mixture_estimate(Method.QDRIFT, amp, t, n, r_samples=1024, seed=42)
    target = np.linalg.matrix_power(qdrift_exact(amp, omega), n)
    assert diamond_norm(est - target) <= 0.05


def test_gateset_validation():
    with pytest.raises(ValueError, match="positive"):
        _draw(Method.S1_RAN, builtin_model("amp_damp"), 1.0, 0, 0, range(1))
    with pytest.raises(ValueError, match="sampled methods"):
        _draw(Method.S1_DET, builtin_model("amp_damp"), 1.0, 4, 0, range(1))
    with pytest.raises(ValueError, match="need at least one trajectory"):
        mixture_estimate(Method.QDRIFT, builtin_model("amp_damp"), 1.0, 4, 0, 0)
    with pytest.raises(ValueError, match="simulation time must be positive"):
        trajectory_channels(Method.S1_RAN, builtin_model("amp_damp"), 0.0, 4, 0, range(1))


SAMPLED = (Method.S1_RAN, Method.S2_RAN, Method.QDRIFT)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("method", SAMPLED)
def test_stacked_products_match_single_gatesets(method, d):
    g = builtin_model("random", dict(d=d, m=2, seed=4))
    stacked = trajectory_channels(method, g, 1.0, 8, 13, range(16))
    assert stacked.shape == (16, d * d, d * d)
    for r in range(16):
        dt, steps = schedule(method, g, 1.0, 8, 13, r)
        single = schedule_channel(steps, g, dt)
        assert np.max(np.abs(stacked[r] - single)) <= 1e-12


@pytest.mark.parametrize("method", SAMPLED)
def test_draws_are_prefix_stable(gen, method):
    for r in (0, 3):
        _, long = schedule(method, gen, 1.0, 40, 5, r)
        _, short = schedule(method, gen, 1.0, 7, 5, r)
        assert long[:7] == short


@pytest.mark.parametrize("method", SAMPLED)
def test_trajectories_do_not_depend_on_their_batch(gen, method):
    whole = trajectory_channels(method, gen, 1.0, 6, 21, range(10))
    part = trajectory_channels(method, gen, 1.0, 6, 21, range(5, 10))
    assert np.max(np.abs(whole[5:] - part)) <= 1e-12
    assert schedule(method, gen, 1.0, 6, 21, 7) != schedule(method, gen, 1.0, 6, 21, 8)


def test_repeated_permutations_match_loop_product(gen):
    perms = [(2, 1, 3), (1, 2, 3), (2, 1, 3), (3, 1, 2), (2, 1, 3), (1, 2, 3)]
    expected = np.eye(4, dtype=complex)
    for p in perms:
        expected = s2_sigma(gen, 0.1, p) @ expected
    channel = schedule_channel([S2Block(p) for p in perms], gen, 0.1)
    assert np.max(np.abs(channel - expected)) <= 1e-12


def test_mixture_estimate_is_the_mean_over_chunks(gen):
    # 300 trajectories span two product chunks; the mean is chunk-independent
    est = mixture_estimate(Method.QDRIFT, gen, 1.0, 5, r_samples=300, seed=8)
    mean = trajectory_channels(Method.QDRIFT, gen, 1.0, 5, 8, range(300)).mean(axis=0)
    assert np.max(np.abs(est - mean)) <= 1e-12


def test_permutation_codes_beyond_int64():
    # 17 terms: the base-17 permutation code exceeds int64
    big = builtin_model("random", dict(d=2, m=17, seed=1))
    dt, steps = schedule(Method.S2_RAN, big, 1.0, 3, 2, 1)
    assert all(sorted(s.perm) == list(range(1, 18)) for s in steps)
    stacked = trajectory_channels(Method.S2_RAN, big, 1.0, 3, 2, range(2))
    assert np.max(np.abs(stacked[1] - schedule_channel(steps, big, dt))) <= 1e-12


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_draws_reject_seeds_outside_uint64(gen, seed):
    with pytest.raises(ValueError, match="seed"):
        _draw(Method.S1_RAN, gen, 1.0, 4, seed, range(1))


def test_largest_seed_is_accepted(gen):
    assert len(schedule(Method.QDRIFT, gen, 1.0, 4, 2**64 - 1)[1]) == 4


def test_schedules_follow_the_documented_stream(gen):
    # trajectory r reads one (n, w) array of uniforms from Philox(seed, r << 128)
    m, n, seed, r = gen.m_total, 12, 17, 3

    def uniforms(width):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=r << 128))
        return rng.random((n, width))

    _, s1 = schedule(Method.S1_RAN, gen, 1.0, n, seed, r)
    forward = [s.direction == Direction.FORWARD for s in s1]
    assert forward == list(uniforms(1)[:, 0] < 0.5)
    _, s2 = schedule(Method.S2_RAN, gen, 1.0, n, seed, r)
    assert [s.perm for s in s2] == [tuple(np.argsort(u) + 1) for u in uniforms(m)]
    _, qd = schedule(Method.QDRIFT, gen, 1.0, n, seed, r)
    cdf = np.cumsum(gen.rates / np.sum(gen.rates))
    assert [s.k for s in qd] == [min(1 + int(np.searchsorted(cdf, u, side="right")), m)
                                       for u in uniforms(1)[:, 0]]


@pytest.mark.parametrize("method", SAMPLED)
def test_trajectory_batches_share_term_exponentials(method, monkeypatch):
    # the step-channel table of every batch reads the generator's term
    # exponentials, computed once: batches beyond the first add no expm
    import lindsim.lindblad as lindblad
    from lindsim.linalg import mat_exp

    g = builtin_model("random", dict(d=2, m=3, seed=9))
    calls = []
    monkeypatch.setattr(lindblad, "mat_exp", lambda a: calls.append(1) or mat_exp(a))
    first = trajectory_channels(method, g, 1.0, 6, 4, range(0, 8))
    after_first = len(calls)
    assert 0 < after_first <= g.m_total
    rest = [trajectory_channels(method, g, 1.0, 6, 4, range(lo, lo + 8)) for lo in range(8, 64, 8)]
    assert len(calls) == after_first
    whole = trajectory_channels(method, g, 1.0, 6, 4, range(64))
    assert np.max(np.abs(np.concatenate([first] + rest) - whole)) <= 1e-12


# --- one Philox per batch, windowed products ---------------------------------


def loop_product(dt, steps, gen):
    """The schedule's channel multiplied out one step at a time (the reference)."""
    total = np.eye(gen.dim**2, dtype=complex)
    for step in steps:
        if isinstance(step, S1Block):
            chan = s1_dir(gen, dt, step.direction)
        elif isinstance(step, S2Block):
            chan = s2_sigma(gen, dt, step.perm)
        else:
            chan = constituent_channel(gen, step.k, dt, with_rate=False)
        total = chan @ total
    return total


def assert_matches_loop(method, g, n, seed, trajectories):
    stacked = trajectory_channels(method, g, 1.0, n, seed, trajectories)
    for row, r in zip(stacked, trajectories):
        expected = loop_product(*schedule(method, g, 1.0, n, seed, r), g)
        assert np.max(np.abs(row - expected)) <= 1e-12


@contextlib.contextmanager
def hard_timeout(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_single_step_kind_windows_terminate_and_match_the_loop():
    # QDRIFT over one term: k = 1 distinct step, so every window table has one entry
    single = GkslGenerator(dim=2, hamiltonian=SZ, terms=())
    with hard_timeout(20):
        for n in (1, 7, 64, 10_000):
            assert _window(1, n, 16, 4) <= n
            stacked = trajectory_channels(Method.QDRIFT, single, 1.0, n, 3, range(16))
            expected = np.linalg.matrix_power(constituent_channel(single, 1, 1.0 / n,
                                                                  with_rate=False), n)
            assert np.max(np.abs(stacked - expected)) <= 1e-12
        assert_matches_loop(Method.QDRIFT, single, 40, 3, range(2))


@pytest.mark.parametrize("method", SAMPLED)
def test_one_step_schedules_match_the_loop(gen, method):
    assert_matches_loop(method, gen, 1, 7, range(5))


@pytest.mark.parametrize("method", SAMPLED)
@pytest.mark.parametrize("d", [2, 3])
def test_windowed_products_match_the_loop(method, d):
    # n = 61 leaves a remainder for the window _products picks
    g = builtin_model("random", dict(d=d, m=3, seed=4))
    k = len(_draw(method, g, 1.0, 61, 11, range(128))[1])
    w = _window(k, 61, 128, d * d)
    assert 1 < w and 61 % w
    assert_matches_loop(method, g, 61, 11, range(128))


def test_long_schedules_match_the_loop(gen):
    assert _window(2, 10_000, 3, 4) > 1
    assert_matches_loop(Method.S1_RAN, gen, 10_000, 1, range(3))


def test_permutation_codes_beyond_int64_match_the_loop():
    big = builtin_model("random", dict(d=2, m=17, seed=1))
    assert_matches_loop(Method.S2_RAN, big, 5, 2, range(3))


def test_window_table_stays_within_its_budget():
    for k, d2 in ((2, 4), (6, 4), (3, 9), (24, 16), (5000, 4)):
        w = _window(k, 10_000, 1024, d2)
        assert w == 1 or k**w * 4 * d2 * d2 * 8 <= 1 << 22  # real form: 4 d2**2 doubles


@pytest.mark.parametrize("seed, start, n, width", [
    (17, 0, 12, 1),           # a batch from 0
    (17, 128, 7, 3),          # a batch from 128; n * width = 21 leaves a partial block
    (2**64 - 1, 128, 5, 1),   # the largest seed; 5 words leave a partial block
    (9, 3, 4, 17),            # width m = 17
])
def test_batch_uniforms_are_the_per_trajectory_streams(seed, start, n, width):
    trajectories = range(start, start + 128)
    u = _uniforms(seed, trajectories, n, width)
    for row, r in zip(u, trajectories):
        fresh = np.random.Generator(np.random.Philox(key=seed, counter=r << 128)).random((n, width))
        assert np.array_equal(row, fresh)


def test_stepped_trajectory_ranges_read_their_own_streams(gen):
    trajectories = range(3, 40, 4)
    u = _uniforms(17, trajectories, 6, 3)
    for row, r in zip(u, trajectories):
        fresh = np.random.Generator(np.random.Philox(key=17, counter=r << 128)).random((6, 3))
        assert np.array_equal(row, fresh)
    stepped = trajectory_channels(Method.QDRIFT, gen, 1.0, 4, 0, range(0, 8, 2))
    whole = trajectory_channels(Method.QDRIFT, gen, 1.0, 4, 0, range(8))
    assert np.max(np.abs(whole[::2] - stepped)) <= 1e-12
    with pytest.raises(ValueError, match="nonnegative"):
        trajectory_channels(Method.QDRIFT, gen, 1.0, 4, 0, range(-1, 2))
