"""The clients' random tapes (repro.server.workload).

A client stream is its seed, a cursor and a few pre-drawn values, refilled
from one shared generator.  Every pinned digest rests on a tape returning
what ``random.Random(seed)`` would, draw for draw, wherever its refills
and chunk growth fall and whatever other tapes refilled in between; and a
tape is only worth having if its refills stay few and its chunks small.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.server import workload
from repro.server.workload import TAPE_MAX_UNIFORMS, ClientWorkload, UniformTape

#: seed 0, one-word keys, keys of several 32-bit words (the simulation's
#: client seeds are ``seed * 1_000_003 + offset``), and negative seeds,
#: which ``random.Random`` reads as their absolute value
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**96),
    st.integers(-(2**40), -1),
)


def stdlib_read_sets(n, length, seed, access_skew, hot_fraction=0.2):
    """The read sets one ``random.Random(seed)`` draws, on demand."""
    rng = random.Random(seed)
    hot_size = max(1, int(n * hot_fraction))
    while True:
        if access_skew <= 0.0:
            yield tuple(rng.sample(range(n), length))
            continue
        hot, cold = list(range(hot_size)), list(range(hot_size, n))
        chosen = []
        for _ in range(length):
            pool = hot if (cold == [] or (hot and rng.random() < access_skew)) else cold
            obj = rng.choice(pool)
            pool.remove(obj)
            chosen.append(obj)
        yield tuple(chosen)


@st.composite
def workloads(draw):
    """:class:`ClientWorkload` keyword arguments: uniform or skewed, over
    a pool of objects from one to past the stdlib's set-size switch."""
    n = draw(st.sampled_from([1, 5, 16, 40, 300]))
    length = draw(st.integers(1, min(n, 12)))
    skew = draw(st.sampled_from([0.0, 0.0, 0.5, 0.9, 1.0]))
    return dict(num_objects=n, length=length, access_skew=skew, seed=draw(SEEDS))


def stdlib_twin(kwargs):
    return stdlib_read_sets(
        kwargs["num_objects"], kwargs["length"], kwargs["seed"], kwargs["access_skew"]
    )


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, count=st.integers(0, 1_400))
def test_a_uniform_tape_is_its_generator(seed, count):
    """Across the first refill, chunk growth (64, 128, 256) and the cap."""
    tape, rng = UniformTape(seed), random.Random(seed)
    assert [tape.random() for _ in range(count)] == [rng.random() for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(kwargs=workloads(), count=st.integers(1, 80))
def test_a_read_set_tape_is_its_generator(kwargs, count):
    """Uniform and skewed, across blocks of 4, 4, 8, 16, 32 sets."""
    tape, twin = ClientWorkload(**kwargs), stdlib_twin(kwargs)
    got = [tape.next_transaction() for _ in range(count)]
    assert got == [(f"c{i}", next(twin)) for i in range(1, count + 1)]


@settings(max_examples=40, deadline=None)
@given(
    uniform_seed=SEEDS,
    kwargs=workloads(),
    schedule=st.lists(st.sampled_from(["u", "u", "u", "w"]), max_size=600),
)
def test_tapes_refilling_in_turn_do_not_disturb_each_other(uniform_seed, kwargs, schedule):
    """Each refill reseeds the one shared generator: two tapes whose
    refills interleave still read their own streams."""
    think, reads = UniformTape(uniform_seed), ClientWorkload(**kwargs)
    other = UniformTape(uniform_seed + 1)
    rng, twin, other_rng = (
        random.Random(uniform_seed), stdlib_twin(kwargs), random.Random(uniform_seed + 1)
    )
    for step in schedule:
        if step == "u":
            assert think.random() == rng.random()
            assert other.random() == other_rng.random()
        else:
            assert reads.next_read_set() == next(twin)


class Spy:
    """Counts the shared generator's reseeds."""

    def __init__(self, monkeypatch):
        self.seeds = 0
        reseed = workload.TAPE_RNG.seed

        def seed(a):
            self.seeds += 1
            reseed(a)

        monkeypatch.setattr(workload.TAPE_RNG, "seed", seed)


def test_uniform_refills_are_few_and_chunks_small(monkeypatch):
    """50,000 uniforms: chunks of 64, 128, 256, then 312 at most, so
    ceil(n / 312) + a logarithmic ramp of reseeds."""
    spy = Spy(monkeypatch)
    n = 50_000
    tape, rng = UniformTape(1999 * 1_000_003 + 200), random.Random(1999 * 1_000_003 + 200)
    largest = 0
    for _ in range(n):
        assert tape.random() == rng.random()
        largest = max(largest, len(tape.uniforms))
    assert largest == TAPE_MAX_UNIFORMS
    assert spy.seeds <= n / TAPE_MAX_UNIFORMS + math.log2(n) + 2


def test_read_set_refills_are_logarithmic_and_replay_is_linear(monkeypatch):
    """2,000 read sets: blocks double, so log2(n) reseeds; each refill
    replays the sets before its block, which is no larger than the block,
    so the sampler runs a small multiple of n times."""
    spy = Spy(monkeypatch)
    sampled = 0
    sampler = workload.id_sampler

    def counting_sampler(n, k):
        draw = sampler(n, k)

        def counted(rng):
            nonlocal sampled
            sampled += 1
            return draw(rng)

        return counted

    monkeypatch.setattr(workload, "id_sampler", counting_sampler)
    n = 2_000
    tape, twin = ClientWorkload(16, length=12, seed=7), stdlib_read_sets(16, 12, 7, 0.0)
    for _ in range(n):
        assert tape.next_read_set() == next(twin)
    assert spy.seeds <= math.log2(n) + 2
    assert sampled <= 4 * n
