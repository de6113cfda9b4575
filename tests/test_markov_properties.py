"""Property tests: the markov trainer and sampler against per-position
references over generated texts, models, seeds and temperatures, with one
sampler reused across several draws."""
import math
import random
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from puzzletext import _util  # noqa: E402
from puzzletext.markov import END_TOKEN, sample, sampler, train  # noqa: E402

from test_markov import cut, naive_train  # noqa: E402

TEXTS = st.text(alphabet="ab\n\r x", max_size=200)
FAST = settings(max_examples=300, deadline=None)


def linear_scan_sample(model, prompt, max_chars, rng_seed, temperature):
    """Reference sampler: rebuilds the weights for every character and scans
    them in alphabet order until the running sum exceeds the draw."""
    rng = random.Random(rng_seed)
    alphabet = model["alphabet"]
    history = prompt
    out = []
    tail = ""
    for _ in range(max_chars):
        context = history[-model["order"]:] if model["order"] else ""
        bucket = model["counts"].get(context)
        if bucket is None:
            bucket = model["char_counts"]
        total = sum(bucket.values()) + model["alpha"] * len(alphabet)
        weights = [(bucket.get(c, 0) + model["alpha"]) / total for c in alphabet]
        if temperature != 1.0:
            logs = [math.log(w) / temperature for w in weights]
            peak = max(logs)
            weights = [math.exp(l - peak) for l in logs]
            scale = sum(weights)
            weights = [w / scale for w in weights]
        r = rng.random()
        acc = 0.0
        char = alphabet[-1]
        for c, w in zip(alphabet, weights):
            acc += w
            if r < acc:
                char = c
                break
        out.append(char)
        history += char
        tail = (tail + char)[-len(END_TOKEN):]
        if tail == END_TOKEN:
            break
    return "".join(out)


@FAST
@given(text=TEXTS.filter(bool), order=st.integers(0, 6))
def test_train_matches_per_position_counts(text, order):
    model = train(text, order, 0.1)
    counts, char_counts = naive_train(text, order)
    assert model["counts"] == counts
    assert model["char_counts"] == char_counts
    assert model["alphabet"] == "".join(sorted(char_counts))


@FAST
@given(
    text=TEXTS.filter(bool),
    cuts=st.lists(st.integers(0, 200), max_size=12),
    chunk=st.integers(1, 16),
    order=st.one_of(st.sampled_from([0, 1, 6, 200]), st.integers(0, 12)),
    beyond=st.booleans(),
)
def test_train_over_pieces_matches_whole_text(text, cuts, chunk, order, beyond):
    """Any cut of the text into pieces, and the whole str cut into pieces of
    a few characters, so that lines cross piece edges; CR-only breaks,
    texts without a final newline, and orders past the text's length."""
    if beyond:
        order = len(text) + 10**12
    with mock.patch.object(_util, "PIECE_CHARS", chunk):
        whole = train(text, order, 0.1)
        assert (whole["counts"], whole["char_counts"]) == naive_train(text, order)
        assert train(iter(cut(text, cuts)), order, 0.1) == whole


@FAST
@given(
    text=st.text(alphabet="ab\n<|>", min_size=1, max_size=120).map(lambda t: t + END_TOKEN),
    order=st.integers(0, 4),
    alpha=st.floats(1e-6, 5.0),
    prompt=st.text(alphabet="ab\nz", max_size=8),
    seed=st.integers(0, 2**32),
    temperature=st.one_of(st.just(1.0), st.floats(1e-3, 10.0)),
)
def test_sample_matches_linear_scan(text, order, alpha, prompt, seed, temperature):
    model = train(text, order, alpha)
    assert sample(model, prompt, 120, seed, temperature) == linear_scan_sample(
        model, prompt, 120, seed, temperature
    )


@FAST
@given(
    text=st.text(alphabet="ab\n<|>", min_size=1, max_size=120).map(lambda t: t + END_TOKEN),
    order=st.integers(0, 4),
    draws=st.lists(
        st.tuples(st.text(alphabet="ab\nz", max_size=8), st.integers(0, 2**32), st.integers(1, 80)),
        min_size=2, max_size=5),
    temperature=st.one_of(st.just(1.0), st.floats(1e-3, 10.0)),
)
def test_reused_sampler_matches_linear_scan(text, order, draws, temperature):
    """Several draws from one sampler, each against the reference."""
    model = train(text, order, 0.1)
    draw = sampler(model, temperature)
    for prompt, seed, max_chars in draws:
        assert draw(prompt, max_chars, seed) == linear_scan_sample(model, prompt, max_chars, seed, temperature)
