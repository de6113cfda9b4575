import hashlib
import inspect
import json
import math
import random
import tracemalloc
from collections import Counter

import pytest

from puzzletext import corpus
from puzzletext._util import PIECE_CHARS
from puzzletext.markov import (
    EmptyCorpusError,
    TextTooShortError,
    conditional_prob,
    cross_entropy,
    load_model,
    sample,
    sampler,
    save_model,
    train,
)


# --- training ---


def test_bigram_counts_hand_computed():
    # "ababab": a->b three times, b->a twice, alphabet {a, b}
    model = train("ababab", 1, 0.1)
    assert conditional_prob(model, "a", "b") == pytest.approx((3 + 0.1) / (3 + 0.2))
    assert conditional_prob(model, "b", "a") == pytest.approx((2 + 0.1) / (2 + 0.2))
    assert conditional_prob(model, "a", "a") == pytest.approx(0.1 / 3.2)


def test_order_zero_is_unigram():
    model = train("aab", 0, 1.0)
    assert model["counts"][""] == {"a": 2, "b": 1}
    assert conditional_prob(model, "anything", "a") == pytest.approx(3 / 5)


def test_training_is_deterministic():
    assert train("abcabc", 2, 0.5) == train("abcabc", 2, 0.5)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        train("", 1, 0.1)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        train("ab", -1, 0.1)
    with pytest.raises(ValueError):
        train("ab", 1, 0.0)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        train("ab", 1, alpha)


def naive_train(text, order):
    """Per-position reference: one count for every (context, next char) pair
    and every character of the text."""
    counts = {}
    for i in range(len(text) - order):
        bucket = counts.setdefault(text[i: i + order], {})
        bucket[text[i + order]] = bucket.get(text[i + order], 0) + 1
    return counts, dict(Counter(text))


TRAIN_TEXTS = {
    "maze_corpus": corpus.corpus_text(corpus.build_maze_corpus(5, 40, [(4, 4), (5, 5)])),
    "cube_records": corpus.corpus_text(corpus.build_cube_corpus(31, 50, 5)),
    "no_newline": "abcabcabd",
    "no_final_newline": "ab\ncd\nab\ncd\nefg",
    "carriage_returns": "a\rb\r\nc\n\rd\na\rb\r\n\r\r",
    "short_lines": "a\nb\n\nc\nde\n\n\na\nb\n",
    "single_char": "x",
}


@pytest.mark.parametrize("order", range(8))
@pytest.mark.parametrize("name", [*TRAIN_TEXTS, "order_plus_one"])
def test_train_matches_per_position_counts(name, order):
    text = TRAIN_TEXTS.get(name) or ("ab\n" * 4)[: order + 1]
    model = train(text, order, 0.1)
    counts, char_counts = naive_train(text, order)
    assert model["counts"] == counts
    assert model["char_counts"] == char_counts
    assert model["alphabet"] == "".join(sorted(char_counts))


def straddling_lines(seed, total):
    """Lines of 0 to 150 characters, so that line breaks fall at varied
    distances on both sides of each chunk edge; at order 200 every window
    at a chunk's end reaches past the line after it."""
    rng = random.Random(seed)
    lines = []
    while sum(map(len, lines)) < total:
        lines.append("".join(rng.choice("ab \r") for _ in range(rng.randint(0, 150))) + "\n")
    return "".join(lines)


CHUNK_EDGE_TEXTS = {
    "straddling_lines": straddling_lines(1, 3 * PIECE_CHARS),
    "straddling_no_final_newline": straddling_lines(2, 3 * PIECE_CHARS) + "tail",
    "line_longer_than_chunk": "ab\n" + "y" * (PIECE_CHARS + 7) + "\n" + "cd\n" * 9 + "z" * (2 * PIECE_CHARS),
    "cr_only_breaks": "ab\rcde\r\r" * (PIECE_CHARS // 4),
}


@pytest.mark.parametrize("order", [0, 1, 6, 200])
@pytest.mark.parametrize("name", CHUNK_EDGE_TEXTS)
def test_train_matches_per_position_counts_across_chunk_edges(name, order):
    text = CHUNK_EDGE_TEXTS[name]
    model = train(text, order, 0.1)
    assert (model["counts"], model["char_counts"]) == naive_train(text, order)


@pytest.mark.parametrize("beyond", [1, 10**12])
@pytest.mark.parametrize("name", [name for name in TRAIN_TEXTS if len(TRAIN_TEXTS[name]) < 100])
def test_train_order_beyond_text_length(name, beyond):
    # an order past re's repeat limit must count like any other
    text = TRAIN_TEXTS[name]
    order = len(text) + beyond
    model = train(text, order, 0.1)
    assert (model["counts"], model["char_counts"]) == naive_train(text, order) == ({}, dict(Counter(text)))


def cut(text, cuts):
    """`text` in pieces that end at each in-range cut, empty pieces kept."""
    bounds = [0, *sorted(c for c in cuts if 0 <= c <= len(text)), len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("order", [0, 1, 6, 200])
@pytest.mark.parametrize("name", CHUNK_EDGE_TEXTS)
def test_train_over_pieces_cut_at_chunk_edges(name, order):
    # pieces that end at, just before and just after every chunk edge, and
    # `order` characters before it, where a line's window starts to reach over
    text = CHUNK_EDGE_TEXTS[name]
    edges = range(PIECE_CHARS, len(text), PIECE_CHARS)
    pieces = cut(text, [edge + shift for edge in edges for shift in (-order, -1, 0, 1)])
    assert train(iter(pieces), order, 0.1) == train(text, order, 0.1)


@pytest.mark.parametrize("beyond", [1, 10**12])
@pytest.mark.parametrize("name", [name for name in TRAIN_TEXTS if len(TRAIN_TEXTS[name]) < 100])
def test_train_over_one_char_pieces_with_order_beyond_text_length(name, beyond):
    text = TRAIN_TEXTS[name]
    order = len(text) + beyond
    assert train(list(text), order, 0.1) == train(text, order, 0.1)


def test_train_over_no_pieces_or_empty_pieces_is_an_empty_corpus():
    for pieces in ([], ["", ""]):
        with pytest.raises(EmptyCorpusError):
            train(pieces, 1, 0.1)


@pytest.mark.parametrize("wrap", [str, lambda text: [text]], ids=["str", "one_piece"])
def test_train_memory_does_not_grow_with_piece_size(wrap):
    # every piece is cut to PIECE_CHARS, so only one join's line windows are held
    text = corpus.corpus_text(corpus.build_maze_corpus(1, 2000, [(4, 4), (5, 5)]))
    tracemalloc.start()
    try:
        train(wrap(text), 6, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21, peak


# --- probabilities ---


def test_conditionals_sum_to_one():
    rng = random.Random(2)
    model = train("the quick brown fox jumps over the lazy dog " * 20, 3, 0.3)
    alphabet = model["alphabet"]
    contexts = list(model["counts"])[:500] + ["zz?", "@@@", ""]
    for _ in range(500):
        contexts.append("".join(rng.choice(alphabet) for _ in range(3)))
    for context in contexts:
        total = sum(conditional_prob(model, context, c) for c in alphabet)
        assert abs(total - 1.0) < 1e-9


def test_unseen_context_backs_off_to_char_frequencies():
    model = train("aaab", 2, 0.1)
    # "zz" never seen: expect (count(a) + alpha) / (4 + alpha * 2)
    assert conditional_prob(model, "zz", "a") == pytest.approx(3.1 / 4.2)


# --- sampling ---


def test_greedy_sampling_alternates():
    model = train("ababab", 1, 0.1)
    assert sample(model, "a", max_chars=6, rng_seed=0, temperature=1e-9) == "bababa"


@pytest.mark.parametrize("temperature", [1e-310, 5e-324])
def test_subnormal_temperature_samples_greedily(temperature):
    # every log(p) / temperature overflows to -inf; the limit keeps the likeliest characters
    model = train("ababab", 1, 0.1)
    assert sample(model, "a", max_chars=6, rng_seed=0, temperature=temperature) == "bababa"
    tied = train("abcabc", 0, 0.1)  # a, b and c tie: the draw stays uniform among them
    assert set(sample(tied, "", max_chars=60, rng_seed=0, temperature=temperature)) == {"a", "b", "c"}


def test_sample_appends_exactly_one_char():
    model = train("ababab", 1, 0.1)
    assert len(sample(model, "a", max_chars=1, rng_seed=5)) == 1


def test_sample_deterministic_per_seed():
    model = train("abracadabra" * 30, 2, 0.2)
    a = sample(model, "ab", max_chars=200, rng_seed=9)
    b = sample(model, "ab", max_chars=200, rng_seed=9)
    c = sample(model, "ab", max_chars=200, rng_seed=10)
    assert a == b
    assert a != c


def test_sample_stops_after_end_token():
    model = train("xy<|endoftext|>" * 40, 2, 0.01)
    out = sample(model, "xy", max_chars=500, rng_seed=1, temperature=1e-9)
    assert out == "<|endoftext|>"


# sha256 of 8 seeded samples at each temperature, recorded with the per-character
# linear-scan sampler.
PINNED_SAMPLES_SHA256 = {
    1.0: "a0149b81528e70d80702d2c8d9a5747badcce6201aea639a0972d3d7b08eae23",
    0.5: "ea45b77c6a03df7fba037e08fab5a67000dac148b5cab82018329a22f98913c6",
}


@pytest.mark.parametrize("temperature", sorted(PINNED_SAMPLES_SHA256))
def test_seeded_maze_samples_are_pinned(temperature):
    model = train(TRAIN_TEXTS["maze_corpus"], 6, 0.1)
    digest = hashlib.sha256()
    for seed in range(8):
        out = sample(model, "<|startoftext|>[WP]\n", max_chars=400, rng_seed=seed, temperature=temperature)
        digest.update(out.encode() + b"\0")
    assert digest.hexdigest() == PINNED_SAMPLES_SHA256[temperature]


@pytest.mark.parametrize("temperature", [1.0, 0.5])
def test_reused_sampler_matches_fresh_samples(temperature):
    """One sampler's shared tables give every draw the bytes of a fresh
    `sample` call, whatever the draws before it visited."""
    model = train(TRAIN_TEXTS["maze_corpus"], 6, 0.1)
    draw = sampler(model, temperature)
    rng = random.Random(50)
    prompts = ["<|startoftext|>[WP]\n", "", "+---+", "zzzzzzzz", "| ** |   |\n+", "<|endoftext|>", "x"]
    for _ in range(50):
        prompt = rng.choice(prompts)
        seed, max_chars = rng.randrange(10**6), rng.choice((1, 7, 60, 400))
        assert draw(prompt, max_chars, seed) == sample(model, prompt, max_chars, seed, temperature)


def test_reused_sampler_holds_one_table_per_seen_context():
    """Unseen contexts share one backoff table, so a sampler drawing many
    high-temperature samples holds at most len(model["counts"]) + 1 tables."""
    model = train(TRAIN_TEXTS["maze_corpus"], 6, 0.1)
    draw = sampler(model, 50.0)
    tables = inspect.getclosurevars(draw).nonlocals["tables"]
    for seed in range(300):
        out = draw("zzzzzz", 200, seed)
        if seed % 60 == 0:
            assert out == sample(model, "zzzzzz", 200, seed, 50.0)
    assert None in tables  # the backoff table was used
    assert len(tables) <= len(model["counts"]) + 1


def test_sample_parameter_validation():
    model = train("ab", 1, 0.1)
    with pytest.raises(ValueError):
        sample(model, "a", max_chars=0)
    with pytest.raises(ValueError):
        sample(model, "a", temperature=0.0)
    with pytest.raises(ValueError):
        sampler(model, 0.0)
    with pytest.raises(ValueError):
        sampler(model)("a", max_chars=0)
    with pytest.raises(ValueError, match="temperature must be > 0"):
        sampler(model, float("nan"))


# --- cross entropy ---


def test_cross_entropy_below_uniform_on_training_text():
    text = "abcdabcdabcd" * 10
    model = train(text, 3, 0.01)
    assert cross_entropy(model, text) < math.log2(len(model["alphabet"]))


def test_alpha_only_model_scores_uniform():
    model = {"format": 1, "order": 2, "alpha": 0.5, "alphabet": "ab", "counts": {}, "char_counts": {}}
    assert cross_entropy(model, "abba") == pytest.approx(1.0)


def test_cross_entropy_nonnegative():
    model = train("mississippi" * 5, 2, 0.2)
    assert cross_entropy(model, "mississippi") >= 0.0
    assert cross_entropy(model, "xyzzy") >= 0.0


def test_cross_entropy_needs_enough_text():
    model = train("abcdef", 4, 0.1)
    with pytest.raises(TextTooShortError):
        cross_entropy(model, "abc")


def test_bits_per_char_non_increasing_in_order():
    text = corpus.corpus_text(corpus.build_maze_corpus(5, 40, [(4, 4), (5, 5)]))
    previous = None
    for order in range(5):
        bpc = cross_entropy(train(text, order, 0.1), text)
        if previous is not None:
            assert bpc <= previous
        previous = bpc


# --- persistence ---


def test_save_load_round_trip(tmp_path):
    model = train("the rain in spain " * 15, 4, 0.25)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model == json.loads(path.read_text(encoding="utf-8"))


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": 99}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)


_GOOD_MODEL = {"format": 1, "order": 1, "alpha": 0.1, "alphabet": "ab", "counts": {"a": {"b": 1}},
               "char_counts": {"a": 1, "b": 1}}


@pytest.mark.parametrize("field, value, message", [
    ("order", "x", "model order must be an integer >= 0, got 'x'"),
    ("alpha", "0.1", "model alpha must be a finite number > 0, got '0.1'"),
    ("alphabet", ["a", "b"], "model alphabet must be a string, got a JSON list"),
    ("counts", {"a": {"b": 1.5}}, "model counts must be integers"),
    ("char_counts", {"a": "1", "b": 1}, "model char_counts must be integers"),
    ("alphabet", "", "model alphabet must not be empty"),
    ("counts", {"a": {"b": -1}}, "model counts must not be negative"),
    ("char_counts", {"a": -1}, "model char_counts must not be negative"),
    ("counts", {"": {"a": 10**400}}, "model counts must sum to at most 1.79769e+308"),
    ("char_counts", {"a": 2**1023, "b": 2**1023}, "model char_counts must sum to at most 1.79769e+308"),
    # fields train never writes, which would skew the sampled distribution
    ("format", True, "unsupported model format True"),
    ("alphabet", "ba", "model alphabet must be sorted and hold each character once"),
    ("alphabet", "aab", "model alphabet must be sorted and hold each character once"),
    ("counts", {"ab": {"a": 5}}, "model counts contexts must have length 1"),
    ("counts", {"a": {"c": 1000}}, "model counts must count characters of the alphabet only"),
    ("counts", {"a": {"ab": 1000}}, "model counts must count characters of the alphabet only"),
    ("char_counts", {"a": 1, "z": 1000}, "model char_counts must count characters of the alphabet only"),
])
def test_load_rejects_a_field_of_the_wrong_type(tmp_path, field, value, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**_GOOD_MODEL, field: value}), encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == message


# --- pipeline connectivity ---


def test_high_order_model_reproduces_record_framing():
    # The smoothing must stay light next to the sparse 8-gram counts or
    # sampling diverges into the backoff distribution mid-record.
    text = corpus.corpus_text(corpus.build_cube_corpus(31, 100, 5))
    model = train(text, 8, 0.001)
    assert any(
        "[WP]" in out and "[RESPONSE]" in out
        for out in (
            sample(model, "<|startoftext|>", max_chars=1024, rng_seed=seed)
            for seed in range(100)
        )
    )
