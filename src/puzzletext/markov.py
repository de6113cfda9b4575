"""Seeded character-level Markov model with additive smoothing.

Stands in for a neural language model in the generate/train/sample/score
loop: it learns next-character counts for every length-k context in the
training text (record framing tokens are ordinary characters to it) and
samples deterministically from a caller-supplied seed. Contexts never seen
in training back off to the character frequency distribution, so sampling
cannot fail.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from ._util import atomic_write_text, read_text

END_TOKEN = "<|endoftext|>"

MODEL_FORMAT_VERSION = 1


class EmptyCorpusError(ValueError):
    pass


class TextTooShortError(ValueError):
    pass


@dataclass(slots=True)
class CharMarkovModel:
    order: int
    alpha: float
    alphabet: tuple[str, ...]  # sorted, unique
    counts: dict[str, dict[str, int]]  # context -> next char -> count
    char_counts: dict[str, int]  # backoff distribution


def train(corpus_text: str, order: int, alpha: float) -> CharMarkovModel:
    if not corpus_text:
        raise EmptyCorpusError("training corpus is empty")
    if order < 0:
        raise ValueError("order must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    counts: dict[str, dict[str, int]] = {}
    for i in range(len(corpus_text) - order):
        context = corpus_text[i: i + order]
        nxt = corpus_text[i + order]
        bucket = counts.get(context)
        if bucket is None:
            bucket = counts[context] = {}
        bucket[nxt] = bucket.get(nxt, 0) + 1
    char_counts: dict[str, int] = {}
    for char in corpus_text:
        char_counts[char] = char_counts.get(char, 0) + 1
    return CharMarkovModel(
        order=order,
        alpha=alpha,
        alphabet=tuple(sorted(char_counts)),
        counts=counts,
        char_counts=char_counts,
    )


def _context_counts(model: CharMarkovModel, history: str) -> tuple[dict[str, int], float]:
    """Next-character counts after the last `order` chars of history, and
    their smoothed total: the denominator of every conditional."""
    context = history[-model.order:] if model.order else ""
    bucket = model.counts.get(context)
    if bucket is None:
        bucket = model.char_counts  # backoff; may itself be empty
    return bucket, sum(bucket.values()) + model.alpha * len(model.alphabet)


def conditional_prob(model: CharMarkovModel, history: str, char: str) -> float:
    """Smoothed P(char | last `order` chars of history)."""
    bucket, total = _context_counts(model, history)
    return (bucket.get(char, 0) + model.alpha) / total


def sample(
    model: CharMarkovModel,
    prompt: str,
    max_chars: int = 1024,
    rng_seed: int = 0,
    temperature: float = 1.0,
) -> str:
    """Deterministic continuation of `prompt`, up to max_chars characters,
    stopping early once the end token has been emitted in full. Returns the
    generated continuation only, without the prompt."""
    if max_chars < 1:
        raise ValueError("max_chars must be >= 1")
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    rng = random.Random(rng_seed)
    alphabet = model.alphabet
    alpha = model.alpha
    history = prompt
    out: list[str] = []
    tail = ""  # rolling window for end-token detection
    for _ in range(max_chars):
        bucket, total = _context_counts(model, history)
        weights = [(bucket.get(c, 0) + alpha) / total for c in alphabet]
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


def cross_entropy(model: CharMarkovModel, text: str) -> float:
    """Mean bits per character of the smoothed conditionals over positions
    order..end of `text`."""
    if len(text) <= model.order:
        raise TextTooShortError(f"need more than {model.order} characters")
    order = model.order
    bits = 0.0
    for i in range(order, len(text)):
        bits -= math.log2(conditional_prob(model, text[i - order: i], text[i]))
    return bits / (len(text) - order)


def save_model(model: CharMarkovModel, path) -> None:
    payload = {
        "format": MODEL_FORMAT_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "alphabet": "".join(model.alphabet),
        "counts": model.counts,
        "char_counts": model.char_counts,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def load_model(path) -> CharMarkovModel:
    payload = json.loads(read_text(path))
    if payload.get("format") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {payload.get('format')!r}")
    return CharMarkovModel(
        order=payload["order"],
        alpha=payload["alpha"],
        alphabet=tuple(payload["alphabet"]),
        counts={ctx: dict(bucket) for ctx, bucket in payload["counts"].items()},
        char_counts=dict(payload["char_counts"]),
    )
