"""Seeded character-level Markov model with additive smoothing.

Stands in for a neural language model in the generate/train/sample/score
loop: it learns next-character counts for every length-k context in the
training text (record framing tokens are ordinary characters to it) and
samples deterministically from a caller-supplied seed. Contexts never seen
in training back off to the character frequency distribution, so sampling
cannot fail. A model is the JSON object its file holds: `format`, `order`,
`alpha`, `alphabet` (the sorted distinct characters as one str), `counts`
(context -> next char -> count) and `char_counts` (the backoff counts).
"""
from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable
from itertools import accumulate

from . import _util
from ._util import atomic_write_text, read_pieces, seeded_random
from .corpus import DEFAULT_MAX_CHARS, END_TOKEN

MODEL_FORMAT_VERSION = 1


class EmptyCorpusError(ValueError):
    pass


class TextTooShortError(ValueError):
    pass


def train(corpus: str | Iterable[str], order: int, alpha: float) -> dict:
    """Count the corpus, a str or its text in pieces, cut into pieces of at
    most _util.PIECE_CHARS characters as read_pieces cuts a file. A line is
    counted once the `order` characters after it have arrived, so between
    pieces only the uncounted tail is kept: the last `order` characters,
    back to the start of the line they begin in."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be finite and > 0")
    size = _util.PIECE_CHARS  # a longer piece would hold all its line windows at once
    pieces = (part[i: i + size] for part in ((corpus,) if isinstance(corpus, str) else corpus)
              for i in range(0, len(part), size))
    # A line window is one line with its "\n" plus the `order` characters after
    # it: it holds every (order+1)-gram that starts in the line. Repeated lines
    # in a corpus repeat their windows, so each distinct window is split into
    # grams once and its grams are weighted by how often it occurs.
    windows: Counter[str] = Counter()
    held: list[str] = []  # the text not yet counted, from a line start on
    held_chars = rest_chars = 0
    for piece in pieces:
        held.append(piece)
        held_chars += len(piece)
        if held_chars < 2 * rest_chars:
            continue  # a line longer than the pieces: join once it has doubled
        text = "".join(held)
        rest = text[_count_windows(text, order, len(text) - order, windows):]
        held = [rest]
        held_chars = rest_chars = len(rest)
    text = "".join(held)
    start = _count_windows(text, order, len(text), windows)
    if start < len(text):  # the last line has no "\n"; its window is the rest
        windows[text[start:]] += 1
    if not windows:
        raise EmptyCorpusError("training corpus is empty")
    grams: Counter[str] = Counter()
    for window, times in windows.items():
        for i in range(len(window) - order):
            grams[window[i: i + order + 1]] += times
    counts: dict[str, dict[str, int]] = {}
    # Every position before the last `order` starts exactly one gram, so the
    # grams' first characters count those positions; the tail is counted here.
    # `text` holds at least the corpus's last `order` characters, or all of it.
    char_counts = Counter(text[max(len(text) - order, 0):])
    for gram, times in grams.items():
        counts.setdefault(gram[:-1], {})[gram[-1]] = times
        char_counts[gram[0]] += times
    return {
        "format": MODEL_FORMAT_VERSION,
        "order": order,
        "alpha": alpha,
        "alphabet": "".join(sorted(char_counts)),
        "counts": counts,
        "char_counts": dict(char_counts),
    }


def _count_windows(text: str, order: int, limit: int, windows: Counter[str]) -> int:
    """Add the window of each line of `text` whose "\n" lies before `limit`
    to `windows`, and return where the first line left uncounted starts.
    The windows are cut and counted in C by one findall, which returns each
    newline-ended line's window; the matches past the last counted line
    (lines ending within `order` characters of it) are dropped. `text` is a
    carried join of a few pieces, so the windows it holds at once stay few."""
    end = text.rfind("\n", 0, max(limit, 0)) + 1
    if not end:
        return 0
    reach = min(order, len(text))  # a repeat count within re's limit for any order
    found = re.compile(rf"(?=([^\n]*\n.{{0,{reach}}}))[^\n]*\n", re.DOTALL).findall(text, 0, end + reach)
    del found[text.count("\n", 0, end):]
    windows.update(found)
    return end


def _context_counts(model: dict, history: str) -> tuple[dict[str, int], float]:
    """Next-character counts after the last `order` chars of history, and
    their smoothed total: the denominator of every conditional."""
    order = model["order"]
    bucket = model["counts"].get(history[-order:] if order else "")
    if bucket is None:
        bucket = model["char_counts"]  # backoff; may itself be empty
    return bucket, sum(bucket.values()) + model["alpha"] * len(model["alphabet"])


def conditional_prob(model: dict, history: str, char: str) -> float:
    """Smoothed P(char | last `order` chars of history)."""
    bucket, total = _context_counts(model, history)
    return (bucket.get(char, 0) + model["alpha"]) / total


def sampler(model: dict, temperature: float = 1.0) -> Callable[..., str]:
    """A `draw(prompt, max_chars=DEFAULT_MAX_CHARS, rng_seed=0)` function
    that samples like `sample` at this temperature. Draws share one
    cumulative table per context seen in training, plus one backoff table
    for every unseen context, each built on first use; so a reused sampler
    builds each table once and holds at most len(model["counts"]) + 1 of them.
    The model is only read, and must not change while in use."""
    if not temperature > 0:  # NaN included
        raise ValueError("temperature must be > 0")
    alphabet = model["alphabet"]
    alpha = model["alpha"]
    last = len(alphabet) - 1
    order = model["order"]
    counts = model["counts"]
    tables: dict[str | None, list[float]] = {}  # seen context, or None for backoff -> cumulative weights

    def table(context: str) -> list[float]:
        key = context if context in counts else None
        cumulative = tables.get(key)
        if cumulative is None:
            bucket, total = _context_counts(model, context)
            weights = [(bucket.get(c, 0) + alpha) / total for c in alphabet]
            if temperature != 1.0:
                logs = [math.log(w) / temperature for w in weights]
                peak = max(logs)
                if peak == -math.inf:  # every log overflowed: take the zero-temperature limit
                    top = max(weights)
                    weights = [float(w == top) for w in weights]
                else:
                    weights = [math.exp(l - peak) for l in logs]
                scale = sum(weights)
                weights = [w / scale for w in weights]
            cumulative = tables[key] = list(accumulate(weights))
        return cumulative

    def draw(prompt: str, max_chars: int = DEFAULT_MAX_CHARS, rng_seed: int = 0) -> str:
        if max_chars < 1:
            raise ValueError("max_chars must be >= 1")
        rng = seeded_random(rng_seed)
        context = prompt[-order:] if order else ""
        out: list[str] = []
        for _ in range(max_chars):
            cumulative = tables.get(context)
            if cumulative is None:
                cumulative = table(context)
            # the first character whose running weight exceeds the draw; the
            # last one when rounding leaves the final sum at or below it
            char = alphabet[min(bisect_right(cumulative, rng.random()), last)]
            out.append(char)
            if order:
                context = (context + char)[-order:]
            if char == END_TOKEN[-1] and "".join(out[-len(END_TOKEN):]) == END_TOKEN:
                break
        return "".join(out)

    return draw


def sample(
    model: dict,
    prompt: str,
    max_chars: int = DEFAULT_MAX_CHARS,
    rng_seed: int = 0,
    temperature: float = 1.0,
) -> str:
    """Deterministic continuation of `prompt`, up to max_chars characters,
    stopping early once the end token has been emitted in full. Returns the
    generated continuation only, without the prompt."""
    return sampler(model, temperature)(prompt, max_chars, rng_seed)


def cross_entropy(model: dict, text: str) -> float:
    """Mean bits per character of the smoothed conditionals over positions
    order..end of `text`."""
    order = model["order"]
    if len(text) <= order:
        raise TextTooShortError(f"need more than {order} characters")
    bits = 0.0
    for i in range(order, len(text)):
        bits -= math.log2(conditional_prob(model, text[i - order: i], text[i]))
    return bits / (len(text) - order)


def save_model(model: dict, path) -> None:
    atomic_write_text(path, json.dumps(model, sort_keys=True))


def load_model(path) -> dict:
    payload = json.loads("".join(read_pieces(path)))
    if not isinstance(payload, dict):
        raise ValueError(f"model file holds a JSON {type(payload).__name__}, not an object")
    if type(payload.get("format")) is not int or payload["format"] != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {payload.get('format')!r}")
    missing = [key for key in ("order", "alpha", "alphabet", "counts", "char_counts") if key not in payload]
    if missing:
        raise ValueError(f"model file lacks {', '.join(missing)}")
    order, alpha, alphabet = payload["order"], payload["alpha"], payload["alphabet"]
    if type(order) is not int or order < 0:
        raise ValueError(f"model order must be an integer >= 0, got {order!r}")
    if type(alpha) not in (int, float) or not 0 < alpha < math.inf:
        raise ValueError(f"model alpha must be a finite number > 0, got {alpha!r}")
    if not isinstance(alphabet, str):
        raise ValueError(f"model alphabet must be a string, got a JSON {type(alphabet).__name__}")
    if not alphabet:
        raise ValueError("model alphabet must not be empty")
    counts, char_counts = payload["counts"], payload["char_counts"]
    if not isinstance(counts, dict) or not all(isinstance(b, dict) for b in (char_counts, *counts.values())):
        raise ValueError("model counts and char_counts must hold JSON objects")
    ints_only = {int}.issuperset
    for name, buckets in (("counts", counts.values()), ("char_counts", (char_counts,))):
        if not all(ints_only(map(type, bucket.values())) for bucket in buckets):
            raise ValueError(f"model {name} must be integers")
        if any(min(bucket.values(), default=0) < 0 for bucket in buckets):
            raise ValueError(f"model {name} must not be negative")
        # sampling divides by each bucket's total as a float
        if any(sum(bucket.values()) > sys.float_info.max for bucket in buckets):
            raise ValueError(f"model {name} must sum to at most {sys.float_info.max:g}")
    # as train writes them: a count outside the alphabet, or a repeated
    # character in it, would skew every total sampling divides by
    if list(alphabet) != sorted(set(alphabet)):
        raise ValueError("model alphabet must be sorted and hold each character once")
    if any(len(context) != order for context in counts):
        raise ValueError(f"model counts contexts must have length {order}")
    for name, buckets in (("counts", counts.values()), ("char_counts", (char_counts,))):
        if not all(map(set(alphabet).issuperset, buckets)):
            raise ValueError(f"model {name} must count characters of the alphabet only")
    return payload
