"""Build training corpora, deduplicate, and split train/test.

Run: python demos/04_corpus_pipeline.py
"""
from collections import Counter

from puzzletext import build_cube_corpus, build_maze_corpus, dedup_and_split
from puzzletext.corpus import serialize_record

# Cube records pair a 54-character state with a minimal solving formula,
# an equal number per scramble length. The builders return lazy iterators;
# list() keeps the records for the several passes below.
records = list(build_cube_corpus(rng_seed=7, total=500, max_scramble=5))
print("one cube record:")
print(serialize_record(records[0]))
print()

lengths = Counter(r.meta["scramble_length"] for r in records)
print("records per scramble length:", dict(sorted(lengths.items())))

# Distinct scrambles can reach the same state, so deduplication works on
# the state string, not the formula. Short scrambles collapse hard: there
# are only 18 one-move states in existence.
split = dedup_and_split(records, rng_seed=99, test_fraction=0.2)
print(f"after dedup: {len(split.train)} train + {len(split.test)} test")
one_movers = {r.prompt for r in records if r.meta["scramble_length"] == 1}
print("distinct one-move states seen:", len(one_movers))
print()

# Maze records keep their newlines; prompt is the unsolved render and the
# response the same maze with the path drawn in.
(maze_record,) = build_maze_corpus(rng_seed=3, total=1, sizes=[(4, 4)])
print("one maze record:")
print(serialize_record(maze_record))
