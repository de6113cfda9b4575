"""The full loop: corpus -> baseline model -> samples -> scored report.

Run: python demos/05_model_loop.py
"""
from puzzletext import aggregate, build_maze_corpus, classify_maze
from puzzletext.corpus import corpus_text
from puzzletext.evaluate import format_report
from puzzletext.markov import cross_entropy, sample, train

# Train the character-level baseline on a small maze corpus. The framing
# tokens are just characters to it.
records = build_maze_corpus(rng_seed=11, total=300, sizes=[(4, 4), (5, 5)])
text = corpus_text(records)
model = train(text, order=6, alpha=0.1)
print(f"corpus: {len(text):,} chars; model contexts: {len(model['counts']):,}")
print(f"bits/char on training text: {cross_entropy(model, text[:20000]):.3f}")
print()

# Draw seeded samples continuing the record-opening prompt, capped at the
# 1024-character budget, then score each one as a framed maze record.
prompt = "<|startoftext|>[WP]\n"
samples = [prompt + sample(model, prompt, max_chars=1024, rng_seed=s) for s in range(50)]
print("one raw sample:")
print(samples[0])
print()

verdicts = [classify_maze(s) for s in samples]
print(format_report(aggregate(verdicts)))
print()
print("a character-level baseline rarely keeps maze geometry consistent,")
print("so most samples classify as invalid; the same scorer accepts output")
print("files from any external model (see README for the CLI flow).")
