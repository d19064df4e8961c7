"""One set-up round in a fresh interpreter.

    python3 perfbench/setup_child.py SRC WORKLOAD RULES_TEXT INPUT...

Imports comorph from SRC, parses RULES_TEXT (when it is not empty) and makes
the workload's first call, then prints the seconds that took and the median
time of each kernel's burst (``speed.py``), run right afterwards in the same
process. The inputs are plain strings from the command line, read with
``str`` methods only, so that before the clock starts nothing is imported
beyond what the interpreter loads at start-up: every module comorph needs is
imported inside the timed span.

INPUT is a lemma (paradigms), a word and one sentence in the readings-file
format (length_sweep), or one sentence in that format (cg_stream).
"""

import os
import sys
import time

BURSTS = 5


def _split_sentence(text):
    """(surface, [(pos, baseform, features)]) per line of one sentence."""
    tokens = []
    for line in text.splitlines():
        surface, rest = line.split("\t")
        readings = []
        for r in rest.split(";"):
            pos, base, *feats = r.split(":")
            readings.append((pos, base, tuple(feats[0].split(",")) if feats else ()))
        tokens.append((surface, readings))
    return tokens


def main():
    src, workload, rules_text, *args = sys.argv[1:]
    sentence = _split_sentence(args[1]) if workload == "length_sweep" else None
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import comorph

    rules = comorph.parse_rules(rules_text) if rules_text else None
    if workload == "paradigms":
        comorph.generate(args[0], comorph.NounCase.GENITIVE)
    elif workload == "length_sweep":
        comorph.run_pipeline(args[0], comorph.Grade.WEAK)
        comorph.run_cg(
            [
                comorph.ReadingSet(s, frozenset(comorph.Reading(b, p, frozenset(f)) for p, b, f in rs))
                for s, rs in sentence
            ],
            rules,
        )
    else:
        from comorph.cg import format_sentences

        format_sentences([comorph.run_cg(s, rules) for s in comorph.parse_readings(args[0])])
    elapsed = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import speed

    speed.burst()  # warm-up
    bursts = [speed.burst() for _ in range(BURSTS)]
    interp, memory = (sorted(times)[BURSTS // 2] for times in zip(*bursts))
    print(repr(elapsed), repr(interp), repr(memory))


if __name__ == "__main__":
    main()
