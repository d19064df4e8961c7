"""The three workloads: inputs, reference checks, timed and traced loops.

Each workload runs as one closed-loop caller with one call in flight. Inputs
and expected outputs are built in batches outside the timed region; only
the call into comorph sits between the two clock reads. Each new batch is
moved out of the cyclic garbage collector's reach with ``gc.freeze()``, so
that collections inside a call scan the program's objects, not the
benchmark's held inputs and references; they are still freed by reference
counting when the batch is dropped.
"""

from __future__ import annotations

import gc
import random
import statistics
from collections import Counter
from time import thread_time

import inputs as inp
from comorph.cg import (
    Reading,
    ReadingSet,
    apply_rule,
    format_sentences,
    parse_readings,
    parse_rules,
    run_cg,
)
from comorph.generator import NounCase, generate
from comorph.gradation import Grade, gradation_arrow
from comorph.pipeline import run_pipeline
from comorph.vowels import harmony_arrow, possessive_arrow
from comorph.writer import EMPTY_DELETIONS, WriterZipper, lift_pure, materialize, writer_extend
from comorph.zipper import extend, extract, from_sequence, to_sequence
from measure import LatencyHistogram, Tracer, clock
from reference import GOLDENS, cg_reference, parse_tsv
from speed import Speedometer, probe

CASE_ENUMS = [NounCase(name) for name, _, _ in inp.CASES]
GRADES = {g.value: g for g in Grade}
IDENTITY_WRITER = lift_pure(extract)


class Tally:
    """What one loop measured, plus the errors it saw.

    Calls are reported with ``op`` and gathered into segments of about
    ``speed.SEGMENT_S``; when a segment closes, a speed burst runs and each
    call's time is scaled by the machine's speed over the segment (see
    ``speed.py``): the share ``memory`` of it by the memory kernel's speed,
    the rest by the interpreter kernel's. A latency sample takes its
    interpreter speed from the probes around its own call instead. ``busy``
    and the latency samples are scaled, ``raw_busy`` is not. ``busy`` is the
    time inside the calls an untraced loop times; a traced loop reports only
    the spans around those same calls, not the composed and identity work it
    does besides.
    """

    # A run needs this many latency samples, so that its p99 has 10 samples
    # beyond it.
    MIN_LATENCY_SAMPLES = 1000

    def __init__(self, on_window=None) -> None:
        self.on_window = on_window
        self.speed = Speedometer()
        self.hist = LatencyHistogram()
        self.items = 0
        self.busy = 0.0
        self.raw_busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.calls = 0
        self.windows: list[tuple[int, float]] = []
        self._window_start = (0, 0.0)
        self._seg_items = 0
        self._seg_busy = [0.0, 0.0]  # interpreter-bound, memory-bound
        self._seg_latency: list[tuple[float, float, float]] = []  # cpu, speed, memory

    def op(self, dt: float, items: int, memory: float = 0.0, sample=None) -> None:
        """One call of ``dt`` seconds over ``items`` items.

        ``memory`` is the share of the call's time that is memory-bound:
        how much less than the interpreter kernel the call slows down when
        the machine does, as measured on the reference machine. A call
        given a ``sample`` from ``_call`` is a latency sample.
        """
        self._seg_items += items
        self._seg_busy[0] += dt * (1 - memory)
        self._seg_busy[1] += dt * memory
        if sample is not None:
            self._seg_latency.append((*sample, memory))
        self.calls += 1
        if self.speed.due():
            self._close_segment()

    def _close_segment(self) -> None:
        s_interp, s_memory = self.speed.read()
        interp, memory = self._seg_busy
        self.items += self._seg_items
        self.busy += interp * s_interp + memory * s_memory
        self.raw_busy += interp + memory
        for cpu, s_call, m in self._seg_latency:
            us = cpu * ((1 - m) * s_call + m * s_memory) * 1e6
            self.hist.add(us)
        self._seg_items, self._seg_busy, self._seg_latency = 0, [0.0, 0.0], []

    def close_window(self) -> None:
        """Record items and busy time since the previous window closed.

        A window is one batch of inputs (one round in length_sweep) and
        always ends a segment.
        """
        self._close_segment()
        items, busy = self._window_start
        if self.items > items:
            self.windows.append((self.items - items, self.busy - busy))
        if self.on_window is not None:
            self.on_window()
        self._window_start = (self.items, self.busy)

    def items_per_s(self) -> float:
        """Median over windows of items per busy second."""
        return statistics.median(i / b for i, b in self.windows)

    def latency_quantiles(self) -> tuple[float, float]:
        """p50 and p99 over every latency sample of the run, in µs."""
        return self.hist.quantile(0.5), self.hist.quantile(0.99)

    def check(self, ok: bool, what) -> None:
        """Count one attempted op; ``what`` describes it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"MISMATCH {what()}")


def _call(fn, *args):
    """Time one call; an exception is returned as the output.

    Returns the output, the wall seconds the call took, and its latency
    sample: the thread's CPU seconds in the call and the interpreter speed
    around it, the mean of a probe just before and one just after. Latency
    is CPU time so that the calls during which another process on the
    machine held the CPU do not make the tail; throughput, a sum over
    thousands of calls, keeps wall time.
    """
    before = probe()
    c0 = thread_time()
    t0 = clock()
    try:
        out = fn(*args)
    except Exception as exc:  # the loop must keep running and count it
        out = exc
    dt = clock() - t0
    cpu = thread_time() - c0
    return out, dt, (cpu, (before + probe()) / 2)


def _reading_key(r) -> tuple:
    return (r.pos, r.baseform, tuple(sorted(r.features)))


def _sentence_keys(sentence) -> list[frozenset]:
    return [frozenset(_reading_key(r) for r in rs.readings) for rs in sentence]


def _reading_sets(sent: list) -> list:
    return [
        ReadingSet(surface, frozenset(Reading(b, p, frozenset(f)) for p, b, f in readings))
        for surface, readings in sent
    ]


class InputStats:
    """Measured input properties, accumulated over everything generated.

    Counters only, so memory does not grow with the number of requests.
    """

    def __init__(self) -> None:
        self.words = self.chars = self.chars_max = self.graded = self.placeholders = 0
        self.sentences = self.tokens = self.tokens_max = self.readings = 0
        self.sentence_hist: Counter = Counter()
        self.seen = inp.SeenFilter()
        self.requests = self.repeats = 0

    def word(self, word: str, graded: bool) -> None:
        self.words += 1
        self.chars += len(word)
        self.chars_max = max(self.chars_max, len(word))
        self.graded += graded
        self.placeholders += sum(c in inp.PLACEHOLDERS for c in word)

    def sentence(self, sent: list) -> None:
        self.sentences += 1
        self.tokens += len(sent)
        self.tokens_max = max(self.tokens_max, len(sent))
        self.readings += sum(len(r) for _, r in sent)
        self.sentence_hist[_bucket(len(sent))] += 1

    def request(self, key: str) -> None:
        self.requests += 1
        self.repeats += self.seen.add(key)

    def summary(self) -> dict:
        out = {"distinct_request_share": 1 - self.repeats / self.requests}
        if self.words:
            out["word_chars_mean"] = self.chars / self.words
            out["word_chars_max"] = self.chars_max
            out["gradation_window_share"] = self.graded / self.words
            out["placeholder_char_share"] = self.placeholders / self.chars
        if self.sentences:
            out["sentence_tokens_mean"] = self.tokens / self.sentences
            out["sentence_tokens_max"] = self.tokens_max
            out["readings_per_token"] = self.readings / self.tokens
            out["sentence_length_histogram"] = dict(self.sentence_hist)
        return out


def _bucket(n: int) -> str:
    lo = 1
    for hi in (3, 5, 10, 20, 30, 300, 3000):
        if n <= hi:
            return f"{lo}-{hi}"
        lo = hi + 1
    return f">{lo - 1}"


class Workload:
    name = ""

    def __init__(self, seed: int, oracles) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.oracles = oracles
        self.stats = InputStats()

    def _expected_word(self, form: str, grade: str) -> str:
        self.stats.word(
            form, self.oracles.sentinel_gradate(form, GRADES[grade]) != form
        )
        return self.oracles.sentinel_pipeline(form, GRADES[grade])

    # Traced composition of the standard pipeline on one word; returns the
    # surface form. Span names are the layers the per-layer metrics read.
    def _composed_word(self, tr: Tracer, form: str, grade: str) -> str:
        n = len(form)
        tr.start("pipeline.composed")
        tr.start("zipper.from_sequence", n)
        wz = WriterZipper(EMPTY_DELETIONS, from_sequence(form, 0))
        tr.stop()
        tr.start("gradation.pass", n)
        graded = writer_extend(gradation_arrow(GRADES[grade]), wz)
        tr.stop()
        tr.start("vowels.harmony.pass", n)
        harm = writer_extend(lift_pure(harmony_arrow), graded)
        tr.stop()
        tr.start("vowels.possessive.pass", n)
        poss = writer_extend(lift_pure(possessive_arrow), harm)
        tr.stop()
        tr.start("writer.materialize", n)
        out = materialize(poss)
        tr.stop()
        tr.stop()
        before = to_sequence(wz.zipper)
        after = to_sequence(graded.zipper)
        fired = sum(a != b for a, b in zip(before, after)) + len(graded.log - wz.log)
        final = to_sequence(poss.zipper)
        tr.count("gradation.visited", n)
        tr.count("gradation.fired", fired)
        tr.count("writer.words")
        tr.count("writer.deletions", len(poss.log))
        tr.count(
            "vowels.placeholders_resolved",
            sum(c in inp.PLACEHOLDERS and o not in inp.PLACEHOLDERS for c, o in zip(before, final)),
        )
        return out

    def _composed_cg(self, tr: Tracer, sentence: list, rules: list, fires: Counter) -> list:
        n = len(sentence)
        tr.start("cg.composed")
        z = from_sequence(tuple(sentence), 0)
        for number, rule in enumerate(rules):
            tr.start("cg.rule_pass", n)
            nz = extend(z, lambda w, _rule=rule: apply_rule(w, _rule))
            tr.stop()
            changed = 0
            for old, new in zip(to_sequence(z), to_sequence(nz)):
                if old is not new and old != new:
                    changed += 1
                    tr.count("cg.readings_removed", len(old.readings) - len(new.readings))
            fires[number] += changed
            tr.count("cg.passes")
            tr.count("cg.useful_passes", changed > 0)
            z = nz
        tr.stop()
        tr.count("cg.tokens", n)
        return list(to_sequence(z))

    def _traced_parse_rules(self, tr: Tracer, text: str, repeats: int = 20) -> None:
        for _ in range(repeats):
            tr.begin_op()
            tr.start("cg.parse_rules")
            parse_rules(text)
            tr.stop()
            tr.end_op()


class Paradigms(Workload):
    """generate() over every case of fresh lemmas, plain and poss3."""

    name = "paradigms"
    BATCH_LEMMAS = 16

    def __init__(self, seed: int, oracles) -> None:
        super().__init__(seed, oracles)
        self.lemmas = inp.LemmaStream(self.rng)

    def _batch(self) -> list:
        batch = []
        for lemma, case, poss3 in inp.paradigm_requests(self.rng, self.lemmas.take(self.BATCH_LEMMAS)):
            form, grade = inp.underlying(lemma, case, poss3)
            self.stats.request(f"{lemma}|{case}|{poss3}")
            batch.append((lemma, CASE_ENUMS[case], poss3, form, grade, self._expected_word(form, grade)))
        gc.freeze()
        return batch

    def check_goldens(self, tally: Tally) -> None:
        for (lemma, case, poss3), surface in GOLDENS:
            out, _, _ = _call(generate, lemma, CASE_ENUMS[case], poss3)
            tally.check(
                out == surface,
                lambda: f"generate({lemma!r}, {inp.CASES[case][0]}, poss3={poss3}) -> {out!r}, golden {surface!r}",
            )

    def untraced(self, tally: Tally, deadline: float) -> None:
        self.check_goldens(tally)
        while clock() < deadline:
            tally.close_window()
            for lemma, case, poss3, form, grade, expected in self._batch():
                out, dt, sample = _call(generate, lemma, case, poss3)
                tally.op(dt, 1, sample=sample)
                tally.check(
                    out == expected,
                    lambda: f"generate({lemma!r}, {case.value}, poss3={poss3}) -> {out!r}, expected {expected!r}",
                )
                if clock() >= deadline:
                    return

    def traced(self, tr: Tracer, tally: Tally, deadline: float) -> None:
        while clock() < deadline:
            for lemma, case, poss3, form, grade, expected in self._batch():
                tr.begin_op()
                tr.start("op")
                tr.start("generator.generate", 1)
                out = generate(lemma, case, poss3)
                busy = tr.stop()
                tr.start("pipeline.run_pipeline", len(form))
                plain = run_pipeline(form, GRADES[grade])
                tr.stop()
                composed = self._composed_word(tr, form, grade)
                tr.stop()
                tr.end_op()
                tally.op(busy, 1)
                tally.check(
                    out == plain == composed == expected,
                    lambda: f"traced {lemma!r} {case.value} poss3={poss3}: generate {out!r}, "
                    f"run_pipeline {plain!r}, composed {composed!r}, expected {expected!r}",
                )
                if clock() >= deadline:
                    return


class LengthSweep(Workload):
    """run_pipeline and run_cg at three lengths, equal items per length."""

    name = "length_sweep"
    CHARS_PER_LENGTH = 6000
    TOKENS_PER_LENGTH = 3000
    # Latency is taken over the 3-token run_cg calls, a single kind of call
    # with 1000 samples a round; the longer lengths have too few calls in a
    # run for a p99 with 10 samples beyond it.
    LATENCY_LENGTH = min(inp.CG_LENGTHS)
    # Memory-bound share of each kind of call (see Tally.op), fitted on the
    # reference machine from how much each slows against the two kernels.
    # The long run_cg calls copy tuples of thousands of reading sets at
    # every position, so they slow like the memory kernel.
    MEMORY = {
        ("word", 10): 0.0,
        ("word", 100): 0.0,
        ("word", 1000): 0.2,
        ("sent", 3): 0.1,
        ("sent", 300): 0.3,
        ("sent", 3000): 1.0,
    }

    def __init__(self, seed: int, oracles) -> None:
        super().__init__(seed, oracles)
        self.vocab = inp.Vocabulary(self.rng)
        self.ref_rules = inp.SWEEP_RULES
        self.rules_text = inp.rules_text(self.ref_rules)
        self.rules = parse_rules(self.rules_text)

    def _round(self) -> list:
        """One round: every length gets the same budget, in shuffled order."""
        calls = []
        for length in inp.PIPELINE_LENGTHS:
            for _ in range(self.CHARS_PER_LENGTH // length):
                word = inp.chain_word(self.rng, length)
                grade = self.rng.choice(("weak", "strong"))
                self.stats.request(f"{word}|{grade}")
                calls.append(("word", length, word, grade, self._expected_word(word, grade)))
        for length in inp.CG_LENGTHS:
            for _ in range(self.TOKENS_PER_LENGTH // length):
                sent = inp.sentence(self.rng, self.vocab, length)
                self.stats.sentence(sent)
                self.stats.request(inp.sentence_tsv(sent))
                calls.append(("sent", length, _reading_sets(sent), None, cg_reference(sent, self.ref_rules)))
        self.rng.shuffle(calls)
        gc.freeze()
        return calls

    def _rounds(self, deadline: float):
        """Whole rounds only, so every length keeps its equal share.

        A new round starts only if the mean round so far still fits before
        the deadline; the first round always runs.
        """
        start = clock()
        rounds = 0
        while rounds == 0 or start + (clock() - start) / rounds * (rounds + 1) <= deadline:
            yield self._round()
            rounds += 1

    def untraced(self, tally: Tally, deadline: float) -> None:
        for calls in self._rounds(deadline):
            tally.close_window()
            for kind, length, arg, grade, expected in calls:
                if kind == "word":
                    out, dt, sample = _call(run_pipeline, arg, GRADES[grade])
                    ok = out == expected
                else:
                    out, dt, sample = _call(run_cg, arg, self.rules)
                    ok = not isinstance(out, Exception) and _sentence_keys(out) == expected
                tally.op(
                    dt,
                    length,
                    memory=self.MEMORY[kind, length],
                    sample=sample if kind == "sent" and length == self.LATENCY_LENGTH else None,
                )
                tally.check(ok, lambda: f"{kind} {arg!r}: got {out!r}")

    def traced(self, tr: Tracer, tally: Tally, deadline: float) -> None:
        self._traced_parse_rules(tr, self.rules_text)
        fires: Counter = Counter()
        for calls in self._rounds(deadline):
            for kind, length, arg, grade, expected in calls:
                tr.begin_op()
                tr.start("op")
                if kind == "word":
                    tr.start(f"pipeline.run_pipeline.len{length}", length)
                    plain = run_pipeline(arg, GRADES[grade])
                    busy = tr.stop()
                    composed = self._composed_word(tr, arg, grade)
                    tr.start(f"writer.writer_extend.len{length}", length)
                    writer_extend(IDENTITY_WRITER, WriterZipper(EMPTY_DELETIONS, from_sequence(arg, 0)))
                    tr.stop()
                    ok = plain == composed == expected
                else:
                    tr.start(f"cg.run_cg.len{length}", length)
                    plain = run_cg(arg, self.rules)
                    busy = tr.stop()
                    composed = self._composed_cg(tr, arg, self.rules, fires)
                    tr.start(f"zipper.extend.len{length}", length)
                    extend(from_sequence(tuple(arg), 0), extract)
                    tr.stop()
                    ok = plain == composed and _sentence_keys(plain) == expected
                tr.stop()
                tr.end_op()
                tally.op(busy, length, memory=self.MEMORY[kind, length])
                tally.check(ok, lambda: f"traced {kind} {arg!r} differs")
        tr.count("cg.rules", len(self.rules))
        tr.count("cg.rules_never_fired", sum(fires[i] == 0 for i in range(len(self.rules))))


class CgStream(Workload):
    """Streaming disambiguation: TSV text -> parse -> run_cg -> TSV text."""

    name = "cg_stream"
    BATCH = 256
    # Memory-bound share of a call (see Tally.op and LengthSweep.MEMORY).
    MEMORY = 0.2

    def __init__(self, seed: int, oracles) -> None:
        super().__init__(seed, oracles)
        self.vocab = inp.Vocabulary(self.rng)
        self.ref_rules = inp.random_rules(self.rng, self.vocab)
        self.rules_text = inp.rules_text(self.ref_rules)
        self.rules = parse_rules(self.rules_text)

    def _batch(self) -> list:
        batch = []
        for _ in range(self.BATCH):
            sent = inp.sentence(self.rng, self.vocab, self.rng.randint(3, 30))
            tsv = inp.sentence_tsv(sent)
            self.stats.sentence(sent)
            self.stats.request(tsv)
            expected = [
                (surface, keys)
                for (surface, _), keys in zip(sent, cg_reference(sent, self.ref_rules))
            ]
            batch.append((tsv, len(sent), expected))
        gc.freeze()
        return batch

    def _stream(self, tsv: str) -> str:
        return format_sentences([run_cg(s, self.rules) for s in parse_readings(tsv)])

    def untraced(self, tally: Tally, deadline: float) -> None:
        while clock() < deadline:
            tally.close_window()
            for tsv, n, expected in self._batch():
                out, dt, sample = _call(self._stream, tsv)
                tally.op(dt, n, memory=self.MEMORY, sample=sample)
                ok = not isinstance(out, Exception) and parse_tsv(out) == [expected]
                tally.check(ok, lambda: f"cg_stream on {tsv!r}: got {out!r}")
                if clock() >= deadline:
                    return

    def traced(self, tr: Tracer, tally: Tally, deadline: float) -> None:
        self._traced_parse_rules(tr, self.rules_text)
        fires: Counter = Counter()
        while clock() < deadline:
            for tsv, n, expected in self._batch():
                tr.begin_op()
                tr.start("op")
                tr.start("cg.parse_readings", n)
                sentences = parse_readings(tsv)
                busy = tr.stop()
                tr.start("cg.run_cg", n)
                plain = [run_cg(s, self.rules) for s in sentences]
                busy += tr.stop()
                composed = [self._composed_cg(tr, s, self.rules, fires) for s in sentences]
                tr.start("cg.format_sentences", n)
                out = format_sentences(plain)
                busy += tr.stop()
                tr.stop()
                tr.end_op()
                tally.op(busy, n, memory=self.MEMORY)
                tally.check(
                    plain == composed and parse_tsv(out) == [expected],
                    lambda: f"traced cg_stream on {tsv!r} differs",
                )
                if clock() >= deadline:
                    break
        tr.count("cg.rules", len(self.rules))
        tr.count("cg.rules_never_fired", sum(fires[i] == 0 for i in range(len(self.rules))))


WORKLOADS = {w.name: w for w in (Paradigms, LengthSweep, CgStream)}
