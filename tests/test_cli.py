from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import tracemalloc
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from comorph import cli, laws
from comorph.cg import ReadingsFormatError, parse_readings
from comorph.cli import main

RULES_NUM = "SELECT POS=num IF (+1 POS=noun)\n"
READINGS_KUUSI = "kuusi\tnum:kuusi;noun:kuusi\nkoiraa\tnoun:koira\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def nfd(text: str) -> str:
    return unicodedata.normalize("NFD", text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grad_weak(capsys):
    code, out, _ = run(capsys, "grad", "--grade", "weak", "kaappi")
    assert (code, out.strip()) == (0, "kaapi")


def test_grad_strong(capsys):
    code, out, _ = run(capsys, "grad", "--grade", "strong", "kamma")
    assert (code, out.strip()) == (0, "kampa")


def test_grad_no_pattern(capsys):
    code, out, _ = run(capsys, "grad", "--grade", "weak", "xyz")
    assert (code, out.strip()) == (0, "xyz")


def test_grad_trace_three_rows(capsys):
    code, out, _ = run(capsys, "grad", "--grade", "weak", "--trace", "kaappi")
    assert code == 0
    assert out.splitlines() == [
        "input\tkaappi\t",
        "gradation\tkaappi\t4",
        "materialize\tkaapi\t",
    ]


def test_grad_empty_word_fails(capsys):
    code, _, err = run(capsys, "grad", "--grade", "weak", "")
    assert code == 1
    assert "error" in err


def test_harmony(capsys):
    code, out, _ = run(capsys, "harmony", "talossA")
    assert (code, out.strip()) == (0, "talossa")


def test_harmony_normalizes_decomposed_input(capsys):
    code, out, _ = run(capsys, "harmony", nfd("kynässA"))
    assert (code, out.strip()) == (0, "kynässä")


def test_harmony_resolves_the_copy_placeholder(capsys):
    assert run(capsys, "harmony", "talossAVn") == (0, "talossaan\n", "")


def test_harmony_refuses_a_copy_placeholder_with_no_vowel_to_its_left(capsys):
    message = "error: copy placeholder V at position 1 has no vowel to its left\n"
    assert run(capsys, "harmony", "gV") == (1, "", message)


def test_pipeline(capsys):
    code, out, _ = run(capsys, "pipeline", "--grade", "weak", "kampAstAVn")
    assert (code, out.strip()) == (0, "kammastaan")


def test_pipeline_single_letter(capsys):
    code, out, _ = run(capsys, "pipeline", "--grade", "weak", "a")
    assert (code, out.strip()) == (0, "a")


def test_pipeline_unresolvable_copy_placeholder_fails(capsys):
    code, out, err = run(capsys, "pipeline", "--grade", "weak", "ptpttV")
    assert (code, out) == (1, "")
    assert "error: copy placeholder V at position 5 has no vowel to its left" in err


def test_pipeline_non_letter_fails(capsys):
    code, out, err = run(capsys, "pipeline", "--grade", "weak", "kaa1ppi")
    assert (code, out) == (1, "")
    assert err == "error: character '1' at position 3 is not a letter\n"


UPPER_K = "error: character 'K' at position 0 is upper-case and not a placeholder\n"


def test_pipeline_upper_case_word_fails(capsys):
    assert run(capsys, "pipeline", "KAAPPI", "--grade", "weak") == (1, "", UPPER_K)


def test_generate_upper_case_lemma_fails(capsys):
    assert run(capsys, "generate", "Kala", "--case", "inessive") == (1, "", UPPER_K)


def test_generate_placeholder_in_lemma_fails(capsys):
    message = "error: character 'A' at position 0 of a lemma is a placeholder\n"
    assert run(capsys, "generate", "Auto", "--case", "inessive") == (1, "", message)


def test_generate(capsys):
    code, out, _ = run(capsys, "generate", "kaappi", "--case", "genitive")
    assert (code, out.strip()) == (0, "kaapin")


def test_generate_with_possessive(capsys):
    code, out, _ = run(capsys, "generate", "kampa", "--case", "elative", "--poss3")
    assert (code, out.strip()) == (0, "kammastaan")


def test_generate_nominative(capsys):
    code, out, _ = run(capsys, "generate", "talo", "--case", "nominative")
    assert (code, out.strip()) == (0, "talo")


def test_generate_bad_stem_fails(capsys):
    code, _, err = run(capsys, "generate", "kaunis", "--case", "genitive")
    assert code == 1
    assert "unsupported stem" in err


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])  # with a BOM too
def test_cg_selects_numeral(tmp_path, capsys, encoding):
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding=encoding)
    readings = tmp_path / "sentence.tsv"
    readings.write_text(READINGS_KUUSI, encoding=encoding)
    code, out, _ = run(capsys, "cg", str(rules), str(readings))
    assert code == 0
    assert out.splitlines() == ["kuusi\tnum:kuusi", "koiraa\tnoun:koira"]


def test_cg_selects_verb_after_negation(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("SELECT teonsana IF (-1 BASEFORM=ei)\n", encoding="utf-8")
    readings = tmp_path / "sentence.tsv"
    readings.write_text("ei\tverb:ei\nvoi\tnoun:voi;verb:voida\n", encoding="utf-8")
    code, out, _ = run(capsys, "cg", str(rules), str(readings))
    assert code == 0
    assert out.splitlines()[1] == "voi\tverb:voida"


def test_cg_empty_rules_echoes_input(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# nothing here\n", encoding="utf-8")
    readings = tmp_path / "sentence.tsv"
    readings.write_text(READINGS_KUUSI, encoding="utf-8")
    code, out, _ = run(capsys, "cg", str(rules), str(readings))
    assert code == 0
    assert out.splitlines() == ["kuusi\tnoun:kuusi;num:kuusi", "koiraa\tnoun:koira"]


def test_cg_trace_reports_firings(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings = tmp_path / "sentence.tsv"
    readings.write_text(READINGS_KUUSI, encoding="utf-8")
    code, _, err = run(capsys, "cg", "--trace", str(rules), str(readings))
    assert code == 0
    assert "rule 1 fired at token 1: noun:kuusi;num:kuusi → num:kuusi" in err


def test_cg_malformed_later_line_prints_nothing(tmp_path, capsys):
    """A sentence that parses and fires comes before the bad line, yet stdout
    stays empty and no trace line is printed: output is all or nothing."""
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings = tmp_path / "sentences.tsv"
    readings.write_text(READINGS_KUUSI + "\nkoira\tnoun\n", encoding="utf-8")
    code, out, err = run(capsys, "cg", "--trace", str(rules), str(readings))
    assert (code, out) == (1, "")
    assert err == (
        "error: line 4: malformed reading 'noun' "
        "(expected pos:baseform or pos:baseform:feat,feat)\n"
    )


MALFORMED_NOUN = "malformed reading 'noun' (expected pos:baseform or pos:baseform:feat,feat)"


def test_cg_numbers_lines_as_splitlines_does(tmp_path, capsys):
    """Every line break str.splitlines knows ends a line, after a BOM and in NFD text."""
    text = (
        "kuusi\tnum:kuusi;noun:kuusi\r\n"
        "koiraa\tnoun:koira\x0b\x1c"
        + nfd("pöytä\tnoun:pöytä\u2028\r\n")
        + "koira\tnoun\n"
    )
    line_no = text.splitlines().index("koira\tnoun") + 1
    assert line_no == 6
    with pytest.raises(ReadingsFormatError, match=f"^line {line_no}: {re.escape(MALFORMED_NOUN)}$"):
        parse_readings(text)
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings = tmp_path / "sentences.tsv"
    readings.write_bytes(text.encode("utf-8-sig"))
    code, out, err = run(capsys, "cg", str(rules), str(readings))
    assert (code, out, err) == (1, "", f"error: line {line_no}: {MALFORMED_NOUN}\n")


def _bad_byte_file(tmp_path, head: str, offset: int) -> tuple[Path, str]:
    """A readings file holding 0xff at ``offset`` after ``head``, and the error one
    decode of the whole file gives."""
    data = (head + READINGS_KUUSI * (offset // len(READINGS_KUUSI) + 1)).encode()
    data = data[:offset] + b"\xff" + data[offset:]
    readings = tmp_path / "sentences.tsv"
    readings.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as raised:
        data.decode("utf-8")
    assert raised.value.start == offset
    return readings, f"error: {raised.value}\n"


@pytest.mark.parametrize("head", ["", "koira\tnoun\n"])  # a malformed line before it too
def test_cg_bad_byte_past_the_first_chunk_names_its_file_offset(tmp_path, capsys, head):
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings, expected = _bad_byte_file(tmp_path, head, 20011)
    code, out, err = run(capsys, "cg", "--trace", str(rules), str(readings))
    assert (code, out, err) == (1, "", expected)
    assert "position 20011" in err


def _open_readings_as(monkeypatch, path, make):
    """Open ``path`` as ``make(binary file, encoding)`` inside comorph.cli."""

    def fake_open(file, *args, **kwargs):
        if file == str(path):
            return make(open(file, "rb"), kwargs["encoding"])
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)


class ReadRefused(Exception):
    pass


class NoReadFile(io.TextIOWrapper):
    def read(self, size=-1):
        raise ReadRefused("read() on the readings file")


def test_cg_never_reads_the_readings_file_whole(tmp_path, capsys, monkeypatch):
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings = tmp_path / "sentences.tsv"
    readings.write_text(READINGS_KUUSI + "\n" + READINGS_KUUSI, encoding="utf-8")
    _open_readings_as(monkeypatch, readings, lambda raw, enc: NoReadFile(raw, encoding=enc))
    code, out, _ = run(capsys, "cg", str(rules), str(readings))
    selected = "kuusi\tnum:kuusi\nkoiraa\tnoun:koira\n"
    assert (code, out) == (0, selected + "\n" + selected)


class Unseekable(io.BufferedReader):
    def seekable(self):
        return False


def test_cg_reports_a_malformed_line_of_an_unseekable_input(tmp_path, capsys, monkeypatch):
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings = tmp_path / "sentences.tsv"
    readings.write_text(READINGS_KUUSI + "\nkoira\tnoun\n", encoding="utf-8")
    _open_readings_as(
        monkeypatch, readings, lambda raw, enc: io.TextIOWrapper(Unseekable(raw), encoding=enc)
    )
    code, out, err = run(capsys, "cg", str(rules), str(readings))
    assert (code, out, err) == (1, "", f"error: line 4: {MALFORMED_NOUN}\n")


@pytest.mark.parametrize("head", ["", "koira\tnoun\n"])  # a malformed line before it too
def test_cg_bad_byte_in_an_unseekable_input_names_its_offset(tmp_path, capsys, monkeypatch, head):
    """A pipe is parsed from a copy, so a bad byte is reported as in a file."""
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings, expected = _bad_byte_file(tmp_path, head, 20011)
    _open_readings_as(
        monkeypatch, readings, lambda raw, enc: io.TextIOWrapper(Unseekable(raw), encoding=enc)
    )
    code, out, err = run(capsys, "cg", "--trace", str(rules), str(readings))
    assert (code, out, err) == (1, "", expected)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_cg_reads_a_pipe_as_it_reads_a_file(tmp_path):
    """Through /dev/stdin on a pipe: a file's output and trace, and a bad byte
    reported at its offset in the input."""
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    bad, expected = _bad_byte_file(tmp_path, "", 20011)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def cg(data: bytes, *argv):
        done = subprocess.run(
            [sys.executable, "-m", "comorph", "cg", *argv, str(rules), "/dev/stdin"],
            input=data,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    sentences = (READINGS_KUUSI + "\n") * 3000
    selected = "kuusi\tnum:kuusi\nkoiraa\tnoun:koira\n"
    fired = "rule 1 fired at token 1: noun:kuusi;num:kuusi → num:kuusi\n"
    assert cg(sentences.encode(), "--trace") == (0, "\n".join([selected] * 3000), fired * 3000)
    assert cg(bad.read_bytes()) == (1, "", expected)


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["output", "trace"])
def test_cg_memory_does_not_grow_with_the_input(tmp_path, flags):
    """Output and trace wait in temporary files, so the peak on 4N sentences is the
    peak on N. The sentences are long, so that both runs copy out several chunks."""
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    long = "kuusi" * 200
    sentence = f"{long}\tnum:{long};noun:{long}\nkoiraa\tnoun:koira\n"

    def peak(n: int) -> int:
        readings = tmp_path / "sentences.tsv"
        readings.write_text("\n".join([sentence] * n), encoding="utf-8")
        with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(null):
            tracemalloc.start()
            try:
                assert main(["cg", *flags, str(rules), str(readings)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(1)  # imports what the command imports outside the measured runs
    assert peak(1000) - peak(250) < 256 * 1024


def test_cg_matches_a_decomposed_rule_file(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text(nfd("SELECT POS=noun IF (+1 BASEFORM=kenkä)\n"), encoding="utf-8")
    readings = tmp_path / "sentence.tsv"
    readings.write_text("kuusi\tnum:kuusi;noun:kuusi\nkenkää\tnoun:kenkä\n", encoding="utf-8")
    code, out, _ = run(capsys, "cg", str(rules), str(readings))
    assert code == 0
    assert out.splitlines()[0] == "kuusi\tnoun:kuusi"


def test_cg_bad_rule_file_fails(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("FROB POS=x\n", encoding="utf-8")
    readings = tmp_path / "sentence.tsv"
    readings.write_text(READINGS_KUUSI, encoding="utf-8")
    code, _, err = run(capsys, "cg", str(rules), str(readings))
    assert code == 1
    assert "line 1" in err


def test_laws_command(capsys):
    code, out, _ = run(capsys, "laws", "--seed", "5", "--cases", "60")
    assert code == 0
    assert out.count("ok") == 9


def test_laws_command_reports_failures_shrunk_and_capped(monkeypatch, capsys):
    """A failing suite reports at most MAX_REPORTED counterexamples, each shrunk."""
    monkeypatch.setattr(laws, "SUITES", (("short-words", lambda case: len(case[0]) < 3),))
    [report] = laws.run_all(seed=0, cases=60)
    assert not report.passed
    assert len(report.counterexamples) == laws.MAX_REPORTED == 5
    assert all(example.startswith("word='aaa'") for example in report.counterexamples)
    code, out, _ = run(capsys, "laws", "--cases", "60")
    assert code == 1
    assert out.splitlines() == ["FAIL short-words:", *(f"     {e}" for e in report.counterexamples)]


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_laws_command_rejects_a_count_below_one(capsys, cases):
    code, out, err = run(capsys, "laws", "--cases", cases)
    assert code == 1
    assert out == ""
    assert f"error: cases must be at least 1, got {cases}" in err


def test_bench_command_rejects_zero_iterations(capsys):
    code, out, err = run(capsys, "bench", "--iterations", "0")
    assert code == 1
    assert "error: iterations must be at least 1, got 0" in err


def test_bench_command_prints_all_rows(capsys):
    code, out, _ = run(capsys, "bench", "--iterations", "3")
    assert code == 0
    for label in ("gradation", "harmony", "possessive", "full pipeline", "single CG rule", "full CG"):
        assert label in out


def test_bench_command_sets_no_cpu_affinity(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: calls.append(args), raising=False)
    code, _, _ = run(capsys, "bench", "--iterations", "1")
    assert code == 0
    assert calls == []


def test_dump_patterns(capsys):
    code, out, _ = run(capsys, "dump-patterns")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0] == "1\tpp\tp\tquantitative\tkaappi→kaapi"
    assert lines[5] == "6\tk\t∅\tqualitative-single\tpuku→puu"


@pytest.mark.parametrize("module", ["comorph", "comorph.cli"])
def test_python_dash_m_runs_the_cli(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def cli(*argv):
        done = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    assert len(cli("dump-patterns")) == 11
    lines = cli("laws", "--cases", "9")
    assert len(lines) == 9
    assert all(line.startswith("ok ") for line in lines)


def test_unknown_case_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "talo", "--case", "vocative"])
