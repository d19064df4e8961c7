from __future__ import annotations

import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest

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


def test_cg_selects_numeral(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text(RULES_NUM, encoding="utf-8")
    readings = tmp_path / "sentence.tsv"
    readings.write_text(READINGS_KUUSI, encoding="utf-8")
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
    assert out.count("ok") == 8


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


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
def test_bench_command_restores_cpu_affinity(capsys):
    before = os.sched_getaffinity(0)
    code, _, _ = run(capsys, "bench", "--iterations", "1")
    assert code == 0
    assert os.sched_getaffinity(0) == before


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
    done = subprocess.run(
        [sys.executable, "-m", module, "dump-patterns"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 11


def test_unknown_case_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "talo", "--case", "vocative"])
