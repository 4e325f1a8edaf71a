"""The scripts under tools/ run on this checkout."""

import importlib.util
import shutil
import subprocess
import sys
import types
from pathlib import Path

import agcodec
from agcodec import Code, Curve

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        f"tool_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_abdecode_agrees_with_itself(capsys):
    abdecode = load_tool("abdecode")
    args = [str(ROOT), str(ROOT), "--q", "2", "--u", "3", "--weights",
            "0,1", "--words", "3", "--rounds", "2"]
    assert abdecode.main(args) == 0
    out = capsys.readouterr().out
    assert "agree: messages, statuses, distances and vote records" in out
    assert "B wins" in out


def test_abdecode_draws_fresh_words_every_round(monkeypatch, capsys):
    # each round decodes its own seeded word set, drawn from the seed and
    # the round number, and both sides agree on every word of every round
    abdecode = load_tool("abdecode")
    code = Code(Curve.hermitian(2), 3)
    assert abdecode.words(agcodec, code, [1], 3, "1:0") == \
        abdecode.words(agcodec, code, [1], 3, "1:0")
    assert abdecode.words(agcodec, code, [1], 3, "1:0") != \
        abdecode.words(agcodec, code, [1], 3, "1:1")
    seeds, plain_words = [], abdecode.words

    def words(pkg, code, weights, count, seed):
        seeds.append(seed)
        return plain_words(pkg, code, weights, count, seed)

    monkeypatch.setattr(abdecode, "words", words)
    args = [str(ROOT), str(ROOT), "--q", "2", "--u", "3", "--weights",
            "0,1", "--words", "2", "--rounds", "3", "--seed", "7"]
    assert abdecode.main(args) == 0
    assert seeds == ["7:0", "7:1", "7:2"]
    out = capsys.readouterr().out
    assert "2 fresh words a round" in out and "memos kept" in out
    assert "vote records, on all 6 words" in out


def test_abdecode_cold_empties_the_memos_before_every_decode(capsys):
    # --cold finds the plan, tally and G-staircase memos of a package and
    # empties them before each decode, outside its time; a package without
    # them has nothing to empty
    abdecode = load_tool("abdecode")
    code = Code(Curve.hermitian(3), 16)
    v = list(code.encode([code.field.one] * code.k))
    for pos in (1, 5, 9):  # errors, so that the G footprint grows
        v[pos] += code.field.one
    agcodec.decode(code, v)
    assert agcodec.decoder._PLANS and agcodec.curvering._TALLIES
    clears = abdecode.memos(agcodec)
    assert len(clears) == 3
    for clear in clears:
        clear()
    assert not agcodec.decoder._PLANS and not agcodec.curvering._TALLIES
    assert agcodec.decoder._g_staircase.cache_info().currsize == 0
    bare = types.SimpleNamespace(decoder=types.SimpleNamespace(),
                                 curvering=types.SimpleNamespace())
    assert abdecode.memos(bare) == []

    calls = []
    stub = types.SimpleNamespace(
        decode=lambda code, v: calls.append(("decode", v)) or v)
    ms, results = abdecode.batch_ms(stub, None, [1, 2],
                                    [lambda: calls.append("clear")])
    assert results == [1, 2] and ms >= 0
    assert calls == ["clear", ("decode", 1), "clear", ("decode", 2)]

    args = [str(ROOT), str(ROOT), "--q", "2", "--u", "3", "--weights",
            "0,1", "--words", "2", "--rounds", "2", "--cold"]
    assert abdecode.main(args) == 0
    out = capsys.readouterr().out
    assert "memos emptied before every decode" in out
    assert "vote records, on all 4 words" in out


def test_abdecode_reports_a_disagreement(tmp_path, capsys):
    # a copy whose decoder names the ok status differently disagrees on
    # the first word
    shutil.copytree(ROOT / "src" / "agcodec", tmp_path / "src" / "agcodec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    decoder = tmp_path / "src" / "agcodec" / "decoder.py"
    text = decoder.read_text(encoding="utf-8")
    decoder.write_text(text.replace('STATUS_OK = "ok"', 'STATUS_OK = "OK"'),
                       encoding="utf-8")
    abdecode = load_tool("abdecode")
    args = [str(ROOT), str(tmp_path), "--q", "2", "--u", "3", "--weights",
            "0", "--words", "1", "--rounds", "1"]
    assert abdecode.main(args) == 1
    assert "word 0: the decodes disagree" in capsys.readouterr().out


def test_uncovered_lists_the_lines_one_module_leaves_unrun():
    # README's decode is within the radius, so it never reaches the
    # low-confidence status, but it votes; the tool runs in its own
    # process, so the package is imported under its trace
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "uncovered.py"),
         "tests/test_readme.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    decoder = [line for line in lines
               if line.startswith("src/agcodec/decoder.py:")]
    assert any(line.endswith(": status = STATUS_LOW_CONFIDENCE")
               for line in decoder)
    assert not any(line.endswith(": record = vote(code, s, state)")
                   for line in decoder)
    assert lines[-1].endswith("executable lines of src/agcodec ran in no "
                              "test")
    # the slowdown probe, which the trace would fail, is deselected
    assert lines[0] == (
        "deselected perfbench/tests/test_perfbench.py::"
        "test_reference_speed_keeps_a_library_slowdown: the trace swamps "
        "the slowdown it times; name it to run it")
