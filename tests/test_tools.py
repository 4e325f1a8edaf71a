"""The scripts under tools/ run on this checkout."""

import importlib.util
import shutil
from pathlib import Path

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
