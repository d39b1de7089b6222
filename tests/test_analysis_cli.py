"""``repro check`` CLI tests: exit codes, output formats, lockdep-report
validation, and the real tree staying clean."""

import json
import textwrap
from pathlib import Path

from repro.analysis.cli import main

_REPO_SRC = Path(__file__).resolve().parent.parent / "src"

# The CLI always runs with DEFAULT_CONFIG, so fixture trees contain
# only code that is clean under it (plus the one deliberate violation).
_CLEAN_SRC = """
    def watch(buf):
        return buf
    """

_ROGUE_SRC = """
    def poke(buf):
        buf.head = 7
    """


def write_tree(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "proj"
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def test_violations_exit_one(tmp_path, capsys):
    root = write_tree(tmp_path, {"ok.py": _CLEAN_SRC, "rogue.py": _ROGUE_SRC})
    assert main(["--rule", "single-writer", str(root)]) == 1
    out = capsys.readouterr().out
    assert "single-writer" in out
    assert "1 finding(s)" in out


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = write_tree(tmp_path, {"ok.py": _CLEAN_SRC})
    assert main(["--rule", "single-writer", str(root)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_missing_path_is_usage_error(tmp_path):
    assert main([str(tmp_path / "nope")]) == 2


def test_unparseable_source_is_usage_error(tmp_path):
    root = write_tree(tmp_path, {"broken.py": "def broken(:\n"})
    assert main([str(root)]) == 2


def test_json_format(tmp_path, capsys):
    root = write_tree(tmp_path, {"ok.py": _CLEAN_SRC, "rogue.py": _ROGUE_SRC})
    assert main(["--rule", "single-writer", "--format", "json", str(root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert len(payload["findings"]) == 1
    finding = payload["findings"][0]
    assert finding["rule"] == "single-writer"
    assert finding["fingerprint"]
    assert set(payload) == {"findings", "suppressed", "ok"}


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "single-writer",
        "lock-order",
        "hot-path",
        "shm-lifecycle",
        "metrics-coherence",
        "annotations",
    ):
        assert name in out


def test_lockdep_report_validation(tmp_path, capsys):
    root = write_tree(tmp_path, {"ok.py": _CLEAN_SRC})
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"observed_edges": {}}))
    assert main(["--rule", "single-writer", "--lockdep-report", str(good), str(root)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"observed_edges": {"a -> b": 1}}))
    assert main(["--rule", "single-writer", "--lockdep-report", str(bad), str(root)]) == 1
    assert "undeclared edge: a -> b" in capsys.readouterr().out

    assert main(["--lockdep-report", str(tmp_path / "nope.json"), str(root)]) == 2


def test_check_subcommand_is_wired_into_repro_cli():
    from repro.cli import main as repro_main

    assert repro_main(["check", "--list-rules"]) == 0


def test_real_tree_is_clean(capsys):
    """The acceptance gate: ``repro check src/`` exits 0 on this repo."""
    assert main([str(_REPO_SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
