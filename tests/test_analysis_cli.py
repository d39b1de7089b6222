"""``repro check`` CLI tests: exit codes, the rule list, lockdep-report
validation, the real tree staying clean, and every rule catching a bug
seeded into a copy of the real tree."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main

_REPO = Path(__file__).resolve().parent.parent
_REPO_SRC = _REPO / "src"

#: The whole rule set, in the order ``--list-rules`` prints it.
_RULE_NAMES = [
    "single-writer",
    "lock-order",
    "shm-lifecycle",
    "metrics-coherence",
    "annotations",
]

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


def _listed_rules(out: str) -> list:
    return [line.partition(":")[0] for line in out.splitlines()]


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    assert _listed_rules(capsys.readouterr().out) == _RULE_NAMES


def test_list_rules_from_a_fresh_interpreter():
    """No import done earlier in the test session may be what puts a
    rule on the list: ask a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(_REPO_SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--list-rules"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert _listed_rules(proc.stdout) == _RULE_NAMES


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


# -- every rule catches a bug seeded into a copy of the real tree ---------------

_MEASUREMENTS_SEED = """\
    def _seeded_peek(self, buffer: CircularTupleBuffer) -> None:
        with self._lock:
            buffer.read(0, 0)

    def record_latency("""

#: id -> (rule that must fire, file in the copy, [(old, new), ...]); an
#: empty ``old`` appends ``new`` to the file.
_SEEDED_BUGS = {
    "single-writer": (
        "single-writer",
        "src/repro/core/engine.py",
        [("", "\n\ndef _seeded_rewind(run):\n    run.dispatcher.buffers[0].head = 0\n")],
    ),
    "lock-order-raw-lock": (
        "lock-order",
        "src/repro/core/scheduler.py",
        [
            (
                "",
                "\n\nclass _SeededGuard:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n",
            )
        ],
    ),
    "lock-order-ranking": (
        "lock-order",
        "src/repro/metrics/measurements.py",
        [
            ("    def record_latency(", _MEASUREMENTS_SEED),
            ("", "\nfrom ..relational.buffer import CircularTupleBuffer\n"),
        ],
    ),
    "shm-lifecycle": (
        "shm-lifecycle",
        "src/repro/relational/buffer.py",
        [
            (
                "",
                "\n\ndef _seeded_probe():\n"
                "    segment = shared_memory.SharedMemory(create=True, size=8)\n"
                "    return segment.size\n",
            )
        ],
    ),
    "metrics-coherence": (
        "metrics-coherence",
        "docs/operations.md",
        [("saber_tasks_completed_total", "saber_tasks_finished_total")],
    ),
    "annotations": (
        "annotations",
        "src/repro/serve/protocol.py",
        [
            (
                'def encode_frame(frame: "dict[str, Any]") -> bytes:',
                'def encode_frame(frame: "dict[str, Any]"):',
            )
        ],
    ),
}


@pytest.fixture
def tree_copy(tmp_path):
    """A copy of the real ``src/repro`` and ``docs/``, laid out like the
    repo so the check finds the docs on its own."""
    shutil.copytree(
        _REPO_SRC / "repro",
        tmp_path / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copytree(_REPO / "docs", tmp_path / "docs")
    return tmp_path


def _finding_rules(out: str) -> set:
    """The rule of every finding line ``path:line: rule: ...``."""
    return {
        line.split(": ")[1]
        for line in out.splitlines()
        if not line.startswith("repro check:")
    }


def test_unseeded_copy_is_clean(tree_copy, capsys):
    assert main([str(tree_copy / "src")]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize("bug", sorted(_SEEDED_BUGS))
def test_seeded_bug_fires_its_rule_only(tree_copy, capsys, bug):
    rule, rel, edits = _SEEDED_BUGS[bug]
    target = tree_copy / rel
    text = target.read_text(encoding="utf-8")
    for old, new in edits:
        if old:
            assert old in text, f"seed anchor {old!r} is gone from {rel}"
            text = text.replace(old, new)
        else:
            text += new
    target.write_text(text, encoding="utf-8")
    assert main([str(tree_copy / "src")]) == 1
    assert _finding_rules(capsys.readouterr().out) == {rule}
