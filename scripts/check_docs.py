"""Docs gate: referenced paths exist, fenced python blocks execute.

Documentation rots silently; this script makes it part of CI, over
README.md, docs/*.md and the verify skill.

**Paths.**  Every repo-relative path the text mentions — anything under
``benchmarks/``, ``docs/``, ``examples/``, ``scripts/``, ``src/`` or
``tests/`` (a ``::test`` suffix is ignored, a ``*`` is globbed), and
every root-level ``*.json`` named alone in an inline code span — must
exist, so deleting a file fails the gate until its mentions go too.
``<placeholders>`` and run outputs (``benchmarks/saberbench/out/``)
are skipped.  A root-level ``UPPERCASE.md`` named without a directory
must exist too, and for that one check ``src/**/*.py`` is scanned as
well — docstrings are where pointers to long-gone design notes linger.

**Blocks.**  Every ```python fenced block is **compiled** (syntax-checked),
and — unless the nearest non-blank line above the fence is the marker
``<!-- docs: no-run -->`` — **executed** in its own subprocess with
the repo's ``src/`` on ``PYTHONPATH`` and a scratch working directory.
A block must therefore be self-contained: imports included, no files
assumed on disk, finishing within the per-block timeout.

Mark a block no-run only when it is an intentional fragment (undefined
names, placeholder paths); fragments still fail the gate if they do
not parse.

Usage::

    python scripts/check_docs.py                 # gate README.md, docs/*.md, the skill
    python scripts/check_docs.py docs/api.md     # one file
    python scripts/check_docs.py --list          # show blocks and dispositions
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

#: marker on the nearest non-blank line above a fence: compile, don't run.
NO_RUN = "<!-- docs: no-run -->"


#: top-level directories whose mentions must resolve to a file or directory.
_PATH = re.compile(r"(?<![\w/.-])(?:benchmarks|docs|examples|scripts|src|tests)/[\w./*<>-]*")
#: a root-level JSON file named alone in an inline code span.
_ROOT_JSON = re.compile(r"`([\w.-]+\.json)`")
#: a root-level UPPERCASE.md named without a directory (README.md, CHANGES.md).
_ROOT_MD = re.compile(r"(?<![\w/.-])[A-Z][A-Z_]*\.md\b")
#: written by running the program, absent from a fresh checkout.
_GENERATED = ("benchmarks/saberbench/out/",)


def default_files() -> "list[Path]":
    skill = _ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    files = [_ROOT / "README.md"] + sorted((_ROOT / "docs").glob("*.md"))
    return files + ([skill] if skill.exists() else [])


def missing_paths(path: Path) -> "list[str]":
    """``file:line: path`` for every mentioned repo path that does not exist
    (in a ``.py`` file, only the root-level ``UPPERCASE.md`` names)."""
    patterns = (_ROOT_MD,) if path.suffix == ".py" else (_PATH, _ROOT_JSON, _ROOT_MD)
    missing = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        for mention in (m.rstrip(".") for p in patterns for m in p.findall(line)):
            if "<" in mention or mention.startswith(_GENERATED):
                continue
            if not glob.glob(str(_ROOT / mention)):
                missing.append(f"{path.relative_to(_ROOT)}:{number}: {mention}")
    return missing


def extract_blocks(path: Path) -> "list[dict]":
    """The ```python fenced blocks of one markdown file.

    Returns dicts with ``path``, ``line`` (1-based fence line),
    ``code`` and ``run`` (False when the no-run marker precedes the
    fence).
    """
    blocks = []
    lines = path.read_text(encoding="utf-8").splitlines()
    in_block = False
    fence_line = 0
    run = True
    code: "list[str]" = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_block and stripped.startswith("```python"):
            in_block = True
            fence_line = number
            code = []
            run = True
            for previous in reversed(lines[: number - 1]):
                if previous.strip():
                    run = NO_RUN not in previous
                    break
            continue
        if in_block and stripped == "```":
            in_block = False
            blocks.append(
                {
                    "path": path,
                    "line": fence_line,
                    "code": "\n".join(code) + "\n",
                    "run": run,
                }
            )
            continue
        if in_block:
            code.append(line)
    if in_block:
        raise SystemExit(f"{path}:{fence_line}: unterminated ```python fence")
    return blocks


def check_block(block: "dict", timeout: float) -> "str | None":
    """Compile (and unless marked no-run, execute) one block; returns
    an error description or None."""
    label = f"{block['path'].relative_to(_ROOT)}:{block['line']}"
    try:
        compile(block["code"], label, "exec")
    except SyntaxError as exc:
        return f"{label}: does not parse: {exc}"
    if not block["run"]:
        return None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryDirectory(prefix="check_docs_") as scratch:
        script = Path(scratch) / "block.py"
        script.write_text(block["code"], encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(script)],
                cwd=scratch,
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return f"{label}: timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        tail = "\n".join(
            (proc.stdout + proc.stderr).strip().splitlines()[-12:]
        )
        return f"{label}: exited {proc.returncode}\n{tail}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="markdown files to check (default: README.md, docs/*.md, the verify skill)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-block execution timeout in seconds (default 120)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list discovered blocks and their dispositions, don't run",
    )
    args = parser.parse_args(argv)

    files = [f.resolve() for f in args.files] or default_files()
    blocks = [b for f in files for b in extract_blocks(f)]
    if args.list:
        for block in blocks:
            label = f"{block['path'].relative_to(_ROOT)}:{block['line']}"
            mode = "run" if block["run"] else "compile-only"
            print(f"{label}  [{mode}]  ({len(block['code'].splitlines())} lines)")
        return 0

    sources = [] if args.files else sorted((_ROOT / "src").rglob("*.py"))
    missing = [m for f in files + sources for m in missing_paths(f)]
    if missing:
        print(f"DOCS GATE FAILED ({len(missing)} missing path(s)):", file=sys.stderr)
        for entry in missing:
            print(f"- {entry}", file=sys.stderr)
        return 1

    failures = []
    for block in blocks:
        label = f"{block['path'].relative_to(_ROOT)}:{block['line']}"
        error = check_block(block, args.timeout)
        if error is None:
            mode = "ok" if block["run"] else "compiled"
            print(f"  {mode:>8}  {label}")
        else:
            print(f"  FAIL      {label}")
            failures.append(error)
    if failures:
        print(f"\nDOCS GATE FAILED ({len(failures)} block(s)):", file=sys.stderr)
        for failure in failures:
            print(f"- {failure}", file=sys.stderr)
        return 1
    ran = sum(1 for b in blocks if b["run"])
    print(
        f"docs gate passed: every mentioned path exists; {len(blocks)} python blocks "
        f"across {len(files)} files ({ran} executed, {len(blocks) - ran} compile-only)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
