"""``python benchmarks/saberbench/run.py``: the benchmark by path.

Puts the package's parent on ``sys.path`` and hands over to
:func:`saberbench.cli.main`; arguments are those of ``python -m
saberbench``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from saberbench.cli import main

    sys.exit(main())
