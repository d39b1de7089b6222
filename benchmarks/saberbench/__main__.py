"""``python -m saberbench`` (run from the ``benchmarks`` directory)."""

import sys

from .cli import main

sys.exit(main())
