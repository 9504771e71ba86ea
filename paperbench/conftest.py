"""Make the program under ``src/`` importable for the benchmark's own
tests (``python3 -m pytest paperbench``)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
