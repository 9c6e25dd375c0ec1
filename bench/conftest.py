import sys
from pathlib import Path

# the benchmark runs the program from its source tree, as bench/run.py does
SOURCE = str(Path(__file__).resolve().parent.parent / "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)
