import sys
from pathlib import Path

# the micro-benchmarks run the package from this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
