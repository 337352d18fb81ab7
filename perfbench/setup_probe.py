"""Set-up cost of a fresh process: import ``svbraid`` and ``svbraid.cli``,
then build the relation catalog and rewrite table for each strand count.

Usage: ``python3 perfbench/setup_probe.py ROOT N [N ...]``; prints seconds.
Interpreter start-up is not counted.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
src = Path(sys.argv[1]) / "src"
sys.path.insert(0, str(src))
import svbraid  # noqa: E402
import svbraid.cli  # noqa: E402,F401
from svbraid import words  # noqa: E402

if not Path(svbraid.__file__).resolve().is_relative_to(src.resolve()):
    sys.exit(f"svbraid imported from {svbraid.__file__}, not from {src}")
for n in map(int, sys.argv[2:]):
    words.relation_catalog(n)
    words._rewrite_rules(n)
print(time.perf_counter() - start)
