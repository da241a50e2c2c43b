"""One fresh-interpreter set-up: import the CLI, parse and validate inputs.

Usage: python3 bench/setup_probe.py FILE.obs [FILE.obs ...]

Prints one JSON object with the time of each step in seconds.  ``run.py``
starts this script several times per run and also times each whole start,
interpreter start-up and shutdown included.
"""

import json
import sys
import time

t0 = time.perf_counter()
import ibsest.cli  # noqa: E402,F401  (what `ibsest estimate` imports)
from ibsest.belief import validate_ibs  # noqa: E402
from ibsest.io import parse_observation_text  # noqa: E402

t1 = time.perf_counter()
sets = []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        sets.append(parse_observation_text(fh.read()))
t2 = time.perf_counter()
reports = [validate_ibs(obs) for s in sets for obs in s.observations]
t3 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "parse_s": t2 - t1,
    "validate_s": t3 - t2,
    "observations": len(reports),
    "valid": all(r.ok for r in reports),
}))
