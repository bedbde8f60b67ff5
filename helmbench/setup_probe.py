"""One set-up sample, run in a fresh interpreter by run.py.

Usage: setup_probe.py <src dir> <output dir>

Times ``import helmbound`` plus the first ``helmbound solve`` at the default
config (a = 1, b = 1.5, DtN even,1, 15x15), and prints one JSON line with
the seconds and the converged k.  The caller sets the BLAS thread count in
the environment.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

src, out = sys.argv[1], Path(sys.argv[2])
sys.path.insert(0, src)

from helmbound import cli  # noqa: E402

config = out / "config.json"
config.write_text(json.dumps({"output_dir": str(out)}))
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["--config", str(config), "solve"])
seconds = time.perf_counter() - START
k = json.loads((out / "solve_dtn_even.json").read_text()).get("converged_k") if rc == 0 else None
print(json.dumps({"seconds": seconds, "rc": rc, "k": k}))
