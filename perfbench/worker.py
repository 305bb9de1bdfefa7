"""Run one workload in this fresh process and print its result as one JSON line.

``run.py`` starts this script once per measured run, so that peak RSS and
set-up time belong to that workload alone. The BLAS thread pool is pinned
to one thread before numpy is imported.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-reps", type=int, required=True)
    args = parser.parse_args()

    import numpy as np
    import pcil

    if Path(pcil.__file__).resolve().parent != ROOT / "src" / "pcil":
        print(f"worker: imported pcil from {pcil.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.setup_reps, workdir)
    result["platform"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "blas_threads": BLAS_THREADS,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
