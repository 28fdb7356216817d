"""One traced ``repro`` command: spans around the CLI import and around
every probed layer call, then the CLI's own ``main``.

Usage (from the checkout root; everything after ``--`` is the ``repro``
command line)::

    python3 perfbench/grid_child.py --run pass-1 --spans out.json \\
        --spill DIR -- --seed 7 grid --scale tiny ...

Untraced passes run ``python3 -m repro.cli ...`` itself instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.spans import SpanRecorder, install_probes  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run", required=True, help="run id stamped on every span")
    parser.add_argument("--spans", required=True, help="write the spans here at exit")
    parser.add_argument("--spill", required=True, help="directory for pool-worker span files")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    rec = SpanRecorder(run=args.run, spill_dir=Path(args.spill))
    with rec.span("cli.import"):
        import repro.cli
    with install_probes(rec), rec.span("cli.main"):
        code = repro.cli.main(argv)
    rec.collect_spilled()
    Path(args.spans).write_text(json.dumps(rec.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
