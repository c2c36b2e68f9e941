"""Run ``tisp.cli.main`` under the outside-in tracer and save the summary.

    python cli_child.py SUMMARY_JSON tisp-arguments...

The traced ``cli-solve`` pass starts this in place of ``python -m tisp.cli``
so that the layers inside the CLI process are traced too.  Exits with the
CLI's own status.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tisp.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    with Tracer() as tracer:
        code = tisp.cli.main(argv)
    with open(out, "w") as f:
        json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
