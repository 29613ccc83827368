"""`python -m bsol.cli ARGS` with spans around the calls into each layer.

    PERFBENCH_SPANS=spans.json python3 perfbench/cli_traced.py ARGS

The spans are written to the file named by PERFBENCH_SPANS on exit.
"""

import os

import spans
from bsol import cli

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.main()
    finally:
        tracer.uninstall()
        spans.dump(tracer.spans, os.environ["PERFBENCH_SPANS"])
