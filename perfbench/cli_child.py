"""One ``beyondcr`` CLI call with the benchmark's spans recorded.

Traced cli-calls runs start this script in place of
``python -m beyondcr.cli``.  It times the import as a ``cli.import`` span,
installs the tracer, runs the call exactly as ``beyondcr.cli.main`` would,
and writes the spans as JSON to the file named by ``PERFBENCH_SPANS``.
"""

import json
import os
import sys
from time import perf_counter

from spans import Tracer

tracer = Tracer()
tracer.item = None
with tracer.span("cli.import"):
    import beyondcr.cli
tracer.install()
try:
    code = beyondcr.cli.run(sys.argv[1:])
finally:
    sys.stdout.flush()
    tracer.uninstall()
    with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)
sys.exit(code)
