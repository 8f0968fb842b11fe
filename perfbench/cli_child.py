"""``oscint eval`` with spans on, for the traced cli-cold pass.

Runs ``oscint.cli.main`` on the given arguments exactly as the console
script does, with every public function wrapped by ``tracing.Tracer``,
then prints the spans as one ``PERFBENCH-SPANS <json>`` line on stderr.
"""

import json
import sys

import oscint
import oscint.cli
from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer().install(oscint)
    try:
        rc = oscint.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    arrays = {k: v.tolist() for k, v in tracer.arrays().items()}
    print("PERFBENCH-SPANS " + json.dumps({"names": tracer.names, "arrays": arrays}),
          file=sys.stderr)
    sys.exit(rc)
