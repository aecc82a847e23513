"""One traced CLI call: `python -X importtime clitrace.py PREFIX <cli args>`.

Wraps the package's layers, runs `polygroup.cli.main` on the arguments
and, when it returns, writes PREFIX.spans.json (every span) and
PREFIX.metrics.json (calls, self time and gauges per layer).
"""

import json
import sys

import tracing


def main():
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cli = sys.modules["polygroup.cli"]
    try:
        code = cli.main(argv)
    finally:
        tracer.write(prefix + ".spans.json")
        with open(prefix + ".metrics.json", "w") as fh:
            json.dump(tracer.layer_metrics(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
