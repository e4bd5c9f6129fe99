"""Run one `holonet.cli verify` command with every layer traced.

    python perfbench/trace_child.py SPAN_FILE verify --entry all ...

The traced counterpart of `python -m holonet.cli verify ...`: it imports
holonet from the same source tree, wraps the layers, runs the command as
one op and writes the spans to SPAN_FILE when the command has finished.
"""

import sys
from pathlib import Path


def main():
    span_file, command, *argv = sys.argv[1:]
    if command != "verify":
        raise SystemExit(f"unsupported command {command!r}")
    import holonet
    import holonet.cli

    expected = Path(__file__).resolve().parent.parent / "src" / "holonet"
    if Path(holonet.__file__).resolve().parent != expected:
        raise SystemExit(f"holonet imported from {holonet.__file__}")

    import spans

    tracer = spans.Tracer()
    tracer.install()
    with tracer.op():
        code = holonet.cli.main_verify(argv)
    tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
