"""Run one comprelie command with span recording.

Usage: ``python cli_traced.py SPAN_FILE ARG...`` runs ``comprelie.cli.main``
on the arguments, like ``python -m comprelie.cli ARG...``, and writes the
spans of the call, with the import time of the package, to SPAN_FILE.
"""

import sys
from time import perf_counter

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import comprelie.cli

    import_s = perf_counter() - t0
    rec = spans.install()
    rec.meta["import_s"] = import_s
    rec.active = True
    try:
        code = comprelie.cli.main(argv)
    finally:
        rec.active = False
        sys.stdout.flush()
        rec.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
