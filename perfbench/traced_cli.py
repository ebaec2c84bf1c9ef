"""Run `fourfold.cli.main(argv)` with layer spans: traced_cli.py REPORT ARGV...

Times the package import, installs the span wrappers, runs the CLI exactly as
`python -m fourfold.cli ARGV...` would, and writes the span summary with the
import time and this process's traced wall time to REPORT as JSON.
"""

import sys
import time

START = time.perf_counter()


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    import fourfold.cli

    import_s = time.perf_counter() - START
    import json

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    cli_main = tracer.wrap("cli", "main", fourfold.cli.main)
    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout.flush()
        wall_s = time.perf_counter() - START
        summary = tracer.take()
        with open(report_path, "w") as fh:
            json.dump({"import_s": import_s, "wall_s": wall_s, "summary": summary}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
