"""One fresh braidcount process of the benchmark, with speed samples.

Usage: python3 bench/child.py import|plain|traced [braidcount arguments]

``import`` imports the package and exits; ``plain`` runs one command line
as ``python3 -m braidcount.cli`` would; ``traced`` does the same with
every traced function wrapped in a span.  Stdout and the exit code are
those of the command.  The last stderr line starts with ``speed.MARK``
and holds the imported package file, the kernel samples taken while the
process ran and, when traced, the span report.
"""

import json
import sys

import speed

sampler = speed.Sampler()
sampler.start()
mode, argv = sys.argv[1], sys.argv[2:]
report = {}
code = 0
try:
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    import braidcount

    if mode != "import":
        from braidcount import cli

        if mode == "traced":
            tracer.active = True
        try:
            code = cli.main(argv)
        finally:
            if mode == "traced":
                tracer.active = False
                report.update(tracer.report())
finally:
    package = sys.modules.get("braidcount")
    report.update(file=getattr(package, "__file__", None), samples=sampler.stop())
    sys.stdout.flush()
    print(speed.MARK + json.dumps(report), file=sys.stderr)
sys.exit(code)
