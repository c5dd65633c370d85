"""Command-line interface: run XQuery from a shell.

    python -m repro 'for $b in //book return $b/title' -i bib.xml
    python -m repro -q query.xq --var max=30 -i bib.xml
    echo '<a><b/></a>' | python -m repro 'count(//b)'
    python -m repro --explain '/bib/book/title' -i bib.xml
    python -m repro serve --port 8820 --processes 4

Documents for ``fn:doc`` resolve against the filesystem relative to the
working directory.  ``serve`` starts the multi-tenant HTTP service
(:mod:`repro.server`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine import Engine
from repro.options import ExecutionOptions
from repro.runtime.memo import LRUCache

#: process-wide compile cache shared by every ``main()`` call: drivers
#: that invoke the CLI repeatedly in-process (tests, notebooks, the
#: broker demo) recompile repeated queries for free.  Keys include the
#: options fingerprint (``--no-optimize``), so sharing is safe.
_COMPILE_CACHE = LRUCache(128)


def build_parser() -> argparse.ArgumentParser:
    """The argparse definition for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run an XQuery over XML input (streaming XQuery engine).")
    parser.add_argument("query", nargs="?",
                        help="the query text (or use -q/--query-file)")
    parser.add_argument("-q", "--query-file", type=Path,
                        help="read the query from a file")
    parser.add_argument("-i", "--input", type=Path,
                        help="XML file bound to the context item "
                             "(default: stdin if piped)")
    parser.add_argument("--var", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="bind an external variable; VALUE is parsed as "
                             "int/float/bool when possible, XML when it "
                             "starts with '<', else string; @file.xml reads "
                             "and parses a file")
    parser.add_argument("--explain", action="store_true",
                        help="print the optimized plan and the generated "
                             "Python instead of running "
                             "(with --profile: run, then print the plan "
                             "annotated with per-operator metrics)")
    parser.add_argument("--profile", action="store_true",
                        help="run with the profiler attached; the result "
                             "goes to stdout and the EXPLAIN ANALYZE JSON "
                             "dump to stderr")
    parser.add_argument("--no-optimize", action="store_true",
                        help="disable the rewrite engine")
    parser.add_argument("--no-compile-cache", action="store_true",
                        help="compile from scratch instead of reusing the "
                             "process-wide compiled-query cache")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="abort evaluation after SECS seconds "
                             "(exit code 124, like timeout(1))")
    parser.add_argument("--xml-decl", action="store_true",
                        help="emit an XML declaration before the result")
    parser.add_argument("--indent", type=int, default=0, metavar="N",
                        help="pretty-print output with N-space indentation")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The argparse definition for ``python -m repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve XQuery over HTTP: per-tenant catalogs, "
                    "registered parameterized queries, result caching, "
                    "and /metrics (see repro.server).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8820,
                        help="TCP port (0 lets the OS pick; the bound "
                             "port is printed on startup)")
    parser.add_argument("--processes", type=int, default=0, metavar="N",
                        help="N > 0 pre-forks N persistent worker "
                             "processes; 0 (default) runs queries on an "
                             "in-process thread pool")
    parser.add_argument("--max-workers", type=int, default=None, metavar="N",
                        help="concurrent queries admitted (in-process "
                             "mode; default 4)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="default per-request deadline")
    parser.add_argument("--result-cache", type=int, default=None, metavar="N",
                        help="result-cache entries (0 disables)")
    parser.add_argument("--data-dir", type=str, default=None, metavar="DIR",
                        help="persist tenant catalogs under DIR "
                             "(one collection directory per tenant): "
                             "ingests commit to disk and a restarted "
                             "server comes up warm with every document, "
                             "without re-parsing any XML")
    parser.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="JSON ServerConfig file; command-line flags "
                             "override its fields")
    return parser


def serve_main(argv: list[str]) -> int:
    """``repro serve ...``: run the HTTP server until interrupted."""
    import asyncio
    import json

    from repro.server import ServerConfig, XQueryServer

    args = build_serve_parser().parse_args(argv)
    if args.config is not None:
        try:
            config = ServerConfig.from_dict(
                json.loads(args.config.read_text()))
        except (OSError, ValueError, TypeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    else:
        config = ServerConfig()
    changes: dict = {"host": args.host, "port": args.port,
                     "processes": args.processes}
    if args.result_cache is not None:
        changes["result_cache_size"] = args.result_cache
    option_changes: dict = {}
    for flag, name in (("max_workers", "max_workers"),
                       ("timeout", "default_timeout"),
                       ("data_dir", "data_dir")):
        value = getattr(args, flag)
        if value is not None:
            option_changes[name] = value
    try:
        if option_changes:
            changes["options"] = config.options.replace(**option_changes)
        config = config.replace(**changes)
        server = XQueryServer(config)
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    async def _run() -> None:
        await server.start()
        mode = (f"{config.processes} pre-forked workers"
                if config.processes else "in-process pool")
        print(f"repro server on http://{config.host}:{server.port} "
              f"({mode})", file=sys.stderr)
        await server._server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _stdin_has_data() -> bool:
    """True when piped stdin already has readable data (never blocks).

    Use ``-i -`` to force a blocking read from a slow producer.
    """
    import select

    try:
        ready, _, _ = select.select([sys.stdin], [], [], 0)
    except (OSError, ValueError):
        return False
    return bool(ready)


def _parse_var(text: str):
    name, sep, raw = text.partition("=")
    if not sep:
        raise SystemExit(f"--var needs NAME=VALUE, got {text!r}")
    value: object
    if raw.startswith("@"):
        from repro.engine import xml

        value = xml(Path(raw[1:]).read_text())
    elif raw.startswith("<"):
        from repro.engine import xml

        value = xml(raw)
    elif raw in ("true", "false"):
        value = raw == "true"
    else:
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                from repro.xdm.items import string

                value = string(raw)
    return name, value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.query_file is not None:
        query_text = args.query_file.read_text()
    elif args.query is not None:
        query_text = args.query
    else:
        parser.error("no query given (positional argument or -q)")
        return 2

    context_xml: str | None = None
    if args.input is not None:
        if str(args.input) == "-":
            context_xml = sys.stdin.read()
        else:
            context_xml = args.input.read_text()
    elif not sys.stdin.isatty() and _stdin_has_data():
        data = sys.stdin.read()
        if data.strip():
            context_xml = data

    variables = dict(_parse_var(v) for v in args.var)

    options = ExecutionOptions(optimize=not args.no_optimize)
    engine = Engine(options=options,
                    compile_cache=None if args.no_compile_cache
                    else _COMPILE_CACHE)
    try:
        compiled = engine.compile(query_text, variables=tuple(variables))
    except Exception as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 1

    if args.explain and not args.profile:
        try:
            print(f"static type: {compiled.static_type}")
            print(compiled.explain())
            print("-- generated source --")
            print(compiled.generated_source)
        except BrokenPipeError:  # e.g. `| head` closed the pipe
            pass
        return 0

    def fs_loader(uri: str):
        path = Path(uri)
        return path.read_text() if path.is_file() else None

    profiler = None
    if args.profile:
        from repro.observability import Profiler

        profiler = Profiler()

    try:
        result = compiled.execute(
            context_item=context_xml, variables=variables,
            document_loader=fs_loader, profiler=profiler,
            deadline=args.timeout)
        if args.explain:
            # EXPLAIN ANALYZE: drain, print the annotated tree
            result.items()
            from repro.observability import ExplainResult

            explained = ExplainResult(compiled, profiler,
                                      query_text=query_text,
                                      engine_stats=result.stats)
            print(explained.render())
        else:
            sys.stdout.write(result.serialize(xml_decl=args.xml_decl,
                                              indent=args.indent))
            sys.stdout.write("\n")
        if profiler is not None:
            import json

            from repro.observability import ExplainResult

            dump = ExplainResult(compiled, profiler, query_text=query_text,
                                 engine_stats=result.stats).to_dict()
            print(json.dumps(dump), file=sys.stderr)
    except Exception as exc:
        from repro.errors import QueryTimeout

        print(f"error: {exc}", file=sys.stderr)
        return 124 if isinstance(exc, QueryTimeout) else 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
