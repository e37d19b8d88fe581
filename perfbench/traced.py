"""Traced re-composition of one gazeforge subcommand.

Usage: python3 perfbench/traced.py SPANS_JSON COMMAND --config PATH
       [--output PATH] [--repeats N]

It does what ``gazeforge COMMAND`` does for the benchmark's configs, but
calls the library's public functions itself and records a span around each
call: name, start, end and parent, kept in memory and written to SPANS_JSON
at exit together with the work counts. Its output files must be
byte-identical to the CLI's, which shows it runs the same program. It only
covers the config paths the benchmark's workloads use and stops with an
error on any other.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="traced.py")
    parser.add_argument("spans_json")
    parser.add_argument("command",
                        choices=("generate", "map", "saliency", "remap", "evaluate"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    tr = Tracer()
    with tr.span("cli.import"):
        import gazeforge.cli  # noqa: F401  (the import cost the CLI pays)
    import compose  # cheap: everything it needs is loaded by now

    with tr.span(f"traced.{args.command}"):
        try:
            cfg = compose.load(tr, args.config, args.output)
            compose.COMMANDS[args.command](tr, cfg, args.repeats)
        except compose.Unsupported as e:
            print(f"traced: {e}", file=sys.stderr)
            return 2
    tr.dump(args.spans_json)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
