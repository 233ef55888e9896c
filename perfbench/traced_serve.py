"""Run ``repro serve`` with the span recorder installed; write spans at exit.

Usage: ``python3 perfbench/traced_serve.py <spans.json> serve [options]``.
The server drains on SIGTERM as usual; its spans are written after it
returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

import common

common.bootstrap()

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    recorder = spans.Recorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
