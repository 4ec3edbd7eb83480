"""``python -m repro.serve`` — boot the control service.

Runs until SIGTERM/SIGINT, then drains gracefully: the socket closes,
in-flight requests settle, workers shut down.

Usage::

    python -m repro.serve [--host H] [--port P] [--workers N]
                          [--queue-limit N] [--timeout S]
                          [--store-dir DIR] [--seed N]
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.serve.service import ControlService, ServeConfig


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.serve",
                                 description=__doc__)
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8787)
    ap.add_argument("--workers", type=positive_int, default=2)
    ap.add_argument("--queue-limit", type=positive_int, default=32)
    ap.add_argument("--timeout", type=positive_seconds, default=60.0,
                    help="per-request worker deadline in seconds")
    ap.add_argument("--store-dir", default=None,
                    help="disk-backed result store (unset: disabled)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit, request_timeout_s=args.timeout,
        store_dir=args.store_dir, root_seed=args.seed,
    )

    async def run() -> None:
        service = ControlService(config)
        await service.start()
        service.install_signal_handlers()
        print(f"repro.serve listening on {config.host}:{service.port} "
              f"({config.workers} warm workers)", flush=True)
        await service.serve_forever()
        print("repro.serve drained; bye", flush=True)

    asyncio.run(run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
