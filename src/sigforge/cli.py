"""Command-line interface: generate / inspect / validate / serve."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import numpy as np

from sigforge import dataset as ds
from sigforge import measurement
from sigforge.frame import FRAME_LEN
from sigforge.linear import matched_filter_symbols
from sigforge.registry import NUM_CLASSES, class_by_index
from sigforge.server import BatchServer, ServerDefaults


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.count < 1 or args.count % NUM_CLASSES != 0:
        raise ValueError(f"--count must be a positive number divisible by {NUM_CLASSES} "
                         f"(exact class balance), got {args.count}")
    config = ds.DatasetConfig(
        variant=args.variant,
        examples_per_class=args.count // NUM_CLASSES,
        dataset_seed=args.seed,
        frame_len=args.frame_len,
    )
    # write_shards checks workers >= 1 before it writes anything
    manifest = ds.write_shards(config, args.out, workers=args.workers, force=args.force)
    print(manifest["digest_sha256"])
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    frame32, meta = ds.read_example(args.in_dir, args.index)
    return _write_views(args, frame32.astype(np.complex128), meta)


def _write_views(args: argparse.Namespace, frame: np.ndarray, meta: dict) -> int:
    """The views inspect was asked for, of one stored example."""
    if args.meta:
        print(json.dumps(meta, sort_keys=True, indent=2))
    if args.psd:
        measurement.psd_to_csv(measurement.welch_psd(frame), args.psd)
    if args.spec:
        measurement.spectrogram_to_pgm(measurement.spectrogram(frame), args.spec)
    if args.constellation:
        cls = class_by_index(meta["class_index"])
        if not cls.is_linear:
            print(f"error: --constellation needs a linear class, "
                  f"{cls.name} is {cls.family}", file=sys.stderr)
            return 1
        alpha = meta.get("shaping", {}).get("rrc_alpha", 0.35)
        _positions, soft = matched_filter_symbols(frame, alpha)
        with open(args.constellation, "w", encoding="utf-8") as fh:
            fh.write("i,q\n")
            for value in soft:
                fh.write(f"{value.real:.10g},{value.imag:.10g}\n")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = ds.validate(args.in_dir, args.sample)
    for result in results:
        suffix = f"  ({result.detail})" if result.detail else ""
        print(f"{result.name}: {'PASS' if result.ok else 'FAIL'}{suffix}")
    return 0 if all(result.ok for result in results) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    defaults = ServerDefaults(variant=args.variant, seed=args.seed,
                              frame_len=args.frame_len, batch_size=args.batch_size)
    # SIGTERM shuts down as Ctrl-C does: socket closed, pool terminated, exit 0
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with BatchServer((args.host, args.port), defaults) as server:
            # announced once bound, with the port the system chose for --port 0
            print(f"serving on {args.host}:{server.port}", flush=True)
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sigforge",
                                     description="Deterministic RF modulation dataset engine")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a dataset to disk")
    gen.add_argument("--variant", required=True, choices=ds.VARIANTS)
    gen.add_argument("--count", required=True, type=int,
                     help=f"total examples; a positive number divisible by {NUM_CLASSES}")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                     help="parallel generators (default: one per usable CPU)")
    gen.add_argument("--frame-len", type=int, default=FRAME_LEN,
                     help=f"samples per frame (>= {ds.MIN_FRAME_LEN}, default {FRAME_LEN})")
    gen.add_argument("--force", action="store_true",
                     help="write into a non-empty directory")
    gen.set_defaults(func=_cmd_generate)

    ins = sub.add_parser("inspect", help="export views of one stored example")
    ins.add_argument("--in", dest="in_dir", required=True)
    ins.add_argument("--index", required=True, type=int)
    ins.add_argument("--psd", help="write Welch PSD CSV here")
    ins.add_argument("--spec", help="write spectrogram PGM here")
    ins.add_argument("--constellation",
                     help="write symbol-rate IQ CSV here (linear classes)")
    ins.add_argument("--meta", action="store_true", help="print stored metadata")
    ins.set_defaults(func=_cmd_inspect)

    val = sub.add_parser("validate", help="integrity checks on a dataset dir")
    val.add_argument("--in", dest="in_dir", required=True)
    val.add_argument("--sample", type=int, default=20,
                     help="examples to regenerate and compare (default 20)")
    val.set_defaults(func=_cmd_validate)

    srv = sub.add_parser("serve", help="run the online batch server")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", required=True, type=int)
    srv.add_argument("--variant", default=ServerDefaults.variant, choices=ds.VARIANTS)
    srv.add_argument("--seed", type=int, default=ServerDefaults.seed)
    srv.add_argument("--frame-len", type=int, default=ServerDefaults.frame_len,
                     help=f"samples per frame (>= {ds.MIN_FRAME_LEN}, "
                          f"default {ServerDefaults.frame_len})")
    srv.add_argument("--batch-size", type=int, default=ServerDefaults.batch_size,
                     help="default batch size when a request omits it")
    srv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a bad argument, a dataset of another format
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, IndexError) as exc:  # an unusable path, an index past the end
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
