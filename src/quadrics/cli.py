"""Command-line front door: render, bench, check, gen.

Exit codes: 0 success, 1 usage error (bad flags, unreadable input file),
2 scene parse error, 3 oracle-check failure.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import bench, check, render, scene
from .kernels import METHODS

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quadrics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", parents=[], help="render a detection image to PGM")
    p_render.add_argument("scene_file")
    p_render.add_argument("--method", choices=METHODS, default="separated")
    p_render.add_argument("-o", "--output", required=True)
    p_render.add_argument("--workers", type=int, default=1)
    p_render.set_defaults(func=_cmd_render)

    p_bench = sub.add_parser("bench", help="benchmark both kernels on a generated scene")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--objects", type=int, required=True)
    p_bench.add_argument("--rays", type=int, required=True)
    p_bench.add_argument("--method", choices=(*METHODS, "both"), default="both")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("-o", "--output", required=True)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser("check", help="randomized separated-vs-classical equivalence check")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--cases", type=int, required=True)
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate a deterministic random scene file")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--objects", type=int, required=True)
    p_gen.add_argument("--mix", default=",".join(scene.DEFAULT_KIND_MIX),
                       help="comma-separated kinds (default: %(default)s)")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def _read_scene(path: str) -> scene.Scene:
    with open(path, "r", encoding="utf-8") as fp:
        return scene.parse_scene(fp.read())


def _cmd_render(args: argparse.Namespace) -> int:
    sc = _read_scene(args.scene_file)
    image = render.render_detection(sc, method=args.method, workers=args.workers)
    with open(args.output, "wb") as fp:
        fp.write(render.pgm_bytes(image))
    print(f"wrote {args.output}: {image.width}x{image.height}, method={args.method}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sc = scene.generate_scene(args.seed, args.objects)
    stats = bench.run_benchmark(
        sc, rays=args.rays, method=args.method, reps=args.reps,
        seed=args.seed, workers=args.workers,
    )
    csv_text = bench.to_csv(stats)
    with open(args.output, "w", encoding="utf-8") as fp:
        fp.write(csv_text)
    for s in stats:
        print(
            f"{s.method}: {s.detections} tests, {s.hits} hits, "
            f"{s.detect_ns_per_test:.1f} ns/test (precompute {s.precompute_ns_total} ns), "
            f"checksum {s.checksum}"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    report = check.oracle_check(args.seed, args.cases)
    print(check.format_report(report))
    return 0 if report.ok else 3


def _cmd_gen(args: argparse.Namespace) -> int:
    mix = tuple(k.strip() for k in args.mix.split(",") if k.strip())
    sc = scene.generate_scene(args.seed, args.objects, kind_mix=mix)
    text = scene.serialize_scene(sc)
    with open(args.output, "w", encoding="utf-8") as fp:
        fp.write(text)
    print(f"wrote {args.output}: {len(sc.objects)} objects")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except scene.SceneParseError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
