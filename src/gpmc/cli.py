"""Command-line front end for the compressor.

Verbs: generate, compress, decompress, stats, query, verify, experiment.
Every verb is a thin wrapper over the library operations. Exit codes:
0 success, 1 usage error, 2 input/format error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import codec, metrics
from .bitmatrix import BitMatrix, format_edge_list_text, from_edge_list, parse_edge_list_text
from .patterns import SET_IDS, pattern_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; this CLI reserves 2 for
    # input/format errors and reports usage problems as 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _summary_line(n: int, set_id: int, stats: codec.CompressionStats) -> str:
    return (f"n={n} set={set_id} chunks={stats.total_chunks} "
            f"matched={stats.matched} unmatched={stats.unmatched} "
            f"original_bits={stats.original_bits} "
            f"compressed_bits={stats.compressed_bits} ratio={stats.ratio:.6f}")


def _load_matrix(path: str) -> BitMatrix:
    return from_edge_list(parse_edge_list_text(Path(path).read_text()))


def _load_container(path: str) -> codec.CompressedGraph:
    return codec.read_container(Path(path).read_bytes())


# argparse type= functions: a usage error shows an ArgumentTypeError's message as is
def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    try:
        if 0.0 <= (value := float(text)) <= 1.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")


def _comma_list(parse):
    """A type= function for comma-separated values, each read by parse."""
    def parse_list(text: str) -> list:
        try:
            return [parse(part) for part in text.split(",")]
        except ValueError as exc:  # pattern_set's unknown id
            raise argparse.ArgumentTypeError(str(exc))
    return parse_list


def _generator_spec(args, kind: str) -> metrics.GeneratorSpec:
    return metrics.GeneratorSpec(kind=kind, p=args.p, f_zero=args.f_zero,
                                 f_single=args.f_single, f_pair=args.f_pair, seed=args.seed)


def cmd_generate(args) -> int:
    # the set id only picks a calibrated mix, and generate offers no calibrated kind
    m = metrics.make_matrix(_generator_spec(args, args.kind), args.n, set_id=0)
    Path(args.output).write_text(format_edge_list_text(m))
    return EXIT_OK


def cmd_compress(args) -> int:
    m = _load_matrix(args.input)
    graph, stats = codec.compress(m, pattern_set(args.set))
    Path(args.output).write_bytes(codec.write_container(graph))
    print(_summary_line(graph.n, graph.pattern_set_id, stats))
    return EXIT_OK


def cmd_decompress(args) -> int:
    graph = _load_container(args.input)
    m = codec.decompress(graph, pattern_set(graph.pattern_set_id))
    Path(args.output).write_text(format_edge_list_text(m))
    return EXIT_OK


def cmd_stats(args) -> int:
    graph = _load_container(args.input)
    stats = codec.scan_stats(graph, pattern_set(graph.pattern_set_id))
    print(_summary_line(graph.n, graph.pattern_set_id, stats))
    return EXIT_OK


def cmd_query(args) -> int:
    graph = _load_container(args.input)
    print(codec.query_edge(graph, pattern_set(graph.pattern_set_id), args.u, args.v))
    return EXIT_OK


def cmd_verify(args) -> int:
    original = _load_matrix(args.original)
    graph = _load_container(args.container)
    decoded = codec.decompress(graph, pattern_set(graph.pattern_set_id))
    if decoded.n != original.n:
        print(f"n mismatch: edge list has {original.n}, container has {decoded.n}")
        return EXIT_MISMATCH
    if decoded == original:
        print("OK")
        return EXIT_OK
    # the first differing byte of the packed bits, then the first differing bit in it
    a, b = (np.frombuffer(m.data, dtype=np.uint8) for m in (original, decoded))
    k = int(np.argmax(a != b))
    i, j = divmod(8 * k + 8 - int(a[k] ^ b[k]).bit_length(), original.n)
    print(f"mismatch at ({i}, {j})")
    return EXIT_MISMATCH


def cmd_experiment(args) -> int:
    rows = metrics.run_experiment(args.sizes, args.sets, _generator_spec(args, args.generator),
                                  repetitions=args.reps)
    for row in rows:
        print(f"cell n={row.n} set={row.pattern_set_id} ratio={row.ratio:.6f}",
              file=sys.stderr)
    Path(args.output).write_bytes(metrics.emit_csv(rows))
    return EXIT_OK


def _add_mix_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=_fraction, default=0.01, help="edge probability (er)")
    p.add_argument("--f-zero", type=_fraction, default=0.0, help="all-zero chunk fraction")
    p.add_argument("--f-single", type=_fraction, default=0.0, help="single-one chunk fraction")
    p.add_argument("--f-pair", type=_fraction, default=0.0, help="leading-pair chunk fraction")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpmc",
                     description="Pattern-dictionary compression for graph adjacency matrices")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="write a synthetic graph as edge-list text")
    p.add_argument("output", help="edge-list path to write")
    p.add_argument("--kind", choices=("er", "chunk-mix", "zero"), default="er")
    p.add_argument("--n", type=_positive_int, required=True, help="vertex count")
    _add_mix_options(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compress", help="compress an edge list into a container")
    p.add_argument("input", help="edge-list path")
    p.add_argument("output", help="container path to write")
    p.add_argument("--set", type=int, choices=SET_IDS, required=True,
                   help="pattern set id")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="expand a container back to edge-list text")
    p.add_argument("input", help="container path")
    p.add_argument("output", help="edge-list path to write")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("stats", help="print the census of an existing container")
    p.add_argument("input", help="container path")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("query", help="read one edge bit from a container")
    p.add_argument("input", help="container path")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="check a container against its source edge list")
    p.add_argument("original", help="edge-list path")
    p.add_argument("container", help="container path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run the compression benchmark grid")
    p.add_argument("output", help="CSV path to write")
    p.add_argument("--sizes", type=_comma_list(_positive_int), default="1024,2048,4096,8192",
                   help="comma-separated vertex counts")
    p.add_argument("--sets", type=_comma_list(lambda part: pattern_set(_positive_int(part))),
                   default="1,2,3",
                   help="comma-separated pattern set ids")
    p.add_argument("--generator", choices=metrics.GENERATOR_KINDS, default="calibrated")
    p.add_argument("--reps", type=_positive_int, default=1, help="repetitions per cell")
    _add_mix_options(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; _Parser.error exits 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, IndexError, MemoryError) as exc:  # n past what memory holds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
