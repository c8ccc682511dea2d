"""Lossless graph compression over bit-packed adjacency matrices.

Fixed-width row chunks that equal an entry of a small sparse-pattern
dictionary are replaced by short indicators; everything else is stored raw
behind a one-bit flag. Includes generators, a bit-exact container format,
compressed-domain edge queries, and a benchmark harness.
"""

from .bitmatrix import (
    BitMatrix,
    EdgeList,
    EdgeRangeError,
    ParseError,
    format_edge_list_text,
    from_edge_list,
    generate_chunk_mix,
    generate_er,
    parse_edge_list_text,
)
from .codec import (
    CompressedGraph,
    CompressionStats,
    CorruptStreamError,
    FormatError,
    TruncationError,
    compress,
    decompress,
    query_edge,
    read_container,
    scan_stats,
    total_chunks,
    write_container,
)
from .metrics import (
    CALIBRATION_MIXES,
    ExperimentRow,
    GeneratorSpec,
    emit_csv,
    ratio_for_match_fraction,
    run_experiment,
)
from .oracle import reference_compress
from .patterns import (
    PatternSet,
    classify_chunks,
    pattern_set,
)

__all__ = [
    "BitMatrix",
    "CALIBRATION_MIXES",
    "CompressedGraph",
    "CompressionStats",
    "CorruptStreamError",
    "EdgeList",
    "EdgeRangeError",
    "ExperimentRow",
    "FormatError",
    "GeneratorSpec",
    "ParseError",
    "PatternSet",
    "TruncationError",
    "classify_chunks",
    "compress",
    "decompress",
    "emit_csv",
    "format_edge_list_text",
    "from_edge_list",
    "generate_chunk_mix",
    "generate_er",
    "parse_edge_list_text",
    "pattern_set",
    "query_edge",
    "ratio_for_match_fraction",
    "read_container",
    "reference_compress",
    "run_experiment",
    "scan_stats",
    "total_chunks",
    "write_container",
]
