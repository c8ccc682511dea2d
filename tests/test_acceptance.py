"""End-to-end acceptance checks, one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import time

import numpy as np
import pytest

from gpmc import (BitMatrix, CorruptStreamError, FormatError,
                  TruncationError, compress, decompress, generate_chunk_mix,
                  generate_er, pattern_set, query_edge, read_container,
                  reference_compress, write_container)

GRID_SIZES = (17, 32, 33, 64, 128, 1024)
GRID_PROBS = (0.0, 0.01, 0.05, 0.25, 0.5, 1.0)
SWEEP_MATRICES = 200


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sets():
    return tuple(pattern_set(i) for i in (1, 2, 3))


@pytest.fixture(scope="module")
def sweep(sets):
    """One pass over the 200-matrix grid, shared by criteria 1, 3 and 6."""
    cases = []
    seed = 0
    while len(cases) < SWEEP_MATRICES:
        for n in GRID_SIZES:
            for p in GRID_PROBS:
                cases.append((n, p, seed))
                seed += 1
    cases = cases[:SWEEP_MATRICES]

    results = []
    start = time.perf_counter()
    for n, p, seed in cases:
        m = generate_er(n, p, seed)
        per_set = {}
        for pset in sets:
            graph, stats = compress(m, pset)
            per_set[pset.id] = (graph, stats, decompress(graph, pset) == m)
        results.append((n, p, per_set))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_01_lossless_round_trip(sweep):
    results, elapsed = sweep
    failures = sum(1 for _, _, per_set in results
                   for _, _, ok in per_set.values() if not ok)
    report("1 lossless round trip",
           failures == 0 and elapsed < 30.0,
           f"{len(results)} matrices x 3 sets, {failures} mismatches, {elapsed:.1f}s")


def test_criterion_02_chunk_count_arithmetic(sets):
    expected = {1024: 32768, 2048: 131072, 4096: 524288, 8192: 2097152}
    plotted_sums = {1024: 33000, 2048: 130000, 4096: 525000, 8192: 2090000}
    measured = {}
    for n in expected:
        _, stats = compress(BitMatrix.zeros(n), sets[0])
        measured[n] = stats.total_chunks
    exact = all(measured[n] == expected[n] for n in expected)
    corroborated = all(abs(measured[n] - plotted_sums[n]) / plotted_sums[n] < 0.02
                       for n in expected)
    report("2 chunk-count arithmetic", exact and corroborated,
           f"totals {sorted(measured.values())}")


def test_criterion_03_size_formula_exactness(sweep, sets):
    results, _ = sweep
    indicator = {pset.id: pset.indicator_bits for pset in sets}
    checked = 0
    ok = True
    for _, _, per_set in results:
        for set_id, (graph, stats, _) in per_set.items():
            k = indicator[set_id]
            ok &= graph.payload_bit_length == stats.matched * (1 + k) + stats.unmatched * 33
            ok &= stats.compressed_bits == graph.payload_bit_length
            checked += 1
    report("3 size-formula exactness", ok, f"{checked} compressed outputs")


def test_criterion_04_calibrated_ratio_targets(sets):
    # per-set chunk-mix fractions giving match fractions 0.286 / 0.57 / 0.90
    mixes = {1: (0.2, 0.0, 0.086), 2: (0.0, 0.57, 0.0), 3: (0.5, 0.3, 0.1)}
    targets = {1: 0.21, 2: 0.45, 3: 0.70}
    start = time.perf_counter()
    measured = {}
    for pset in sets:
        fz, fs, fp = mixes[pset.id]
        m = generate_chunk_mix(1024, fz, fs, fp, seed=pset.id)
        _, stats = compress(m, pset)
        measured[pset.id] = stats.ratio
    elapsed = time.perf_counter() - start
    ok = all(abs(measured[i] - targets[i]) <= 0.01 for i in targets)
    report("4 calibrated ratio targets", ok and elapsed < 10.0,
           "ratios " + ", ".join(f"{measured[i]:.4f}" for i in (1, 2, 3))
           + f", {elapsed:.1f}s")


def test_criterion_05_calibration_point_9500(sets):
    # 6000 all-zero + 3500 leading-pair chunks match set 1; singles do not
    total = 32768
    m = generate_chunk_mix(
        1024, f_zero=6000 / total, f_single=5000 / total, f_pair=3500 / total, seed=12)
    _, stats = compress(m, sets[0])
    target = (27 * (9500 / total) - 1) / 32
    ok = stats.matched == 9500 and abs(stats.ratio - target) <= 0.001
    report("5 calibration point 9500/32768", ok,
           f"matched={stats.matched}, ratio={stats.ratio:.6f}, target={target:.6f}")


def test_criterion_06_union_monotonicity(sweep):
    results, _ = sweep
    ok = True
    for _, _, per_set in results:
        matched = {set_id: stats.matched for set_id, (_, stats, _) in per_set.items()}
        ok &= matched[3] == matched[1] + matched[2]
    report("6 union monotonicity", ok, f"{len(results)} matrices, exact equality")


def test_criterion_07_oracle_equivalence(sets):
    rng = np.random.default_rng(97)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 257))
        p = float(rng.choice([0.0, 0.01, 0.05, 0.3, 1.0]))
        m = generate_er(n, p, seed=int(rng.integers(0, 2**32)))
        for pset in sets:
            fast = compress(m, pset)
            slow = reference_compress(m, pset)
            ok &= fast == slow
    report("7 oracle equivalence", ok, "100 matrices (n <= 256) x 3 sets, bit-identical")


def test_criterion_08_dense_input_expansion(sets):
    m = generate_er(256, 0.5, seed=3)
    ratios = []
    ok = True
    for pset in sets:
        graph, stats = compress(m, pset)
        ratios.append(stats.ratio)
        ok &= -0.0313 <= stats.ratio <= -0.028
        ok &= decompress(graph, pset) == m
    report("8 dense-input expansion", ok,
           "ratios " + ", ".join(f"{r:.5f}" for r in ratios) + ", lossless")


def test_criterion_09_compressed_domain_query(sets):
    n = 128
    m = generate_er(n, 0.05, seed=5)
    ok = True
    for pset in sets:
        graph, _ = compress(m, pset)
        full = decompress(graph, pset)
        for i in range(n):
            for j in range(n):
                if query_edge(graph, pset, i, j) != full.get(i, j):
                    ok = False
    report("9 compressed-domain query", ok, f"{3 * n * n} queries, exhaustive at n={n}")


def test_criterion_10_container_golden_files(sets):
    graph, _ = compress(BitMatrix.zeros(64), sets[0])
    blob = write_container(graph)
    golden = (len(blob) == 120
              and blob[:8] == bytes([0x47, 0x50, 0x4D, 0x43, 0x01, 0x01, 0x20, 0x00])
              and blob[8:16] == (64).to_bytes(8, "big")
              and graph.payload_bit_length == 768)

    errors = []
    try:
        read_container(b"XPMC" + blob[4:])
    except ValueError as exc:
        errors.append(type(exc))
    try:
        read_container(blob[:-1])
    except ValueError as exc:
        errors.append(type(exc))
    padded_graph, _ = compress(BitMatrix.zeros(1), sets[0])  # 6 bits, 2 pad bits
    dirty = bytearray(write_container(padded_graph))
    dirty[-1] |= 1
    try:
        read_container(bytes(dirty))
    except ValueError as exc:
        errors.append(type(exc))
    distinct = errors == [FormatError, TruncationError, CorruptStreamError]
    report("10 container golden files", golden and distinct,
           f"120-byte fixture, corruption classes {[e.__name__ for e in errors]}")


def test_criterion_11_throughput_8192(sets):
    m = generate_er(8192, 0.01, seed=8)
    start = time.perf_counter()
    _, stats = compress(m, sets[2])
    elapsed = time.perf_counter() - start
    report("11 desk-scale throughput", elapsed < 5.0 and stats.total_chunks == 2097152,
           f"compress n=8192 under the union set in {elapsed:.2f}s")
