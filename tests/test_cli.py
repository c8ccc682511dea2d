from pathlib import Path

import pytest

from gpmc import (BitMatrix, GeneratorSpec, compress, format_edge_list_text, from_edge_list,
                  generate_chunk_mix, parse_edge_list_text, pattern_set, read_container)
from gpmc.cli import main
from gpmc.metrics import make_matrix

from conftest import peak

# the one message for a matrix that no address space holds
PAST_MEMORY = "a matrix of n=3000000000 vertices needs 1125000000000000000 bytes"


def write_zero_graph(path: Path, n: int) -> None:
    path.write_text(f"{n}\n")


@pytest.fixture
def small_graph(tmp_path):
    path = tmp_path / "g.edges"
    assert main(["generate", str(path), "--kind", "er", "--n", "96",
                 "--p", "0.03", "--seed", "9"]) == 0
    return path


def trip(name, n, p, seed, set_id, *cells):
    return pytest.param(n, p, seed, set_id, cells, id=f"{name}-set{set_id}")


# Every stream shape the CLI's round trip must carry: generate --n --p --seed, compress
# under a set, and the cells to query, each row with the shape it exists for
ROUND_TRIPS = (
    # a small ER graph under each set; (99, 99) is the stream's last field, read in place
    # from the payload's last bytes
    *(trip("n100", 100, 0.05, 1, set_id, (5, 7), (99, 99)) for set_id in (1, 2, 3)),
    # the shape the other tests here use: three whole chunks a row, queried at its first
    # cell, an inner one and its last
    *(trip("n96", 96, 0.03, 9, set_id, (0, 0), (3, 77), (95, 95)) for set_id in (1, 2, 3)),
    # a mixed stream long enough for the walk to leave its first runs and take lanes
    trip("mixed", 1024, 0.02, 1, 3, (1023, 1023)),
    # a mixed set-1 stream: k = 5, so its lanes start on the true path's residue mod 3,
    # and its first lanes pass stops early, so the walk then steps field by field
    trip("mixed1", 1024, 0.03, 1, 1, (1023, 1023)),
    # a set-1 stream whose lanes passes are all whole: k = 5, so each segment is cut
    # from the pass's start bit, on the residue mod 3 that the true path keeps
    trip("sparse1", 4096, 0.005, 1, 1),
    # an edge-query-shaped stream: several whole lanes passes, each writing its flags
    # packed from the field the one before it ended at, which need not start a byte
    trip("edge", 4096, 0.02, 1, 3, (4095, 4095)),
    # 33 * 33 bits end in a partial byte: the block writer's last byte and padded rows,
    # and the last field of a partial-byte payload
    trip("odd", 33, 0.1, 1, 3, (32, 32)),
    # n % 8 = 1 at n = 2049: 16 row blocks of 128 rows, then a block of one row that
    # ends inside a byte, on the way in and on the way out; its 65 fields end one bit
    # into the last byte of the packed flags that stats and decompress read
    trip("rows", 2049, 0.01, 1, 3),
    # all raw: 7 row blocks of 128 rows and one of 104, each decoded from a copy of its
    # own payload words, which ends mid-word
    trip("raw", 1000, 0.5, 1, 1),
    # long-run streams, whose walk goes by runs and steps over each lone field of the
    # other kind: a sparse-archive-shaped one, long matched runs broken by 59 lone raw
    # fields, and a dense-raw-shaped one, long raw runs broken by 3 lone matched fields
    trip("sparse", 2048, 0.001, 1, 3, (2047, 2047)),
    trip("dense", 512, 0.25, 1, 1, (511, 511)),
)


class TestRoundTrip:
    @pytest.mark.parametrize("n, p, seed, set_id, cells", ROUND_TRIPS)
    def test_every_verb_agrees_with_the_text(self, tmp_path, capsys, n, p, seed, set_id,
                                             cells):
        edges, container, restored = (str(tmp_path / f) for f in ("g.txt", "g.gpmc", "out.txt"))
        assert main(["generate", edges, "--n", str(n), "--p", str(p), "--seed", str(seed)]) == 0
        assert main(["compress", edges, container, "--set", str(set_id)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith(f"n={n} set={set_id} chunks=")
        assert main(["verify", edges, container]) == 0
        assert capsys.readouterr().out == "OK\n"
        # the census stats reads back from the container is the one compress counted
        assert main(["stats", container]) == 0
        assert capsys.readouterr().out == summary
        lines = Path(edges).read_text().splitlines()
        # and the text's last edge, so that some query must print 1
        for u, v in (*cells, lines[-1].split()):
            assert main(["query", container, str(u), str(v)]) == 0
            assert capsys.readouterr().out == f"{int(f'{u} {v}' in lines)}\n"
        assert main(["decompress", container, restored]) == 0
        assert Path(restored).read_bytes() == Path(edges).read_bytes()


class TestGenerate:
    def test_chunk_mix(self, tmp_path):
        out = tmp_path / "mix.edges"
        code = main(["generate", str(out), "--kind", "chunk-mix", "--n", "64",
                     "--f-zero", "0.5", "--f-single", "0.25", "--seed", "4"])
        assert code == 0
        el = parse_edge_list_text(out.read_text())
        assert el.n == 64

    @pytest.mark.parametrize("kind, options, spec", (
        ("er", ["--p", "0.05"], GeneratorSpec("er", p=0.05, seed=3)),
        ("chunk-mix", ["--f-zero", "0.4", "--f-single", "0.2", "--f-pair", "0.1"],
         GeneratorSpec("chunk-mix", f_zero=0.4, f_single=0.2, f_pair=0.1, seed=3)),
        ("zero", [], GeneratorSpec("zero", seed=3)),
    ))
    def test_writes_the_experiment_generator(self, tmp_path, kind, options, spec):
        out = tmp_path / "g.edges"
        assert main(["generate", str(out), "--kind", kind, "--n", "96", "--seed", "3",
                     *options]) == 0
        assert out.read_text() == format_edge_list_text(make_matrix(spec, 96, 1))

    def test_bad_fraction_is_input_error(self, tmp_path):
        out = tmp_path / "mix.edges"
        code = main(["generate", str(out), "--kind", "chunk-mix", "--n", "64",
                     "--f-zero", "0.9", "--f-single", "0.5"])
        assert code == 2

    def test_rich_mix_compresses_near_seventy_percent(self, tmp_path, capsys):
        edges = tmp_path / "mix.edges"
        container = tmp_path / "mix.gpmc"
        assert main(["generate", str(edges), "--kind", "chunk-mix", "--n", "256",
                     "--f-zero", "0.5", "--f-single", "0.3", "--f-pair", "0.1",
                     "--seed", "6"]) == 0
        assert main(["compress", str(edges), str(container), "--set", "3"]) == 0
        line = capsys.readouterr().out.strip()
        ratio = float(dict(kv.split("=") for kv in line.split())["ratio"])
        assert 0.68 <= ratio <= 0.72

    @pytest.mark.parametrize("kind", ("er", "zero", "chunk-mix"))
    def test_generate_past_memory_names_the_size(self, tmp_path, capsys, kind):
        # every kind builds its matrix in one buffer of n * n / 8 bytes, whose MemoryError
        # names n and the bytes; no address space holds them, so nothing is allocated
        out = tmp_path / "g.txt"
        assert main(["generate", str(out), "--kind", kind, "--n", "3000000000",
                     "--p", "0", "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: {PAST_MEMORY}\n"
        assert not out.exists()

    @pytest.mark.parametrize("make", (BitMatrix, BitMatrix.zeros, generate_chunk_mix))
    def test_every_builder_past_memory_names_the_size(self, make):
        # the buffer is taken before any draw, so each call fails at once, having
        # allocated nothing
        error, used = peak(pytest.raises, MemoryError, make, 3_000_000_000)
        assert str(error.value) == PAST_MEMORY
        assert used < 1 << 20


class TestCompress:
    def test_zero_graph_summary(self, tmp_path, capsys):
        edges = tmp_path / "zero.edges"
        write_zero_graph(edges, 1024)
        out = tmp_path / "zero.gpmc"
        assert main(["compress", str(edges), str(out), "--set", "1"]) == 0
        line = capsys.readouterr().out.strip()
        assert "matched=32768" in line
        assert "ratio=0.812500" in line
        assert out.exists()

    def test_matches_library(self, tmp_path, small_graph):
        out = tmp_path / "g.gpmc"
        assert main(["compress", str(small_graph), str(out), "--set", "3"]) == 0
        m = from_edge_list(parse_edge_list_text(small_graph.read_text()))
        expected, _ = compress(m, pattern_set(3))
        assert read_container(out.read_bytes()) == expected

    def test_missing_input(self, tmp_path, capsys):
        out = tmp_path / "never.gpmc"
        code = main(["compress", str(tmp_path / "missing.edges"), str(out),
                     "--set", "1"])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("4\n0 nine\n")
        code = main(["compress", str(bad), str(tmp_path / "o.gpmc"), "--set", "1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_vertex_count_past_memory_is_input_error(self, tmp_path, capsys):
        # the matrix of 3e9 vertices needs 999 PiB, past any address space, so numpy
        # refuses it at once, allocating nothing; the line names n and the bytes, as
        # generate's does
        edges = tmp_path / "huge.edges"
        edges.write_text("3000000000\n0 1\n")
        out = tmp_path / "huge.gpmc"
        assert main(["compress", str(edges), str(out), "--set", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "error: a matrix of n=3000000000 vertices needs 1125000000000000000 bytes\n"
        assert not out.exists()


class TestDecompress:
    def test_empty_graph_yields_header_only(self, tmp_path):
        edges = tmp_path / "zero.edges"
        write_zero_graph(edges, 64)
        container = tmp_path / "zero.gpmc"
        restored = tmp_path / "restored.edges"
        assert main(["compress", str(edges), str(container), "--set", "1"]) == 0
        assert main(["decompress", str(container), str(restored)]) == 0
        assert restored.read_text() == "64\n"

    def test_truncated_container(self, tmp_path, small_graph, capsys):
        container = tmp_path / "g.gpmc"
        assert main(["compress", str(small_graph), str(container), "--set", "1"]) == 0
        container.write_bytes(container.read_bytes()[:-3])
        assert main(["decompress", str(container), str(tmp_path / "x.edges")]) == 2
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_out_of_range(self, tmp_path, small_graph, capsys):
        container = tmp_path / "g.gpmc"
        assert main(["compress", str(small_graph), str(container), "--set", "1"]) == 0
        capsys.readouterr()
        assert main(["query", str(container), "0", "9999"]) == 2


class TestVerify:
    def test_mismatch_prints_coordinates(self, tmp_path, capsys):
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        a.write_text("8\n0 1\n")
        b.write_text("8\n0 2\n")
        container = tmp_path / "b.gpmc"
        assert main(["compress", str(b), str(container), "--set", "3"]) == 0
        capsys.readouterr()
        assert main(["verify", str(a), str(container)]) == 3
        assert "(0, 1)" in capsys.readouterr().out

    def test_mismatch_in_last_bit(self, tmp_path, capsys):
        # n=100 pads each row to four chunks; (99, 99) is the last matrix bit
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        a.write_text("100\n0 5\n99 99\n")
        b.write_text("100\n0 5\n")
        container = tmp_path / "b.gpmc"
        assert main(["compress", str(b), str(container), "--set", "1"]) == 0
        capsys.readouterr()
        assert main(["verify", str(a), str(container)]) == 3
        assert capsys.readouterr().out.strip() == "mismatch at (99, 99)"

    def test_size_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        write_zero_graph(a, 16)
        write_zero_graph(b, 32)
        container = tmp_path / "b.gpmc"
        assert main(["compress", str(b), str(container), "--set", "1"]) == 0
        capsys.readouterr()
        assert main(["verify", str(a), str(container)]) == 3


class TestExperiment:
    def test_writes_sorted_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["experiment", str(out), "--sizes", "128,64", "--sets", "1,3",
                     "--generator", "calibrated", "--seed", "2"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("n,pattern_set,total_chunks,matched,unmatched,original_bits,"
                            "compressed_bits,ratio")
        assert len(lines) == 5
        assert lines[1].startswith("64,1,")
        assert lines[4].startswith("128,3,")

    def test_unknown_set_id_is_named(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert main(["experiment", str(out), "--sets", "9"]) == 1
        assert "unknown pattern set id 9" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sizes_is_usage_error(self, tmp_path):
        assert main(["experiment", str(tmp_path / "x.csv"), "--sizes", ""]) == 1

    @pytest.mark.parametrize("generator", ("zero", "calibrated"))
    def test_size_past_memory_names_the_size(self, tmp_path, capsys, generator):
        # the calibrated generator is the chunk mix: both fail in the matrix's one buffer
        out = tmp_path / "rows.csv"
        assert main(["experiment", str(out), "--generator", generator,
                     "--sizes", "3000000000"]) == 2
        assert capsys.readouterr().err == f"error: {PAST_MEMORY}\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, value", (("--sizes", "1,x"), ("--sets", "4"),
                                               ("--sets", "1,x")))
    def test_bad_list_is_usage_error(self, tmp_path, capsys, option, value):
        out = tmp_path / "x.csv"
        assert main(["experiment", str(out), option, value]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"argument {option}: " in err
        assert "_int_list" not in err and "_pattern_sets" not in err


class TestPositiveCounts:
    @pytest.mark.parametrize("argv, option", (
        (["generate", "g.edges", "--n", "0"], "--n"),
        (["generate", "g.edges", "--n", "x"], "--n"),
        (["experiment", "x.csv", "--reps", "0"], "--reps"),
        (["experiment", "x.csv", "--reps", "-2"], "--reps"),
    ))
    def test_nonpositive_count_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                               argv, option):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert not (tmp_path / argv[1]).exists()
        err = capsys.readouterr().err
        assert f"argument {option}: " in err
        assert "_positive_int" not in err


class TestOptionRanges:
    @pytest.mark.parametrize("argv, option", (
        (["generate", "g.edges", "--n", "2", "--p", "1.5"], "--p"),
        (["generate", "g.edges", "--n", "2", "--p", "-0.1"], "--p"),
        (["generate", "g.edges", "--n", "2", "--p", "nan"], "--p"),
        (["generate", "g.edges", "--n", "2", "--p", "x"], "--p"),
        (["generate", "g.edges", "--n", "64", "--kind", "chunk-mix", "--f-zero", "2"],
         "--f-zero"),
        (["generate", "g.edges", "--n", "64", "--kind", "chunk-mix", "--f-single", "-1"],
         "--f-single"),
        (["experiment", "x.csv", "--f-pair", "1.01"], "--f-pair"),
        (["experiment", "x.csv", "--sizes", "0", "--sets", "1"], "--sizes"),
        (["experiment", "x.csv", "--sizes", "64,-32", "--sets", "1"], "--sizes"),
    ))
    def test_out_of_range_value_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                               argv, option):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert not (tmp_path / argv[1]).exists()
        err = capsys.readouterr().err
        assert f"argument {option}: " in err
        assert "_fraction" not in err and "_sizes" not in err

    @pytest.mark.parametrize("value", ("0", "1", "0.0", "1.0"))
    def test_fraction_bounds_are_inclusive(self, tmp_path, value):
        out = tmp_path / "g.edges"
        assert main(["generate", str(out), "--n", "40", "--p", value, "--seed", "1"]) == 0
        assert parse_edge_list_text(out.read_text()).n == 40


class TestUsage:
    def test_unknown_verb(self):
        assert main(["bogus"]) == 1

    def test_no_verb(self):
        assert main([]) == 1

    def test_bad_set_value(self, tmp_path):
        assert main(["compress", "in", "out", "--set", "9"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
