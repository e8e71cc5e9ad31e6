import csv
import io
import tracemalloc

import numpy as np
import pytest

from residiff import data as dt
from residiff.errors import ConfigError, DataError


@pytest.fixture
def tmp_dataset(tmp_path):
    rng = np.random.default_rng(0)
    grid, graph = dt.synth_generate(0, 4, 48, dt.SynthParams(steps_per_day=24))
    return tmp_path, grid, graph


class TestCsvRoundTrip:
    def test_values_round_trip_bit_exact(self, tmp_path):
        values = np.array([[1.5, -2.25], [0.1, 3.7], [1e-17, 123456.789]])
        ts = np.array([0.0, 1.0, 2.0])
        path = tmp_path / "values.csv"
        dt.save_values_csv(path, values, ts, ["a", "b"])
        loaded, lts, ids = dt.load_values_csv(path)
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(loaded, values)
        np.testing.assert_array_equal(lts, ts)

    def test_writers_match_per_cell_repr(self, tmp_path):
        # the row-at-a-time writers against the per-cell repr(float(x)) they
        # replace, on the values whose repr is most easily mangled
        values = np.array([[-0.0, 1e-300, 1e22], [np.nan, 0.1, -7.0], [2.5, -1e-5, 3.0]])
        shown = np.array([[True, True, True], [True, False, True], [False, True, True]])
        ts = np.array([0.0, 1.5, 1e22])
        ids = ["a", "b", "c"]

        def expected(first, cells):
            rows = [",".join(["time" if first is None else first, *ids])]
            rows += [",".join(row) for row in cells]
            return ("\r\n".join(rows) + "\r\n").encode()

        def per_cell(grid, keep=None):
            return [[repr(float(ts[i])),
                     *("" if keep is not None and not keep[i, j] else repr(float(x))
                       for j, x in enumerate(grid[i]))]
                    for i in range(len(ts))]

        dt.save_values_csv(tmp_path / "all.csv", values, ts, ids)
        assert (tmp_path / "all.csv").read_bytes() == expected(None, per_cell(values))
        dt.save_values_csv(tmp_path / "shown.csv", values, ts, ids, shown)
        assert (tmp_path / "shown.csv").read_bytes() == expected(None, per_cell(values, shown))
        dt.save_mask_csv(tmp_path / "mask.csv", shown, ts, ids)
        assert (tmp_path / "mask.csv").read_bytes() == expected(
            None, [[repr(float(ts[i])), *(str(int(x)) for x in shown[i])] for i in range(3)])
        graph = dt.Graph(np.array([[-0.0, 1e-300, 1e22], [1e-300, 0.0, 0.1], [1e22, 0.1, -0.0]]))
        dt.save_adjacency_csv(tmp_path / "adjacency.csv", graph, ids)
        assert (tmp_path / "adjacency.csv").read_bytes() == expected(
            "node", [[ids[j], *(repr(float(x)) for x in graph.adjacency[j])] for j in range(3)])

    def test_full_dataset_round_trip(self, tmp_dataset):
        tmp_path, grid, graph = tmp_dataset
        grid = dt.mask_point(grid, 0.3, seed=1)
        dt.save_values_csv(tmp_path / "values.csv", grid.values, grid.timestamps,
                           grid.node_ids, grid.observed_mask)
        dt.save_mask_csv(tmp_path / "observed_mask.csv", grid.observed_mask,
                         grid.timestamps, grid.node_ids)
        dt.save_mask_csv(tmp_path / "eval_mask.csv", grid.eval_mask,
                         grid.timestamps, grid.node_ids)
        dt.save_adjacency_csv(tmp_path / "adjacency.csv", graph, grid.node_ids)
        g2, gr2 = dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv",
                              tmp_path / "observed_mask.csv",
                              tmp_path / "eval_mask.csv")
        np.testing.assert_array_equal(g2.values, grid.values)
        np.testing.assert_array_equal(g2.observed_mask, grid.observed_mask)
        np.testing.assert_array_equal(g2.eval_mask, grid.eval_mask)
        np.testing.assert_array_equal(gr2.adjacency, graph.adjacency)

    def test_nan_cell_is_unobserved(self, tmp_path):
        (tmp_path / "values.csv").write_text("time,a,b\n0,1.0,\n1,nan,2.0\n")
        (tmp_path / "adjacency.csv").write_text("node,a,b\na,0,1\nb,1,0\n")
        grid, _ = dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv")
        assert grid.observed_mask.tolist() == [[True, False], [False, True]]

    def test_no_mask_file_all_observed(self, tmp_path):
        (tmp_path / "values.csv").write_text("time,a\n0,1.0\n1,2.0\n")
        (tmp_path / "adjacency.csv").write_text("node,a\na,0\n")
        grid, _ = dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv")
        assert grid.observed_mask.all()

    def test_ragged_rows_rejected(self, tmp_path):
        (tmp_path / "values.csv").write_text("time,a,b\n0,1.0\n")
        (tmp_path / "adjacency.csv").write_text("node,a,b\na,0,1\nb,1,0\n")
        with pytest.raises(DataError):
            dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv")

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        (tmp_path / "values.csv").write_text("time,a\n1,1.0\n0,2.0\n")
        (tmp_path / "adjacency.csv").write_text("node,a\na,0\n")
        with pytest.raises(DataError):
            dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv")

    def test_adjacency_shape_mismatch_rejected(self, tmp_path):
        (tmp_path / "values.csv").write_text("time,a,b\n0,1.0,2.0\n")
        (tmp_path / "adjacency.csv").write_text("node,a\na,0\n")
        with pytest.raises(DataError):
            dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv")

    @pytest.mark.parametrize("adjacency,where", [
        ("node,x,y\nx,0,1\ny,1,0\n", "column 1 is node 'x'"),
        ("node,b,a\nb,0,1\na,1,0\n", "column 1 is node 'b'"),
        ("node,a,b\na,0,1\nq,1,0\n", "row 2 is node 'q'"),
    ])
    def test_adjacency_node_ids_must_match_values(self, tmp_path, adjacency, where):
        (tmp_path / "values.csv").write_text("time,a,b\n0,1.0,2.0\n")
        (tmp_path / "adjacency.csv").write_text(adjacency)
        with pytest.raises(DataError, match=f"adjacency.csv: {where} where values has"):
            dt.load_csv(tmp_path / "values.csv", tmp_path / "adjacency.csv")


# one cell of each file is marked "@"; a test garbles it or fills in 1
MARKED_CSV = {
    "values.csv": "time,a,b\n0,1.0,2.0\n1,@,4.0\n",
    "observed_mask.csv": "time,a,b\n0,1,0\n1,1,@\n",
    "adjacency.csv": "node,a,b\na,0,1\nb,@,0\n",
}


def load_marked(directory, garbled: str = "", cell: bytes = b"1"):
    for name, text in MARKED_CSV.items():
        (directory / name).write_bytes(
            text.encode().replace(b"@", cell if name == garbled else b"1"))
    return dt.load_csv(directory / "values.csv", directory / "adjacency.csv",
                       mask_path=directory / "observed_mask.csv")


class TestGarbledCsv:
    def test_marked_files_load(self, tmp_path):
        grid, graph = load_marked(tmp_path)
        assert grid.values.tolist() == [[1.0, 2.0], [1.0, 4.0]]
        assert grid.observed_mask.tolist() == [[True, False], [True, True]]
        assert graph.adjacency.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("name", sorted(MARKED_CSV))
    def test_non_numeric_cell_is_a_data_error(self, tmp_path, name):
        with pytest.raises(DataError, match=rf"{name}: 'x7' at line 3 is not a number"):
            load_marked(tmp_path, name, b"x7")

    @pytest.mark.parametrize("name", sorted(MARKED_CSV))
    def test_non_utf8_bytes_are_a_data_error(self, tmp_path, name):
        with pytest.raises(DataError, match=rf"{name}: line 3 is not UTF-8"):
            load_marked(tmp_path, name, b"\xff\xfe")

    @pytest.mark.parametrize("name", ["adjacency.csv", "observed_mask.csv"])
    def test_empty_mask_or_adjacency_cell_is_a_data_error(self, tmp_path, name):
        # an empty values cell is unobserved; elsewhere a cell must hold a number
        with pytest.raises(DataError, match=rf"{name}: '' at line 3 is not a number"):
            load_marked(tmp_path, name, b"")

    @pytest.mark.parametrize("cell", [b"nan", b"0.5", b"-3"])
    def test_mask_cell_other_than_0_or_1_is_a_data_error(self, tmp_path, cell):
        with pytest.raises(DataError, match=rf"observed_mask.csv: {float(cell)!r} at "
                                            "line 3 is not 0 or 1"):
            load_marked(tmp_path, "observed_mask.csv", cell)


def reference_table(path, kind, blank=None, label=None):
    """The table reader the record-at-a-time one replaced: decode the whole
    file, split it into rows with csv over a newline="" StringIO, check
    every row's width, then convert every stripped cell with float()."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{kind} file {path}: line {line} is not UTF-8 text") from None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if len(rows) < 2:
        raise DataError(f"{kind} file {path} needs a header and data rows")
    header = rows[0]
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{kind} file {path}: ragged row at line {i}")
    labels = None if label is None else np.array([label(row[0]) for row in rows[1:]])
    out = np.empty((len(rows) - 1, len(header) - 1))
    for i, row in enumerate(rows[1:]):
        for j, tok in enumerate(row[1:]):
            tok = tok.strip()
            try:
                out[i, j] = blank if blank is not None and not tok else float(tok)
            except ValueError:
                raise DataError(f"{kind} file {path}: {tok!r} at line {i + 2} "
                                "is not a number") from None
    return header, out, labels


def read_both(path, kind, **kw):
    """(reader's result or error message, reference's the same)."""
    results = []
    for read in (dt._read_table, reference_table):
        try:
            results.append(read(path, kind, **kw))
        except DataError as exc:
            results.append(str(exc))
    return results


def assert_same_table(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


VALUES = dict(kind="values", blank=np.nan, label=dt._parse_timestamp)

PARITY_TEXTS = {
    "newline": "time,a,b\n0,1.5,-2\n1,,3e-5\n2,nan,0.1\n",
    "crlf": "time,a,b\r\n0,1.5,-2\r\n1,,3e-5\r\n2,nan,0.1\r\n",
    "bare-cr": "time,a,b\r0,1.5,-2\r1,,3e-5\r2,nan,0.1\r",
    "mixed-ends-no-final": "time,a,b\r\n0,1.5,-2\r1,,3e-5\n2,nan,0.1",
    "quoted": '"time","a b","c,d"\n"0", 1.5 ,"2.5"\n" 1 ","  -0.0","1e22 "\n',
    "quoted-newline": 'time,"a\r\nb",c\n0,1,2\n1,"3",4\n',
    "blank-and-iso": "time,a,b\n2024-01-01T00:00,1,\n2024-01-01T01:00, ,2\n"
                     "2024-01-02,,\n",
    "one-row": "time,a\n0,7\n",
    "header-only": "time,a,b\n",
    "empty": "",
    "bad-token": "time,a,b\n0,1,2\n1,2,x7\n2,3,4\n",
    "ragged": "time,a,b\n0,1,2\n1,2\n2,3,4\n",
    "bad-timestamp": "time,a\n0,1\nnoon,2\n",
    "blank-line": "time,a\n0,1\n\n1,2\n",
}


class TestLoaderParity:
    @pytest.mark.parametrize("name", sorted(PARITY_TEXTS))
    @pytest.mark.parametrize("kind", ["values", "mask"])
    def test_tables_match_the_whole_file_reader(self, tmp_path, name, kind):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(PARITY_TEXTS[name].encode())
        kw = VALUES if kind == "values" else {"kind": kind}
        got, want = read_both(path, **kw)
        assert_same_table(got, want)

    def test_values_csv_loads_bit_equal(self, tmp_path):
        # blank cells and ISO timestamps through the public reader
        path = tmp_path / "values.csv"
        path.write_bytes(PARITY_TEXTS["blank-and-iso"].encode())
        values, stamps, ids = dt.load_values_csv(path)
        header, want, want_stamps = reference_table(path, **VALUES)
        assert ids == header[1:] == ["a", "b"]
        assert values.tobytes() == want.tobytes() and stamps.tobytes() == want_stamps.tobytes()
        assert np.isnan(values).tolist() == [[False, True], [True, False], [True, True]]

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_written_dataset_loads_bit_equal(self, tmp_dataset, ending):
        tmp_path, grid, graph = tmp_dataset
        grid = dt.mask_point(grid, 0.3, seed=1)
        dt.save_values_csv(tmp_path / "values.csv", grid.values, grid.timestamps,
                           grid.node_ids, grid.observed_mask)
        dt.save_mask_csv(tmp_path / "mask.csv", grid.eval_mask, grid.timestamps,
                         grid.node_ids)
        dt.save_adjacency_csv(tmp_path / "adjacency.csv", graph, grid.node_ids)
        for name, kw in (("values", VALUES), ("mask", {"kind": "mask"}),
                         ("adjacency", {"kind": "adjacency"})):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(path.read_bytes().replace(b"\r\n", ending.encode()))
            got, want = read_both(path, **kw)
            assert not isinstance(want, str)
            assert_same_table(got, want)

    @pytest.mark.parametrize("fault", ["utf8", "ragged", "token"])
    def test_one_late_fault_reports_the_same_line(self, tmp_path, fault):
        # past the first read buffer, behind a quoted header cell that spans
        # two physical lines, so physical lines and records differ by one
        rows = ['time,"a\nb",c'] + [f"{i},{i}.5,-{i}" for i in range(3000)]
        text = "\r\n".join(rows) + "\r\n"
        data = text.encode()
        bad = {"utf8": b"2900,\xff,1", "ragged": b"2900,1", "token": b"2900,1,1.2.3"}[fault]
        data = data.replace(b"2900,2900.5,-2900", bad)
        path = tmp_path / "values.csv"
        path.write_bytes(data)
        got, want = read_both(path, **VALUES)
        assert isinstance(want, str) and got == want
        line = {"utf8": 2903, "ragged": 2902, "token": 2902}[fault]
        assert f"line {line}" in got

    def test_first_bad_record_is_reported(self, tmp_path):
        # the whole-file reader checked every row's width before any number
        path = tmp_path / "values.csv"
        path.write_bytes(b"time,a,b\n0,x,1\n1,2\n")
        with pytest.raises(DataError, match="'x' at line 2 is not a number"):
            dt.load_values_csv(path)

    def test_bytes_that_are_not_utf8_win_within_one_read(self, tmp_path):
        # the text stream decodes a buffer ahead of the parser, so a bad byte
        # a few records on is reported before the ragged row, as the
        # whole-file reader reported it before any record fault
        path = tmp_path / "values.csv"
        path.write_bytes(b"time,a,b\n0,1\n1,2,3\n2,\xff,4\n")
        got, want = read_both(path, **VALUES)
        assert got == want == f"values file {path}: line 4 is not UTF-8 text"

    def test_oversized_field_is_a_data_error(self, tmp_path):
        path = tmp_path / "values.csv"
        path.write_bytes(b"time,a\n0,1\n1," + b"2" * 200_000 + b"\n")
        with pytest.raises(DataError, match=r"values.csv: field larger than field "
                                            r"limit \(131072\) at line 3"):
            dt.load_values_csv(path)


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_load_csv_holds_one_record_of_text(tmp_path, ending):
    """The heap peak of a load stays within 4x one grid's float64 bytes at
    207 nodes x 2,000 steps, point-masked, whether lines end in CRLF (what
    the writers emit) or a bare CR.  It read 2.5x on a 2-core Xeon with the
    table read one record at a time, and about 24x when the reader held the
    whole file as bytes, as text and as rows of cell strings."""
    grid, graph = dt.synth_generate(0, 207, 2000, dt.SynthParams())
    grid = dt.mask_point(grid, 0.25, seed=1)
    paths = [tmp_path / name for name in ("values.csv", "adjacency.csv",
                                          "observed_mask.csv", "eval_mask.csv")]
    dt.save_values_csv(paths[0], grid.values, grid.timestamps, grid.node_ids,
                       grid.observed_mask)
    dt.save_adjacency_csv(paths[1], graph, grid.node_ids)
    dt.save_mask_csv(paths[2], grid.observed_mask, grid.timestamps, grid.node_ids)
    dt.save_mask_csv(paths[3], grid.eval_mask, grid.timestamps, grid.node_ids)
    for path in paths:
        path.write_bytes(path.read_bytes().replace(b"\r\n", ending.encode()))
    del grid, graph
    tracemalloc.start()
    try:
        loaded, _ = dt.load_csv(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * loaded.values.nbytes, f"{peak / loaded.values.nbytes:.1f}x"


class TestGraphValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(DataError):
            dt.Graph(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DataError):
            dt.Graph(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_negative_weights(self):
        with pytest.raises(DataError):
            dt.Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestSynth:
    def test_deterministic_under_seed(self):
        a, ga = dt.synth_generate(5, 10, 200, dt.SynthParams())
        b, gb = dt.synth_generate(5, 10, 200, dt.SynthParams())
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(ga.adjacency, gb.adjacency)

    def test_adjacency_properties(self):
        _, graph = dt.synth_generate(0, 20, 48, dt.SynthParams())
        a = graph.adjacency
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert np.all(a.sum(axis=1) > 0)

    def test_neighbors_correlate_more_than_distant_pairs(self):
        grid, graph = dt.synth_generate(0, 20, 2000, dt.SynthParams())
        x = grid.values - grid.values.mean(axis=0)
        c = (x.T @ x) / np.sqrt(np.outer((x**2).sum(0), (x**2).sum(0)))
        adj = graph.adjacency > 0
        off = ~np.eye(20, dtype=bool)
        r_neighbor = c[adj & off].mean()
        r_distant = c[~adj & off].mean()
        assert r_neighbor - r_distant > 0.1

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ConfigError):
            dt.synth_generate(0, 1, 100, dt.SynthParams())
        with pytest.raises(ConfigError):
            dt.synth_generate(0, 5, 10, dt.SynthParams(steps_per_day=24))


class TestMasking:
    def test_point_masking_moves_only_observed_cells(self):
        grid, _ = dt.synth_generate(1, 6, 120, dt.SynthParams())
        masked = dt.mask_point(grid, 0.25, seed=3)
        assert np.all(masked.eval_mask <= masked.observed_mask)
        np.testing.assert_array_equal(masked.values, grid.values)

    def test_point_masking_fraction_within_three_sigma(self):
        grid, _ = dt.synth_generate(2, 20, 2000, dt.SynthParams())
        p = 0.25
        masked = dt.mask_point(grid, p, seed=4)
        n = grid.observed_mask.sum()
        k = masked.eval_mask.sum()
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(k - n * p) < 3 * sigma

    def test_point_masking_vanishing_probability(self):
        grid, _ = dt.synth_generate(1, 6, 120, dt.SynthParams())
        masked = dt.mask_point(grid, 1e-12, seed=5)
        assert masked.eval_mask.sum() == 0

    def test_point_masking_rejects_bad_p(self):
        grid, _ = dt.synth_generate(1, 6, 120, dt.SynthParams())
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                dt.mask_point(grid, p, seed=0)

    def test_block_masking_reduces_to_point(self):
        grid, _ = dt.synth_generate(1, 6, 480, dt.SynthParams())
        a = dt.mask_block(grid, p_point=0.05, p_block=0.0, seed=6)
        rng = np.random.default_rng(6)
        expect = dt.draw_point_targets(grid.visible_mask, 0.05, rng)
        np.testing.assert_array_equal(a.eval_mask, expect)

    def test_block_lengths_within_configured_range(self):
        grid, _ = dt.synth_generate(1, 4, 2000, dt.SynthParams())
        masked = dt.mask_block(grid, p_point=0.0, p_block=0.004,
                               len_range=(2, 4), steps_per_hour=1, seed=7)
        assert masked.eval_mask.sum() > 0
        for j in range(4):
            col = masked.eval_mask[:, j].astype(int)
            runs = np.diff(np.flatnonzero(np.diff(np.r_[0, col, 0])))[::2]
            # overlapping blocks can merge; no run is shorter than the minimum
            assert runs.size == 0 or runs.min() >= 2

    def test_block_targets_run_along_each_windows_own_time_axis(self):
        # a batch of (B, L, N) windows: every block starts and ends inside
        # its own window, three steps long unless the window ends first
        vis = np.ones((4, 6, 3), dtype=bool)
        target = dt.draw_block_targets(vis, 0.0, 0.3, (3, 3), 1, np.random.default_rng(0))
        starts = np.random.default_rng(0).random(vis.shape) < 0.3
        expect = starts.copy()
        for lag in (1, 2):
            expect[:, lag:] |= starts[:, :-lag]
        assert starts.any()
        np.testing.assert_array_equal(target, expect)

    def test_one_window_draws_what_its_grid_draws(self):
        grid, _ = dt.synth_generate(1, 5, 48, dt.SynthParams())
        grid = dt.mask_point(grid, 0.2, seed=1)
        args = (0.1, 0.05, (1, 4), 2)
        flat = dt.draw_block_targets(grid.visible_mask, *args, np.random.default_rng(3))
        batch = dt.draw_block_targets(grid.visible_mask[None], *args,
                                      np.random.default_rng(3))
        np.testing.assert_array_equal(batch, flat[None])

    def test_node_masking_whole_columns(self):
        grid, _ = dt.synth_generate(1, 6, 120, dt.SynthParams())
        masked = dt.mask_node(grid, [2])
        np.testing.assert_array_equal(masked.eval_mask[:, 2],
                                      grid.observed_mask[:, 2])
        assert masked.eval_mask[:, [0, 1, 3, 4, 5]].sum() == 0
        unchanged = dt.mask_node(grid, [])
        assert unchanged.eval_mask.sum() == 0

    def test_node_masking_all_nodes_is_an_error(self):
        grid, _ = dt.synth_generate(1, 4, 120, dt.SynthParams())
        with pytest.raises(DataError):
            dt.mask_node(grid, [0, 1, 2, 3])

    def test_node_masking_unknown_id(self):
        grid, _ = dt.synth_generate(1, 4, 120, dt.SynthParams())
        with pytest.raises(DataError):
            dt.mask_node(grid, ["nope"])
        with pytest.raises(DataError):
            dt.mask_node(grid, [99])

    def test_masking_deterministic_under_seed(self):
        grid, _ = dt.synth_generate(1, 6, 240, dt.SynthParams())
        a = dt.mask_point(grid, 0.2, seed=9)
        b = dt.mask_point(grid, 0.2, seed=9)
        np.testing.assert_array_equal(a.eval_mask, b.eval_mask)


class TestMetrics:
    def test_perfect_prediction(self):
        x = np.array([[1.0, 2.0]])
        m = dt.metrics(x, x, np.ones((1, 2), bool))
        assert m == {"mae": 0.0, "mse": 0.0, "mre": 0.0}

    def test_single_cell(self):
        m = dt.metrics(np.array([[1.0]]), np.array([[2.0]]), np.ones((1, 1), bool))
        assert m["mae"] == 1.0 and m["mse"] == 1.0 and m["mre"] == 0.5

    def test_cells_outside_eval_do_not_matter(self):
        x = np.array([[2.0, 100.0]])
        x_hat = np.array([[1.0, -55.0]])
        mask = np.array([[True, False]])
        m = dt.metrics(x_hat, x, mask)
        assert m["mae"] == 1.0

    def test_errors(self):
        with pytest.raises(DataError):
            dt.metrics(np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1), bool))
        with pytest.raises(DataError):
            dt.metrics(np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1), bool))


class TestNormalize:
    def test_round_trip_identity(self):
        grid, _ = dt.synth_generate(3, 6, 120, dt.SynthParams())
        normed, stats = dt.normalize(grid)
        back = dt.denormalize(normed.values, stats)
        np.testing.assert_allclose(back[grid.observed_mask],
                                   grid.values[grid.observed_mask], atol=1e-12)

    def test_visible_cells_standardized(self):
        grid, _ = dt.synth_generate(3, 6, 480, dt.SynthParams())
        grid = dt.mask_point(grid, 0.2, seed=1)
        normed, _ = dt.normalize(grid)
        vis = grid.visible_mask
        for j in range(6):
            col = normed.values[vis[:, j], j]
            assert abs(col.mean()) < 1e-9
            assert abs(col.std() - 1.0) < 1e-9

    def test_constant_node_guard(self):
        values = np.column_stack([np.full(30, 7.0), np.arange(30.0)])
        grid = dt.MaskedGrid(values=values,
                             observed_mask=np.ones((30, 2), bool),
                             eval_mask=np.zeros((30, 2), bool),
                             timestamps=np.arange(30.0))
        normed, stats = dt.normalize(grid)
        assert stats.std[0] == 1.0
        np.testing.assert_allclose(normed.values[:, 0], 0.0)
