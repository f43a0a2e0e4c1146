import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import tibt
from tibt.benchmarks import read_matrix_market, save_matrix_market
from tibt.errors import DimensionMismatchError, ParseError
from tibt.linalg import TridiagonalOperator


class TestHeatRod:
    def test_smallest_instance_matrix(self):
        m = tibt.heat_rod(3)
        expected = 16.0 * np.array([[-2.0, 1.0, 0.0],
                                    [1.0, -2.0, 1.0],
                                    [0.0, 1.0, -2.0]])
        assert np.allclose(m.A.to_dense(), expected)
        assert np.allclose(m.B.ravel(), [4.0, 0.0, 0.0])
        assert np.allclose(m.C.ravel(), [0.0, 1.0, 0.0])

    def test_analytic_spectrum(self):
        n = 10
        m = tibt.heat_rod(n)
        lam = np.sort(np.linalg.eigvalsh(m.A.to_dense()))
        i = np.arange(1, n + 1)
        analytic = np.sort(-4.0 * (n + 1) ** 2 * np.sin(i * np.pi / (2 * (n + 1))) ** 2)
        assert np.allclose(lam, analytic, rtol=1e-12)
        assert np.all(lam < 0)

    def test_ten_million_states_stay_cheap(self):
        n = 10**7
        m = tibt.heat_rod(n)
        op = m.A
        footprint = (op._lo.nbytes + op._d.nbytes + op._up.nbytes
                     + m.B.nbytes + m.C.nbytes)
        assert footprint < 1024**3  # representable well under 1 GB
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(n)
        x = op.shifted_solve(1.0, rhs)
        resid = np.linalg.norm(op.apply(x) - 1.0 * x - rhs)
        norm_a = 4.0 * (n + 1) ** 2  # infinity norm of the stiffness matrix
        assert resid <= 1e-12 * (norm_a * np.linalg.norm(x) + np.linalg.norm(rhs))

    def test_hsv_decay(self):
        hsv = tibt.hankel_singular_values(tibt.heat_rod(200))
        assert hsv[19] / hsv[0] < 1e-6

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            tibt.heat_rod(2)


class TestRandomStable:
    def test_deterministic_in_seed(self):
        m1 = tibt.random_stable(20, 2, 3, seed=5)
        m2 = tibt.random_stable(20, 2, 3, seed=5)
        assert np.array_equal(m1.A.to_dense(), m2.A.to_dense())
        assert np.array_equal(m1.B, m2.B)
        assert np.array_equal(m1.C, m2.C)

    def test_shapes(self):
        m = tibt.random_stable(20, 2, 3, seed=0)
        assert m.B.shape == (20, 2)
        assert m.C.shape == (3, 20)

    def test_hundred_seeds_all_hurwitz(self):
        for seed in range(100):
            m = tibt.random_stable(20, 1, 1, seed=seed)
            lam = np.linalg.eigvals(m.A.to_dense())
            assert np.max(lam.real) < 0


class TestIllustrative4:
    def test_exact_realization(self):
        m = tibt.illustrative4()
        assert np.allclose(m.A.to_dense(), np.diag([-0.1, -0.2, -100.0, -200.0]))
        assert np.allclose(m.B.ravel(), [1.0, 1.0, 1.0e4, 1.0])
        assert np.allclose(m.C.ravel(), [1.0, 1.0, 1.0, 1.0e4])

    def test_hankel_values(self):
        hsv = tibt.hankel_singular_values(tibt.illustrative4())
        assert np.allclose(hsv, [73.1370, 7.2831, 1.8919, 0.1880],
                           rtol=0, atol=1e-4)


class TestConstructorsHurwitz:
    @pytest.mark.parametrize("model", [
        tibt.heat_rod(50),
        tibt.random_stable(40, 2, 2, seed=4),
        tibt.illustrative4(),
    ])
    def test_is_hurwitz(self, model):
        assert tibt.is_hurwitz(model)


def _write_rod_files(tmp_path, n, symmetry):
    """Write ``heat_rod(n)`` as a tridiagonal coordinate A (lower triangle
    only when symmetric) and array-format B and C; return the rod and paths."""
    rod = tibt.heat_rod(n)
    h2 = float(n + 1) ** 2
    entries = [f"{i} {i} {-2.0 * h2!r}" for i in range(1, n + 1)]
    entries += [f"{i + 1} {i} {h2!r}" for i in range(1, n)]
    if symmetry == "general":
        entries += [f"{i} {i + 1} {h2!r}" for i in range(1, n)]
    pa, pb, pc = (tmp_path / x for x in ("a.mtx", "b.mtx", "c.mtx"))
    pa.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                  f"{n} {n} {len(entries)}\n" + "\n".join(entries) + "\n")
    save_matrix_market(pb, rod.B)
    save_matrix_market(pc, rod.C)
    return rod, (pa, pb, pc)


def _traced_load(paths):
    """Load a model and return it with the traced allocation peak in bytes."""
    tracemalloc.start()
    try:
        loaded = tibt.load_matrix_market(*paths)
        return loaded, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatrixMarket:
    def test_round_trip_bitwise(self, tmp_path):
        m = tibt.illustrative4()
        paths = {}
        for name, mat in (("a", m.A.to_dense()), ("b", m.B), ("c", m.C)):
            paths[name] = tmp_path / f"{name}.mtx"
            save_matrix_market(paths[name], mat)
        loaded = tibt.load_matrix_market(paths["a"], paths["b"], paths["c"])
        assert np.array_equal(loaded.A.to_dense(), m.A.to_dense())
        assert np.array_equal(loaded.B, m.B)
        assert np.array_equal(loaded.C, m.C)

    def test_one_by_one_array(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n-1\n")
        assert np.allclose(read_matrix_market(path), [[-1.0]])

    def test_symmetric_coordinate_lower_triangle(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% lower triangle only\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "2 2 2.0\n"
            "3 2 -0.5\n"
        )
        mat = read_matrix_market(path)
        expected = np.array([[2.0, -1.0, 0.0],
                             [-1.0, 2.0, -0.5],
                             [0.0, -0.5, 0.0]])
        assert np.array_equal(mat, expected)

    def test_tridiagonal_pattern_detected(self, tmp_path):
        m = tibt.heat_rod(6)
        pa, pb, pc = (tmp_path / x for x in ("a.mtx", "b.mtx", "c.mtx"))
        save_matrix_market(pa, m.A.to_dense())
        save_matrix_market(pb, m.B)
        save_matrix_market(pc, m.C)
        loaded = tibt.load_matrix_market(pa, pb, pc)
        assert isinstance(loaded.A, TridiagonalOperator)
        assert np.allclose(loaded.A.to_dense(), m.A.to_dense())

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_tridiagonal_coordinate_loads_without_densifying(self, tmp_path, symmetry):
        rod, paths = _write_rod_files(tmp_path, 3000, symmetry)
        loaded, peak = _traced_load(paths)
        assert peak < 16 * 2**20  # a dense A alone takes 69 MiB
        assert isinstance(loaded.A, TridiagonalOperator)
        for band in ("_lo", "_d", "_up"):
            assert np.array_equal(getattr(loaded.A, band), getattr(rod.A, band))

    def test_loaded_rod_checked_in_linear_time(self, tmp_path, monkeypatch):
        _, paths = _write_rod_files(tmp_path, 30_000, "symmetric")
        loaded = tibt.load_matrix_market(*paths)

        def refuse(*args, **kwargs):
            raise AssertionError("spectrum or dense matrix computed")

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", refuse)
        monkeypatch.setattr(TridiagonalOperator, "to_dense", refuse)
        assert tibt.is_hurwitz(loaded)

    def test_files_stream_without_keeping_lines(self, tmp_path):
        # about 4e4 lines, which would take about 7 MiB if kept as strings
        rod, paths = _write_rod_files(tmp_path, 10**4, "symmetric")
        loaded, peak = _traced_load(paths)
        assert peak < 4 * 2**20
        for band in ("_lo", "_d", "_up"):
            assert np.array_equal(getattr(loaded.A, band), getattr(rod.A, band))
        assert np.array_equal(loaded.B, rod.B)
        assert np.array_equal(loaded.C, rod.C)

    def test_coordinate_last_entry_wins(self, tmp_path):
        pa, pb, pc = (tmp_path / x for x in ("a.mtx", "b.mtx", "c.mtx"))
        # (1, 2) overrides the mirror of (2, 1), whose own mirror then
        # overrides it back; (4, 1) is cleared by its later explicit zero
        pa.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "4 4 8\n"
            "1 1 -5.0\n2 1 1.0\n1 2 2.0\n2 2 -6.0\n"
            "4 1 9.0\n3 3 -7.0\n4 1 0.0\n4 4 -1.0\n"
        )
        save_matrix_market(pb, np.ones((4, 1)))
        save_matrix_market(pc, np.ones((1, 4)))
        expected = np.array([[-5.0, 2.0, 0.0, 0.0],
                             [2.0, -6.0, 0.0, 0.0],
                             [0.0, 0.0, -7.0, 0.0],
                             [0.0, 0.0, 0.0, -1.0]])
        assert np.array_equal(read_matrix_market(pa), expected)
        loaded = tibt.load_matrix_market(pa, pb, pc)
        assert isinstance(loaded.A, TridiagonalOperator)
        assert np.array_equal(loaded.A.to_dense(), expected)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 3.0\n"
            "2 oops 4.0\n"
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 4

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%NotMatrixMarket nothing\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("text, message, line", [
        ("%%MatrixMarket vector coordinate real general\n", "unsupported object 'vector'", 1),
        ("%%MatrixMarket matrix dense real general\n", "unsupported format 'dense'", 1),
        ("%%MatrixMarket matrix array complex general\n", "unsupported field 'complex'", 1),
        ("%%MatrixMarket matrix array real hermitian\n", "unsupported symmetry 'hermitian'", 1),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n",
         "coordinate size line needs 'rows cols nnz'", 2),
        ("%%MatrixMarket matrix array real general\n2 2 4\n",
         "array size line needs 'rows cols'", 2),
        ("%%MatrixMarket matrix array real general\n2 2.5\n", "non-integer size entry", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
         "coordinate entry needs 'i j value'", 3),
    ], ids=["object", "format", "field", "symmetry", "coordinate-size-line",
            "array-size-line", "non-integer-size", "coordinate-entry"])
    def test_malformed_line_rejected(self, tmp_path, text, message, line):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert str(err.value) == f"{path}: line {line}: {message}"

    def test_out_of_bounds_index_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n"
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 3

    def test_symmetric_array_lower_triangle_order(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n4 4\n"
                        + "".join(f"{k}\n" for k in range(1, 11)))
        expected = np.array([[1.0, 2.0, 3.0, 4.0],
                             [2.0, 5.0, 6.0, 7.0],
                             [3.0, 6.0, 8.0, 9.0],
                             [4.0, 7.0, 9.0, 10.0]])
        assert np.array_equal(read_matrix_market(path), expected)

    def test_integer_field(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text("%%MatrixMarket matrix array integer general\n"
                        "2 2\n1\n-2\n3\n4\n")
        mat = read_matrix_market(path)
        assert mat.dtype == np.float64
        assert np.array_equal(mat, [[1.0, 3.0], [-2.0, 4.0]])

    @pytest.mark.parametrize("text, message", [
        ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 2.0\n",
         "expected 3 entries, found 2"),
        ("%%MatrixMarket matrix array real general\n1 2\n1\n% note\n2\n\n3\n4\n",
         "expected 2 values, found 4"),
    ], ids=["too-few-entries", "too-many-values"])
    def test_count_mismatch_reported_at_size_line(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line 2: {message}$") as err:
            read_matrix_market(path)
        assert err.value.line == 2

    def test_malformed_entry_reported_before_count(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 1\n1\nx\n3\n")
        with pytest.raises(ParseError, match="malformed value") as err:
            read_matrix_market(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("text, message, line", [
        ("", "empty file", 1),
        ("%%MatrixMarket matrix array real general\n% no sizes\n\n",
         "missing size line", 3),
    ], ids=["empty", "no-size-line"])
    def test_file_without_data_rejected(self, tmp_path, text, message, line):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            read_matrix_market(path)
        assert err.value.line == line

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
        "%%MatrixMarket matrix array real general\n-2 -3\n",
    ], ids=["coordinate", "array"])
    def test_negative_size_rejected(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ParseError, match="negative size entry") as err:
            read_matrix_market(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("fmt, data", [("array", "3 2"),
                                           ("coordinate", "3 2 1\n3 1 1.0")])
    def test_non_square_symmetric_rejected(self, tmp_path, fmt, data):
        path = tmp_path / "bad.mtx"
        path.write_text(f"%%MatrixMarket matrix {fmt} real symmetric\n{data}\n")
        message = f"symmetric {fmt} matrix must be square"
        with pytest.raises(ParseError, match=message) as err:
            read_matrix_market(path)
        assert err.value.line == 2

    def test_parse_error_names_the_file(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert str(err.value) == f"{path}: line 2: expected 2 values, found 1"
        assert err.value.line == 2

    def test_non_ascii_comment_ignored(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_bytes("%%MatrixMarket matrix array real general\n% café\n"
                         "2 1\n1.0\n2.0\n".encode("utf-8"))
        assert np.array_equal(read_matrix_market(path), [[1.0], [2.0]])

    @pytest.mark.parametrize("fmt, data, message", [
        ("array", "2 1\n1.0\n2.0é\n", "malformed value"),
        ("coordinate", "2 1 2\n1 1 1.0\n2 1 é\n", "malformed coordinate entry"),
    ], ids=["array", "coordinate"])
    def test_non_ascii_data_line_rejected(self, tmp_path, fmt, data, message):
        path = tmp_path / "b.mtx"
        path.write_bytes(f"%%MatrixMarket matrix {fmt} real general\n{data}".encode("utf-8"))
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert str(err.value) == f"{path}: line 4: {message}"

    def test_dimension_mismatch_rejected(self, tmp_path):
        pa, pb, pc = (tmp_path / x for x in ("a.mtx", "b.mtx", "c.mtx"))
        save_matrix_market(pa, np.diag([-1.0, -2.0]))
        save_matrix_market(pb, np.ones((3, 1)))
        save_matrix_market(pc, np.ones((1, 2)))
        with pytest.raises(DimensionMismatchError):
            tibt.load_matrix_market(pa, pb, pc)

    @pytest.mark.parametrize("a, c, message", [
        (np.ones((2, 3)), np.ones((1, 2)), r"A must be square, got \(2, 3\)"),
        (-np.eye(2), np.ones((1, 3)), "C has 3 columns, expected 2"),
    ], ids=["non-square-a", "c-columns"])
    def test_inconsistent_shapes_rejected(self, tmp_path, a, c, message):
        pa, pb, pc = (tmp_path / x for x in ("a.mtx", "b.mtx", "c.mtx"))
        save_matrix_market(pa, a)
        save_matrix_market(pb, np.ones((2, 1)))
        save_matrix_market(pc, c)
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            tibt.load_matrix_market(pa, pb, pc)
