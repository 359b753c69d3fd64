"""Tests for the real-dataset file loaders."""

import numpy as np
import pytest

from repro.datasets.io import load_dense, load_libsvm
from repro.exceptions import ConfigurationError


@pytest.fixture
def libsvm_file(tmp_path):
    path = tmp_path / "data.svm"
    path.write_text(
        "1 1:0.5 3:2.0\n"
        "-1 2:1.5\n"
        "\n"
        "# a comment line\n"
        "1 1:1.0 2:1.0 4:4.0\n"
    )
    return str(path)


class TestLoadLibsvm:
    def test_shapes_and_values(self, libsvm_file):
        points, labels = load_libsvm(libsvm_file, dim=4)
        assert points.shape == (3, 4)
        assert labels.tolist() == [1.0, -1.0, 1.0]
        assert points[0].tolist() == [0.5, 0.0, 2.0, 0.0]
        assert points[1].tolist() == [0.0, 1.5, 0.0, 0.0]
        assert points[2].tolist() == [1.0, 1.0, 0.0, 4.0]

    def test_max_rows(self, libsvm_file):
        points, labels = load_libsvm(libsvm_file, dim=4, max_rows=2)
        assert points.shape == (2, 4)

    def test_zero_based(self, tmp_path):
        path = tmp_path / "zb.svm"
        path.write_text("1 0:9.0 2:3.0\n")
        points, _ = load_libsvm(str(path), dim=3, zero_based=True)
        assert points[0].tolist() == [9.0, 0.0, 3.0]

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("1 9:1.0\n")
        with pytest.raises(ConfigurationError):
            load_libsvm(str(path), dim=4)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("xx 1:1.0\n")
        with pytest.raises(ConfigurationError):
            load_libsvm(str(path), dim=4)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("1 nonsense\n")
        with pytest.raises(ConfigurationError):
            load_libsvm(str(path), dim=4)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.svm"
        path.write_text("\n")
        with pytest.raises(ConfigurationError):
            load_libsvm(str(path), dim=4)


class TestLoadDense:
    def test_whitespace_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
        points, labels = load_dense(str(path))
        assert points.shape == (2, 3)
        assert labels is None

    def test_csv_with_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,7\n3.0,4.0,2\n")
        points, labels = load_dense(str(path), delimiter=",", label_column=-1)
        assert points.shape == (2, 2)
        assert labels.tolist() == [7.0, 2.0]

    def test_max_rows(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 2\n3 4\n5 6\n")
        points, _ = load_dense(str(path), max_rows=2)
        assert points.shape == (2, 2)

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1 2 3\n")
        points, _ = load_dense(str(path))
        assert points.shape == (1, 3)

    def test_pipeline_integration(self, tmp_path):
        """Loaded data flows into the standard split + index pipeline."""
        from repro.api import Index, IndexSpec, QuerySpec
        from repro.datasets import split_queries

        rng = np.random.default_rng(0)
        data = rng.normal(size=(120, 6))
        path = tmp_path / "real.txt"
        np.savetxt(path, data)
        points, _ = load_dense(str(path))
        train, queries = split_queries(points, num_queries=10, seed=0)
        index = Index.build(train, IndexSpec(
            metric="l2", radius=1.5, num_tables=5, cost_ratio=6.0, seed=1
        ))
        result = index.query(QuerySpec(queries[0]))
        assert result.output_size >= 0
