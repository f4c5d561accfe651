import numpy as np
import pytest

from hgaclust import cli
from hgaclust.dataset import FeatureMatrix
from hgaclust.errors import ContractError, InputError
from hgaclust.pca import EigenPairs, covariance_matrix, project, symmetric_eigendecomposition


class TestCovariance:
    def test_equal_columns(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        cov = covariance_matrix(x)
        var = np.var(x[:, 0], ddof=1)
        assert cov == pytest.approx(np.full((2, 2), var))

    def test_centered_cross(self):
        # hand computation with divisor n-1 = 3
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        cov = covariance_matrix(x)
        assert cov == pytest.approx(np.diag([2.0 / 3.0, 2.0 / 3.0]))

    def test_single_constant_column(self):
        cov = covariance_matrix(np.array([[5.0], [5.0], [5.0]]))
        assert cov.shape == (1, 1)
        assert cov[0, 0] == 0.0

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        cov = covariance_matrix(rng.normal(size=(50, 13)))
        assert np.abs(cov - cov.T).max() == 0.0

    def test_single_row_rejected(self):
        with pytest.raises(InputError, match="covariance needs at least 2 rows"):
            covariance_matrix(np.ones((1, 3)))


class TestEigendecomposition:
    def test_identity(self):
        eig = symmetric_eigendecomposition(np.eye(3))
        assert eig.eigenvalues == pytest.approx([1.0, 1.0, 1.0])
        self._check_contract(np.eye(3), eig)

    def test_diagonal_sign_canonicalization(self):
        eig = symmetric_eigendecomposition(np.diag([4.0, 1.0]))
        assert eig.eigenvalues == pytest.approx([4.0, 1.0])
        assert eig.eigenvectors[:, 0] == pytest.approx([1.0, 0.0])
        assert eig.eigenvectors[:, 1] == pytest.approx([0.0, 1.0])

    def test_two_by_two_closed_form(self):
        eig = symmetric_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = 1 / np.sqrt(2)
        assert eig.eigenvalues == pytest.approx([3.0, 1.0])
        assert eig.eigenvectors[:, 0] == pytest.approx([s, s])
        # ties in |v| resolve toward the lowest index, so (1,-1) keeps its sign
        assert eig.eigenvectors[:, 1] == pytest.approx([s, -s])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ContractError):
            symmetric_eigendecomposition(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            symmetric_eigendecomposition(np.ones((2, 3)))

    @pytest.mark.parametrize("d", [2, 5, 13])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_fixtures_meet_contract(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        cov = (a + a.T) / 2
        eig = symmetric_eigendecomposition(cov)
        assert (np.diff(eig.eigenvalues) <= 1e-12).all()
        self._check_contract(cov, eig)

    @staticmethod
    def _check_contract(cov, eig):
        for lam, v in zip(eig.eigenvalues, eig.eigenvectors.T):
            assert np.linalg.norm(cov @ v - lam * v) <= 1e-8 * max(1.0, abs(lam))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(len(eig.eigenvalues))).max() <= 1e-8


class TestProject:
    def test_line_data_has_zero_second_component(self):
        t = np.linspace(-3, 3, 20)
        x = np.column_stack([t, t])  # y = x
        eig = symmetric_eigendecomposition(covariance_matrix(x))
        proj = project(x, eig, k=2)
        assert np.abs(proj.points[:, 1]).max() < 1e-9

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 6))
        eig = symmetric_eigendecomposition(covariance_matrix(x))
        proj = project(x, eig, k=6)
        reconstructed = proj.points @ eig.eigenvectors.T
        centered = x - x.mean(axis=0)
        assert np.abs(reconstructed - centered).max() < 1e-8

    def test_negative_round_off_eigenvalue_counts_as_zero(self):
        # over the plain eigenvalue sum 1 - 1e-16, the first ratio would be 1.0000000000000002
        eig = EigenPairs(np.array([1.0, -1e-16]), np.eye(2))
        proj = project(np.array([[0.0, 0.0], [1.0, 0.0]]), eig, k=2)
        assert proj.explained_variance_ratio == (1.0, 0.0)

    def test_k_larger_than_d_rejected(self):
        x = np.random.default_rng(0).normal(size=(5, 2))
        eig = symmetric_eigendecomposition(covariance_matrix(x))
        with pytest.raises(ContractError, match="k=3 exceeds the 2 available components"):
            project(x, eig, k=3)

    def test_pc1_variance_is_top_eigenvalue(self, prepared):
        _, features, _, projected = prepared
        eig = symmetric_eigendecomposition(covariance_matrix(features))
        var1 = np.var(projected.points[:, 0], ddof=1)
        assert abs(var1 - eig.eigenvalues[0]) <= 1e-6 * abs(eig.eigenvalues[0])

    def test_projected_variances_sum_to_trace(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 7)) * rng.uniform(0.5, 4.0, size=7)
        cov = covariance_matrix(x)
        eig = symmetric_eigendecomposition(cov)
        proj = project(x, eig, k=7)
        total = np.var(proj.points, axis=0, ddof=1).sum()
        assert abs(total - np.trace(cov)) <= 1e-6 * abs(np.trace(cov))

    def test_row_reordering_maps_point_i_to_row_i(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 4))
        eig = symmetric_eigendecomposition(covariance_matrix(x))
        proj = project(x, eig, k=2)
        perm = rng.permutation(30)
        proj_perm = project(x[perm], symmetric_eigendecomposition(covariance_matrix(x[perm])), k=2)
        assert np.abs(proj_perm.points - proj.points[perm]).max() < 1e-9

    def test_fixture_regression_values(self, prepared):
        # frozen from the first verified run on the bundled fixture
        _, _, _, projected = prepared
        assert projected.points.shape == (303, 2)
        r1, r2 = projected.explained_variance_ratio
        assert r1 == pytest.approx(0.15789956801185082, abs=1e-12)
        assert r2 == pytest.approx(0.09349625010629378, abs=1e-12)
        assert r1 >= r2 >= 0
        assert r1 + r2 <= 1 + 1e-9

    def test_projection_csv_export(self, prepared, heart_csv, tmp_path):
        _, _, labels, projected = prepared
        out = tmp_path / "proj.csv"
        assert cli.main(["pca", "--input", heart_csv, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pc1,pc2,target"
        assert len(lines) == 304
        for line, (x, y), label in zip(lines[1:], projected.points.tolist(), labels.tolist()):
            pc1, pc2, target = line.split(",")
            assert (float(pc1).hex(), float(pc2).hex()) == (x.hex(), y.hex())
            assert int(target) == label
