"""Unit tests for the sanitization boundary
(repro.robustness.validate) and the count-bearing finite checks it
installed at the geometry level."""

import numpy as np
import pytest

from repro.geometry import BoundingBox
from repro.robustness import (
    CloudValidationError,
    ValidationPolicy,
    sanitize_cloud,
)
from repro.robustness.validate import (
    count_non_finite,
    ensure_finite,
    sanitize_batch,
)


def _salted(rng, n=32, bad=4):
    cloud = rng.random((n, 3))
    cloud[:bad, 0] = np.nan
    return cloud


class TestPolicy:
    def test_constructors(self):
        assert ValidationPolicy.reject().on_invalid == "reject"
        assert ValidationPolicy.repair().on_invalid == "repair"
        assert ValidationPolicy.clamp().on_invalid == "clamp"

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            ValidationPolicy(on_invalid="shrug")

    def test_rejects_bad_min_points(self):
        with pytest.raises(ValueError):
            ValidationPolicy(min_points=0)

    def test_rejects_bad_unique_fraction(self):
        with pytest.raises(ValueError):
            ValidationPolicy(min_unique_fraction=1.5)


class TestSanitizeCloud:
    def test_clean_cloud_untouched(self, rng):
        cloud = rng.random((16, 3))
        out, report = sanitize_cloud(cloud)
        assert report.ok
        assert report.summary().startswith("clean cloud")
        np.testing.assert_array_equal(out, cloud)

    def test_reject_raises_with_report(self, rng):
        with pytest.raises(CloudValidationError) as info:
            sanitize_cloud(_salted(rng))
        assert "4 of 32" in str(info.value)
        report = info.value.report
        assert report.issues[0].kind == "non_finite"
        assert report.issues[0].count == 4

    def test_repair_drops_bad_rows(self, rng):
        out, report = sanitize_cloud(
            _salted(rng), ValidationPolicy.repair()
        )
        assert out.shape == (28, 3)
        assert np.isfinite(out).all()
        assert report.dropped == 4

    def test_clamp_pulls_into_derived_box(self, rng):
        cloud = rng.random((16, 3))
        cloud[0] = [np.nan, np.inf, -np.inf]
        out, report = sanitize_cloud(cloud, ValidationPolicy.clamp())
        assert out.shape == (16, 3)
        assert np.isfinite(out).all()
        box = BoundingBox.of_points(cloud[1:])
        assert box.contains(out).all()
        # NaN -> box center, +/-Inf -> the matching box face.
        assert out[0, 0] == pytest.approx(box.center[0])
        assert out[0, 1] == pytest.approx(box.maximum[1])
        assert out[0, 2] == pytest.approx(box.minimum[2])

    def test_clamp_all_non_finite_rejects(self):
        cloud = np.full((4, 3), np.nan)
        with pytest.raises(CloudValidationError):
            sanitize_cloud(cloud, ValidationPolicy.clamp())

    def test_out_of_box_repair(self, rng):
        box = BoundingBox(np.zeros(3), np.ones(3))
        cloud = rng.random((16, 3))
        cloud[:3] += 10.0
        out, report = sanitize_cloud(
            cloud, ValidationPolicy.repair(bounding_box=box)
        )
        assert out.shape == (13, 3)
        assert box.contains(out).all()
        assert report.issues[0].kind == "out_of_box"

    def test_out_of_box_clamp(self, rng):
        box = BoundingBox(np.zeros(3), np.ones(3))
        cloud = rng.random((16, 3))
        cloud[:3] += 10.0
        out, _ = sanitize_cloud(
            cloud, ValidationPolicy.clamp(bounding_box=box)
        )
        assert out.shape == (16, 3)
        assert box.contains(out).all()

    def test_undersized_rejects_under_every_policy(self, rng):
        cloud = _salted(rng, n=4, bad=4)
        for policy in (
            ValidationPolicy.reject(min_points=2),
            ValidationPolicy.repair(min_points=2),
        ):
            with pytest.raises(CloudValidationError) as info:
                sanitize_cloud(cloud, policy)
            assert info.value.report.n_output in (0, 4)

    def test_duplicate_collapse_reject(self):
        cloud = np.ones((8, 3))
        with pytest.raises(CloudValidationError) as info:
            sanitize_cloud(cloud)
        assert "duplicate-collapsed" in str(info.value)

    def test_duplicate_collapse_flagged_under_repair(self):
        out, report = sanitize_cloud(
            np.ones((8, 3)), ValidationPolicy.repair()
        )
        assert out.shape == (8, 3)
        assert report.issues[0].action == "flagged"

    @pytest.mark.parametrize("policy_name", ["reject", "repair", "clamp"])
    @pytest.mark.parametrize("floor", [0.0, 0.5])
    @pytest.mark.parametrize(
        "cloud_name",
        ["all_identical", "signed_zero", "two_distinct", "one_off",
         "distinct"],
    )
    def test_duplicate_collapse_reports_match_unique_count(
        self, policy_name, floor, cloud_name, rng
    ):
        """Without a floor the check skips the sort-based distinct
        count; every collapse report, count and detail string must
        still be the one that count gives."""
        clouds = {
            "all_identical": np.full((16, 3), 0.25),
            "signed_zero": np.where(
                np.arange(16)[:, None] % 2, 0.0, -0.0
            ) * np.ones((16, 3)),
            "two_distinct": np.repeat(rng.random((2, 3)), 8, axis=0),
            "one_off": np.vstack([np.ones((15, 3)), [[1.0, 1.0, 2.0]]]),
            "distinct": rng.random((16, 3)),
        }
        cloud = clouds[cloud_name]
        policy = getattr(ValidationPolicy, policy_name)(
            min_unique_fraction=floor
        )
        unique = np.unique(cloud, axis=0).shape[0]
        fires = unique == 1 or unique / cloud.shape[0] < floor
        detail = f"{unique} distinct of {cloud.shape[0]}"
        if fires and policy_name == "reject":
            with pytest.raises(CloudValidationError) as info:
                sanitize_cloud(cloud, policy)
            assert str(info.value) == (
                f"cloud is duplicate-collapsed ({detail})"
            )
            report = info.value.report
            action = "rejected"
        else:
            _, report = sanitize_cloud(cloud, policy)
            action = "flagged"
        expected = (
            [("duplicate_collapse", cloud.shape[0] - unique, action,
              detail)]
            if fires else []
        )
        assert [
            (i.kind, i.count, i.action, i.detail) for i in report.issues
        ] == expected

    def test_unique_fraction_floor(self, rng):
        cloud = np.repeat(rng.random((2, 3)), 8, axis=0)
        with pytest.raises(CloudValidationError):
            sanitize_cloud(
                cloud, ValidationPolicy(min_unique_fraction=0.5)
            )
        # The same cloud passes without the floor (2 distinct points).
        out, _ = sanitize_cloud(cloud)
        assert out.shape == (16, 3)

    def test_extra_channels_sliced_under_repair(self, rng):
        cloud = rng.random((8, 5))  # xyz + intensity + ring
        out, report = sanitize_cloud(cloud, ValidationPolicy.repair())
        assert out.shape == (8, 3)
        assert report.issues[0].kind == "extra_channels"

    def test_extra_channels_rejected_under_reject(self, rng):
        with pytest.raises(CloudValidationError):
            sanitize_cloud(rng.random((8, 5)))

    def test_bad_shape_always_rejects(self, rng):
        with pytest.raises(CloudValidationError):
            sanitize_cloud(
                rng.random((8, 2)), ValidationPolicy.repair()
            )

    def test_non_numeric_always_rejects(self):
        with pytest.raises(CloudValidationError):
            sanitize_cloud(
                np.array([["a", "b", "c"]], dtype=object),
                ValidationPolicy.repair(),
            )


class TestSanitizeBatch:
    def test_repair_pads_back_to_rectangular(self, rng):
        xyz = rng.random((2, 16, 3))
        xyz[1, :4, 2] = np.inf
        out, reports = sanitize_batch(xyz, ValidationPolicy.repair())
        assert out.shape == (2, 16, 3)
        assert np.isfinite(out).all()
        assert reports[0].ok
        assert reports[1].n_output == 16
        kinds = [issue.kind for issue in reports[1].issues]
        assert kinds == ["non_finite", "undersized"]

    def test_rejects_non_batch_shape(self, rng):
        with pytest.raises(CloudValidationError):
            sanitize_batch(rng.random((16, 3)))


class TestFiniteHelpers:
    def test_count_non_finite(self):
        cloud = np.zeros((5, 3))
        cloud[1, 0] = np.nan
        cloud[1, 1] = np.inf  # same point: counted once
        cloud[3, 2] = -np.inf
        assert count_non_finite(cloud) == 2
        assert count_non_finite(np.empty((0, 3))) == 0

    def test_ensure_finite_message(self):
        cloud = np.zeros((5, 3))
        cloud[2, 1] = np.nan
        with pytest.raises(ValueError, match="1 of 5"):
            ensure_finite(cloud, "sample")


class TestCountBearingGeometryErrors:
    def test_structurize_counts_bad_points(self):
        from repro.core import structurize

        cloud = np.zeros((6, 3))
        cloud[0, 0] = np.nan
        cloud[4, 2] = np.inf
        with pytest.raises(ValueError, match="2 of 6"):
            structurize(cloud)

    def test_bbox_of_points_counts_bad_points(self):
        cloud = np.zeros((4, 3))
        cloud[3, 1] = np.nan
        with pytest.raises(ValueError, match="1 of 4"):
            BoundingBox.of_points(cloud)

    def test_bbox_rejects_non_finite_corners(self):
        with pytest.raises(ValueError):
            BoundingBox(np.zeros(3), np.array([1.0, np.inf, 1.0]))

    def test_sampler_precomputed_order_checks_finite(self, rng):
        from repro.core import MortonSampler, structurize

        cloud = rng.random((32, 3))
        order = structurize(cloud)
        cloud[0, 0] = np.nan  # corrupted after structurization
        with pytest.raises(ValueError, match="1 of 32"):
            MortonSampler().sample(cloud, 8, order=order)

    def test_search_precomputed_order_checks_finite(self, rng):
        from repro.core import MortonNeighborSearch, structurize

        cloud = rng.random((32, 3))
        order = structurize(cloud)
        cloud[5, 2] = np.inf
        with pytest.raises(ValueError, match="1 of 32"):
            MortonNeighborSearch(4).search(cloud, order=order)


class TestDatasetBoundary:
    def test_generator_fault_fails_loudly(self):
        from repro.datasets.base import SyntheticDataset
        from repro.geometry.points import PointCloud

        class StuckSensorDataset(SyntheticDataset):
            def _generate(self, index, rng):
                # Finite but duplicate-collapsed: slips past the
                # PointCloud constructor, caught by the sanitizer.
                return PointCloud(
                    np.ones((self.points_per_cloud, 3))
                )

        data = StuckSensorDataset(num_clouds=2, points_per_cloud=8)
        with pytest.raises(RuntimeError, match="index 0"):
            data[0]

    def test_clean_generator_unaffected(self):
        from repro.datasets import ModelNetLike

        data = ModelNetLike(num_clouds=2, points_per_cloud=32)
        assert len(data[0]) == 32
