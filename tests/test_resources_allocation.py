"""Unit and property tests for configurations and the configuration space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import (
    Configuration,
    ConfigurationSpace,
    Resource,
    ServerSpec,
    default_server,
    small_server,
)


@pytest.fixture
def space3():
    """3 jobs on the default server."""
    return ConfigurationSpace(default_server(), 3)


class TestConfiguration:
    def test_from_matrix_and_accessors(self):
        c = Configuration.from_matrix([[1, 2], [3, 4]])
        assert c.n_jobs == 2
        assert c.n_resources == 2
        assert c.get(0, 1) == 2
        assert c.get(1, 0) == 3

    def test_flat_is_job_major(self):
        c = Configuration.from_matrix([[1, 2], [3, 4]])
        assert c.flat() == (1, 2, 3, 4)

    def test_as_array_is_fresh_copy(self):
        c = Configuration.from_matrix([[1, 2], [3, 4]])
        arr = c.as_array()
        arr[0, 0] = 99
        assert c.get(0, 0) == 1

    def test_with_transfer(self):
        c = Configuration.from_matrix([[3, 2], [1, 2]])
        moved = c.with_transfer(0, donor=0, receiver=1)
        assert moved.get(0, 0) == 2
        assert moved.get(1, 0) == 2
        assert moved.resource_column(1) == (2, 2)  # untouched

    def test_with_transfer_preserves_original(self):
        c = Configuration.from_matrix([[3, 2], [1, 2]])
        c.with_transfer(0, donor=0, receiver=1)
        assert c.get(0, 0) == 3

    def test_transfer_below_floor_rejected(self):
        c = Configuration.from_matrix([[1, 2], [3, 2]])
        with pytest.raises(ValueError, match="cannot give away"):
            c.with_transfer(0, donor=0, receiver=1)

    def test_transfer_self_rejected(self):
        c = Configuration.from_matrix([[3, 2], [1, 2]])
        with pytest.raises(ValueError, match="must differ"):
            c.with_transfer(0, donor=1, receiver=1)

    def test_distance(self):
        a = Configuration.from_matrix([[3, 2], [1, 2]])
        b = Configuration.from_matrix([[1, 2], [3, 2]])
        assert a.distance(b) == pytest.approx(np.sqrt(8))
        assert a.distance(a) == 0.0

    def test_job_allocation_and_resource_column(self):
        c = Configuration.from_matrix([[1, 2, 3], [4, 5, 6]])
        assert c.job_allocation(1) == (4, 5, 6)
        assert c.resource_column(2) == (3, 6)


class TestConfigurationSpaceBasics:
    def test_size_matches_paper_formula(self, space3):
        # prod C(units-1, jobs-1) = C(9,2)*C(10,2)*C(9,2) = 36*45*36
        assert space3.size() == 36 * 45 * 36

    def test_paper_example_four_jobs_three_resources_ten_units(self):
        server = ServerSpec(
            resources=(
                Resource("cores", 10),
                Resource("membw", 10),
                Resource("memcap", 10),
            )
        )
        space = ConfigurationSpace(server, 4)
        # Sec. 2: "the total number of possible configurations is 592,704"
        assert space.size() == 592_704

    def test_n_dims(self, space3):
        assert space3.n_dims == 9

    def test_too_many_jobs_rejected(self):
        with pytest.raises(ValueError, match="cannot each get"):
            ConfigurationSpace(small_server(units=4), 5)

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            ConfigurationSpace(default_server(), 0)

    def test_validate_accepts_equal_partition(self, space3):
        space3.validate(space3.equal_partition())

    def test_validate_rejects_wrong_sum(self, space3):
        bad = Configuration.from_matrix(
            [[3, 3, 3], [3, 4, 3], [3, 4, 3]]
        )  # cores sum 9 != 10
        with pytest.raises(ValueError, match="must sum to"):
            space3.validate(bad)

    def test_validate_rejects_zero_units(self, space3):
        bad = Configuration.from_matrix([[0, 4, 4], [5, 4, 3], [5, 3, 3]])
        with pytest.raises(ValueError, match=">= 1 unit"):
            space3.validate(bad)

    def test_validate_rejects_wrong_shape(self, space3):
        with pytest.raises(ValueError, match="expected 3 jobs"):
            space3.validate(Configuration.from_matrix([[5, 6, 5], [5, 5, 5]]))

    def test_contains(self, space3):
        assert space3.contains(space3.equal_partition())
        assert not space3.contains(Configuration.from_matrix([[10, 11, 10]]))


class TestCanonicalPoints:
    def test_equal_partition_columns_sum(self, space3):
        config = space3.equal_partition()
        assert config.resource_column(0) == (4, 3, 3)  # 10 cores
        assert config.resource_column(1) == (4, 4, 3)  # 11 ways
        assert config.resource_column(2) == (4, 3, 3)  # 10 membw

    def test_max_allocation(self, space3):
        config = space3.max_allocation(1)
        assert config.job_allocation(1) == (8, 9, 8)
        assert config.job_allocation(0) == (1, 1, 1)
        assert config.job_allocation(2) == (1, 1, 1)
        space3.validate(config)

    def test_max_allocation_bad_index(self, space3):
        with pytest.raises(IndexError):
            space3.max_allocation(3)

    def test_single_job_space(self):
        space = ConfigurationSpace(default_server(), 1)
        assert space.size() == 1
        assert space.equal_partition().flat() == (10, 11, 10)


class TestEnumeration:
    def test_enumerate_exact_count(self, tiny_server):
        space = ConfigurationSpace(tiny_server, 2)
        configs = list(space.enumerate())
        assert len(configs) == space.size() == 9  # C(3,1)^2

    def test_enumerate_all_valid_and_unique(self, tiny_server):
        space = ConfigurationSpace(tiny_server, 2)
        seen = set()
        for config in space.enumerate():
            space.validate(config)
            seen.add(config.flat())
        assert len(seen) == space.size()

    def test_strided_enumeration_subset(self, tiny_server):
        space = ConfigurationSpace(tiny_server, 2)
        strided = {c.flat() for c in space.enumerate(stride=2)}
        full = {c.flat() for c in space.enumerate()}
        assert strided <= full
        assert len(strided) < len(full)

    def test_strided_size_matches_enumeration(self, space3):
        for stride in (1, 2, 3):
            assert space3.strided_size(stride) == sum(
                1 for _ in space3.enumerate(stride=stride)
            )

    def test_bad_stride(self, space3):
        with pytest.raises(ValueError):
            list(space3.enumerate(stride=0))

    def test_neighbors_are_valid_and_one_transfer_away(self, space3):
        config = space3.equal_partition()
        neighbors = list(space3.neighbors(config))
        assert neighbors
        for n in neighbors:
            space3.validate(n)
            diff = np.abs(n.as_array() - config.as_array())
            assert diff.sum() == 2  # one unit moved

    def test_neighbors_count(self, tiny_server):
        space = ConfigurationSpace(tiny_server, 2)
        config = space.equal_partition()  # (2,2) per resource
        # per resource: 2 donors x 1 receiver = 2 moves, 2 resources
        assert len(list(space.neighbors(config))) == 4


class TestUnitCube:
    def test_roundtrip_equal_partition(self, space3):
        config = space3.equal_partition()
        assert space3.from_unit_cube(space3.to_unit_cube(config)) == config

    def test_roundtrip_extrema(self, space3):
        for j in range(3):
            config = space3.max_allocation(j)
            assert space3.from_unit_cube(space3.to_unit_cube(config)) == config

    def test_cube_values_in_unit_interval(self, space3):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cube = space3.to_unit_cube(space3.random(rng))
            assert (cube >= 0).all() and (cube <= 1).all()

    def test_from_unit_cube_always_valid(self, space3):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.random(space3.n_dims)
            space3.validate(space3.from_unit_cube(z))

    def test_from_all_zeros(self, space3):
        space3.validate(space3.from_unit_cube(np.zeros(space3.n_dims)))

    def test_bounds_shape(self, space3):
        bounds = space3.bounds()
        assert bounds.shape == (9, 2)
        assert (bounds[:, 0] == 0).all() and (bounds[:, 1] == 1).all()

    def test_degenerate_resource_span(self):
        server = ServerSpec(resources=(Resource("cores", 2),))
        space = ConfigurationSpace(server, 2)
        config = space.equal_partition()
        cube = space.to_unit_cube(config)
        assert (cube == 0).all()
        assert space.from_unit_cube(cube) == config


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@st.composite
def spaces(draw):
    n_res = draw(st.integers(1, 3))
    n_jobs = draw(st.integers(1, 4))
    units = [draw(st.integers(n_jobs, n_jobs + 8)) for _ in range(n_res)]
    server = ServerSpec(
        resources=tuple(Resource(f"r{i}", u) for i, u in enumerate(units))
    )
    return ConfigurationSpace(server, n_jobs)


@given(spaces(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_configs_are_always_valid(space, seed):
    rng = np.random.default_rng(seed)
    config = space.random(rng)
    space.validate(config)


@given(spaces(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_unit_cube_roundtrip_identity(space, seed):
    rng = np.random.default_rng(seed)
    config = space.random(rng)
    assert space.from_unit_cube(space.to_unit_cube(config)) == config


@given(spaces(), st.data())
@settings(max_examples=60, deadline=None)
def test_from_unit_cube_projects_anything_valid(space, data):
    z = data.draw(
        st.lists(
            st.floats(0, 1, allow_nan=False),
            min_size=space.n_dims,
            max_size=space.n_dims,
        )
    )
    space.validate(space.from_unit_cube(z))


@given(spaces(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_neighbors_preserve_column_sums(space, seed):
    rng = np.random.default_rng(seed)
    config = space.random(rng)
    for neighbor in space.neighbors(config):
        space.validate(neighbor)
