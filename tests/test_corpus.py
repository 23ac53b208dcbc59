import hashlib
import random

import pytest

from oracles import cyclic_group, random_kernel, symmetric_group_5
from soficrank.cli import InstanceFile, format_instance
from soficrank.corpus import (
    diagonal_unit,
    random_invertible_pair,
    random_singular_kernel,
    transvection,
)
from soficrank.groupring import check_right_inverse, kernel_radius
from soficrank.groups import FreeAbelian

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)


class TestFactors:
    def test_transvection_inverse(self):
        fwd, bwd = transvection(Z1, 2, 3, 0, 1, 2, (1,))
        assert check_right_inverse(fwd, bwd)
        assert check_right_inverse(bwd, fwd)

    def test_transvection_identity_exponent(self):
        fwd, bwd = transvection(Z1, 3, 5, 2, 0, 4, (0,))
        assert check_right_inverse(fwd, bwd)

    def test_diagonal_unit_inverse(self):
        fwd, bwd = diagonal_unit(Z1, 2, 3, [2, 1], [(1,), (-1,)])
        assert check_right_inverse(fwd, bwd)
        assert check_right_inverse(bwd, fwd)

    def test_diagonal_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            diagonal_unit(Z1, 2, 3, [0, 1], [(0,), (0,)])


class TestInvertiblePairs:
    @pytest.mark.parametrize("seed", range(8))
    def test_both_sided_inverse(self, seed):
        rng = random.Random(seed)
        group = [Z1, Z2, cyclic_group(6)][seed % 3]
        d = 1 + seed % 3
        p = [2, 3][seed % 2]
        x, y = random_invertible_pair(rng, group, d, p, max_factors=4)
        assert check_right_inverse(x, y)
        assert check_right_inverse(y, x)

    def test_no_kernel_found(self):
        rng = random.Random(42)
        x, y = random_invertible_pair(rng, Z1, 2, 2, max_factors=3)
        assert kernel_radius(x, 6) is None


class TestSingularKernels:
    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_radius_at_most_two(self, seed):
        rng = random.Random(seed)
        group = Z1 if seed % 2 else Z2
        d = 2 + seed % 2
        c = random_singular_kernel(rng, group, d, 3, exponent_bound=2)
        r2 = kernel_radius(c, 4)
        assert r2 is not None and r2 <= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_variant_has_radius_exactly_two(self, seed):
        c = random_singular_kernel(random.Random(seed), Z1, 2 + seed % 2, 3, wide=True)
        assert kernel_radius(c, 4) == 2

    def test_requires_d_at_least_two(self):
        with pytest.raises(ValueError):
            random_singular_kernel(random.Random(0), Z1, 1, 2)


class TestRandomKernel:
    def test_respects_radius(self):
        rng = random.Random(5)
        for _ in range(20):
            k = random_kernel(rng, Z2, 2, 3, radius=2, max_terms=4)
            assert k.support_radius() <= 2


# sha256 of the instance text of each seed's draws on Z^2 and S5.  The
# benchmark's instance files are drawn the same way, so a change of how a
# group model consumes its random stream shows here first.
DRAW_HASHES = {
    ("Z^2", 0): "fa7152ad8e857c08e2eea5d084722194faddcd3532ed02021bea4af4234d03de",
    ("Z^2", 1): "88b5fbf7ff14aef0f0fe5fdf886d284330782804b40068b306be088464d94048",
    ("Z^2", 2): "da055db92fc09557bbec0273ffb92aff7eeb1852b5bf3de7ef8bdefb7b6f2b26",
    ("Z^2", 3): "3aeac748e492ecbc104399b83822f030d60f6fbc3e509cc1b990647cb57e24b9",
    ("finite:S5.table", 0): "4272cd65dc08783bf8da147491d414bc00370ec914b12093be9ea53f65b49649",
    ("finite:S5.table", 1): "efe87ce36c13d4a685090a1ae02452505b017efb88cac5cb14339874a6896282",
    ("finite:S5.table", 2): "d15cea1d18a8d136c038dab728a53357ff797e169c9468ac1a2627921099787a",
    ("finite:S5.table", 3): "d5c1fd784fa53d5fbe8a078452655ae0789c2f0cbf73b02aceec8a36429a3fc3",
}


@pytest.mark.parametrize("desc, seed", sorted(DRAW_HASHES))
def test_draws_are_pinned(desc, seed):
    group = Z2 if desc == "Z^2" else symmetric_group_5()
    rng = random.Random(seed)
    x, y = random_invertible_pair(rng, group, 2, 5, max_factors=4, exponent_bound=2)
    s = random_singular_kernel(rng, group, 2, 5, exponent_bound=2)
    inst = InstanceFile(p=5, d=2, group_desc=desc, group=group, elements={"x": x, "y": y, "s": s})
    assert hashlib.sha256(format_instance(inst).encode()).hexdigest() == DRAW_HASHES[desc, seed]
