"""Walsh analysis and voting rules on the discrete cube."""
import json
import math

import numpy as np
import pytest

from gstab.cube import (
    CubeFn,
    cube_influences,
    cube_stability,
    cube_stability_bruteforce,
    make_voting_rule,
    walsh_transform,
)


def parity_fn(n):
    table = np.array([1 if bin(i).count("1") % 2 else 2 for i in range(1 << n)])
    return CubeFn(n, 2, table)


class TestWalshTransform:
    def test_constant_function(self):
        f = CubeFn(3, 2, np.ones(8, dtype=int))
        coeffs = walsh_transform(f)
        np.testing.assert_allclose(coeffs[0], [1.0, 0.0])
        for S in range(1, 8):
            np.testing.assert_allclose(coeffs[S], 0.0, atol=1e-14)

    def test_dictator_support(self):
        f = make_voting_rule("dictator", 3, 2)
        coeffs = walsh_transform(f)
        for S, c in enumerate(coeffs):
            mass = float(np.dot(c, c))
            if S in (0, 1):
                assert mass > 0.2
            else:
                assert mass == pytest.approx(0.0, abs=1e-14)

    def test_majority_spectrum_vs_bruteforce(self):
        f = make_voting_rule("majority", 3, 2)
        emb = f.embedding()
        pts = f.points()
        coeffs = walsh_transform(f)
        for S in range(8):
            chi = np.ones(8)
            for i in range(3):
                if S >> i & 1:
                    chi = chi * pts[:, i]
            expect = (emb * chi[:, None]).mean(axis=0)
            np.testing.assert_allclose(coeffs[S], expect, atol=1e-13)
        # singleton coefficients of Maj3: (1/4, -1/4) per coordinate
        for S in (1, 2, 4):
            np.testing.assert_allclose(np.abs(coeffs[S]), 0.25, atol=1e-13)

    def test_parseval_exact(self, rng):
        table = rng.integers(1, 4, size=16)
        f = CubeFn(4, 3, table)
        coeffs = walsh_transform(f)
        mass = sum(float(np.dot(c, c)) for c in coeffs)
        assert mass == pytest.approx(1.0, abs=1e-12)  # one-hot embedding


class TestStability:
    def test_dictator_closed_form(self):
        f = make_voting_rule("dictator", 4, 2)
        assert cube_stability(f, 0.5) == pytest.approx(0.75, abs=1e-13)

    def test_rho_one(self, rng):
        f = CubeFn(4, 3, rng.integers(1, 4, size=16))
        assert cube_stability(f, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_majority_vs_exhaustive(self):
        f = make_voting_rule("majority", 3, 2)
        assert cube_stability(f, 0.5) == pytest.approx(
            cube_stability_bruteforce(f, 0.5), abs=1e-12
        )

    def test_random_function_vs_exhaustive(self, rng):
        for n in range(1, 9):
            for k in (2, 3, 4):
                f = CubeFn(n, k, rng.integers(1, k + 1, size=1 << n))
                for rho in (-1.0, -0.4, 0.0, 0.6, 1.0):
                    assert cube_stability(f, rho) == pytest.approx(
                        cube_stability_bruteforce(f, rho), abs=1e-12
                    )
                # influence of the simplex embedding: Pr[f(x) != f(x^i)] / 2
                idx = np.arange(1 << n)
                flips = [0.5 * np.mean(f.table != f.table[idx ^ (1 << i)]) for i in range(n)]
                np.testing.assert_allclose(cube_influences(f), flips, atol=1e-12)

    def test_parity_weakest_balanced_rule(self):
        rho = 0.5
        par = cube_stability(parity_fn(5), rho)
        assert par == pytest.approx(0.5 + 0.5 * rho**5, abs=1e-13)
        assert cube_stability(make_voting_rule("dictator", 5, 2), rho) > par
        assert cube_stability(make_voting_rule("majority", 5, 2), rho) > par


class TestInfluences:
    def test_constant_zero(self):
        f = CubeFn(3, 2, np.ones(8, dtype=int))
        np.testing.assert_allclose(cube_influences(f), 0.0, atol=1e-14)

    def test_dictator(self):
        f = make_voting_rule("dictator", 4, 2)
        infl = cube_influences(f)
        assert infl[0] == pytest.approx(0.5, abs=1e-13)  # Var of the embedding
        np.testing.assert_allclose(infl[1:], 0.0, atol=1e-13)

    def test_majority_trend(self):
        # equal influences decaying like 1/sqrt(n)
        prev = None
        for n in (3, 5, 7, 9):
            infl = cube_influences(make_voting_rule("majority", n, 2))
            assert infl.max() - infl.min() == pytest.approx(0.0, abs=1e-12)
            scaled = infl[0] * math.sqrt(n)
            if prev is not None:
                assert abs(scaled - prev) < 0.05
            prev = scaled

    def test_sum_identity(self, rng):
        f = CubeFn(4, 3, rng.integers(1, 4, size=16))
        coeffs = walsh_transform(f)
        expect = sum(
            bin(S).count("1") * float(np.dot(c, c)) for S, c in enumerate(coeffs)
        )
        assert cube_influences(f).sum() == pytest.approx(expect, abs=1e-12)


class TestVotingRules:
    def test_dictator_table(self):
        f = make_voting_rule("dictator", 4, 2)
        pts = f.points()
        expect = np.where(pts[:, 0] > 0, 1, 2)
        np.testing.assert_array_equal(f.table, expect)

    def test_majority_table(self):
        f = make_voting_rule("majority", 3, 2)
        pts = f.points()
        expect = np.where(pts.sum(axis=1) > 0, 1, 2)
        np.testing.assert_array_equal(f.table, expect)

    def test_majority_needs_odd(self):
        with pytest.raises(ValueError):
            make_voting_rule("majority", 4, 2)

    def test_plurality_less_influential_than_dictator(self):
        p = make_voting_rule("plurality", 4, 3)
        d = make_voting_rule("dictator", 4, 2)
        assert cube_influences(p).max() < cube_influences(d).max()

    def test_slab_embedding_measures(self):
        f = make_voting_rule("slab-embedding", 8, 3)
        counts = np.bincount(f.table, minlength=4)[1:]
        assert counts.sum() == 256
        assert np.all(counts > 0)

    def test_json_round_trip(self):
        f = make_voting_rule("majority", 5, 2)
        back = CubeFn.from_json(f.to_json())
        assert back.n == 5 and back.k == 2
        np.testing.assert_array_equal(back.table, f.table)

    def test_json_round_trip_wide_labels(self):
        # labels above 255 no longer fit the default uint8 packing
        table = np.array([1, 300, 2, 3])
        f = CubeFn(2, 300, table)
        doc = json.loads(f.to_json())
        assert doc["dtype"] == "<u2"
        back = CubeFn.from_json(f.to_json())
        assert back.k == 300
        np.testing.assert_array_equal(back.table, table)
        assert "dtype" not in json.loads(make_voting_rule("majority", 3, 2).to_json())

    def test_size_guard(self):
        with pytest.raises(ValueError):
            CubeFn(25, 2, np.ones(1, dtype=int))
