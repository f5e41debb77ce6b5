from __future__ import annotations

import itertools

import pytest

from freeset import dual_graph
from freeset.bruteforce import (
    brute_cycles,
    brute_independent_set,
    exhaustive_curve_search,
    falsify_free_realize,
    max_proper_good_size,
)
from freeset.curves import CrossItem, CurveCertificate
from freeset.errors import TooLarge, UnknownElement
from freeset.extractors import OrderedFreeSet, planar_freeset
from freeset.generators import cycle, star


class TestCurveSearch:
    def test_star_leaves_witness(self):
        rep = exhaustive_curve_search(star(4), [1, 2, 3])
        assert rep.result is not None

    def test_triangle_full_set_none(self):
        rep = exhaustive_curve_search(cycle(3), [0, 1, 2])
        assert rep.result is None

    def test_k4_three_subsets_none(self, k4):
        for sub in itertools.combinations(range(4), 3):
            assert exhaustive_curve_search(k4, sub).result is None

    def test_k4_pairs_found(self, k4):
        for sub in itertools.combinations(range(4), 2):
            assert exhaustive_curve_search(k4, sub).result is not None

    def test_max_size_k4(self, k4):
        rep = max_proper_good_size(k4)
        assert rep.result[0] == 2

    def test_too_large_guard(self):
        from freeset.generators import random_triangulation
        with pytest.raises(TooLarge):
            exhaustive_curve_search(random_triangulation(10, 0), [0, 1])


class TestCycles:
    def test_cube_longest(self, octa):
        cube = dual_graph(octa)
        assert brute_cycles(cube, "longest").result == 8

    def test_k4_longest(self, k4):
        assert brute_cycles(k4, "longest").result == 4

    def test_goldner_harary_not_hamiltonian(self, gh):
        assert brute_cycles(gh, "hamiltonian").result is None

    def test_octahedron_hamiltonian(self, octa):
        cyc = brute_cycles(octa, "hamiltonian").result
        assert cyc is not None and len(cyc) == 6

    def test_too_large(self):
        from freeset.generators import random_triangulation
        with pytest.raises(TooLarge):
            brute_cycles(random_triangulation(25, 0))


class TestIndependentSet:
    def test_k4(self, k4):
        assert len(brute_independent_set(k4, range(4)).result) == 1

    def test_octahedron(self, octa):
        assert len(brute_independent_set(octa, range(6)).result) == 2

    def test_star_leaves(self):
        g = star(6)
        assert brute_independent_set(g, range(6)).result == (1, 2, 3, 4, 5)

    def test_empty_ground(self, k4):
        assert brute_independent_set(k4, []).result == ()

    @pytest.mark.parametrize("search", [brute_independent_set,
                                        exhaustive_curve_search])
    def test_unknown_ground_rejected(self, k4, search):
        with pytest.raises(UnknownElement, match="vertex 99 "):
            search(k4, [1, 99])


class TestFalsify:
    def test_k4_200_trials_clean(self, k4):
        fs = planar_freeset(k4)
        rep = falsify_free_realize(k4, fs, trials=200, seed=3)
        assert rep.result == []

    def test_zero_trials(self, k4):
        fs = planar_freeset(k4)
        assert falsify_free_realize(k4, fs, trials=0, seed=0).result == []

    def test_corrupted_certificate_reported(self, k4):
        fs = planar_freeset(k4)
        bad_cert = CurveCertificate(
            items=fs.certificate.items + (CrossItem((0, 1)),
                                          CrossItem((0, 1))),
            passages=fs.certificate.passages + (0, 0))
        bad = OrderedFreeSet.__new__(OrderedFreeSet)
        object.__setattr__(bad, "graph", k4)
        object.__setattr__(bad, "order", fs.order)
        object.__setattr__(bad, "certificate", bad_cert)
        object.__setattr__(bad, "provenance", "corrupted")
        object.__setattr__(bad, "bound_met", "n/a")
        rep = falsify_free_realize(k4, bad, trials=3, seed=0)
        assert len(rep.result) == 3
