"""Hand-built fixture drawings: the large fan-crossing-free example and K5."""

from beyondcr import (
    appendix_fcf_fixture,
    check_concept,
    compute_crossings,
    drawing_from_json,
    drawing_to_json,
    k5_fcf_fixture,
)
from beyondcr.drawing import is_simple
from oracles import APPENDIX_WALLS, count_on_edge


def _shared_vertices(x, y):
    return (set(x.a) | set(x.b)) & (set(y.a) | set(y.b))


class TestAppendixFixture:
    def setup_method(self):
        self.graph, self.drawing = appendix_fcf_fixture()
        self.xs = compute_crossings(self.drawing)

    def test_size(self):
        assert len(self.graph.vertices) == 65
        assert len(self.graph.edges) == 187

    def test_well_formed(self):
        # compute_crossings raises GeneralPositionViolation on any touch,
        # overlap, concurrence, or coincident point; reaching here means none
        assert compute_crossings(self.drawing) is not None

    def test_crossing_count(self):
        assert len(self.xs) == 23

    def test_passes_fan_crossing_free_2(self):
        assert check_concept(self.drawing, "k-fan-crossing-free", 2,
                             xs=self.xs).ok

    def test_fails_nnic(self):
        r = check_concept(self.drawing, "nnic", xs=self.xs)
        assert not r.ok
        assert "share 3" in r.reason

    def test_two_crossing_pairs_share_three_vertices(self):
        lst = list(self.xs)
        heavy = [
            (lst[i], lst[j])
            for i in range(len(lst)) for j in range(i + 1, len(lst))
            if len(_shared_vertices(lst[i], lst[j])) == 3
        ]
        assert len(heavy) == 2
        # ...and NNIC would allow at most 2 shared endpoints
        assert all(len(_shared_vertices(x, y)) <= 3 for x, y in heavy)

    def test_walls_are_never_crossed(self):
        assert len(set(APPENDIX_WALLS)) == 18
        assert set(APPENDIX_WALLS) <= set(self.graph.edges)
        for e in APPENDIX_WALLS:
            assert count_on_edge(self.xs, e) == 0

    def test_survives_json_round_trip(self):
        back = drawing_from_json(drawing_to_json(self.drawing))
        assert back.positions == self.drawing.positions
        assert back.curves == self.drawing.curves
        assert len(compute_crossings(back)) == 23


class TestK5Fixture:
    def setup_method(self):
        self.drawing = k5_fcf_fixture()
        self.xs = compute_crossings(self.drawing)

    def test_shape(self):
        assert len(self.drawing.graph.vertices) == 5
        assert len(self.drawing.graph.edges) == 10
        assert len(self.xs) == 1

    def test_predicates(self):
        assert is_simple(self.xs)
        assert check_concept(self.drawing, "k-fan-crossing-free", 2,
                             xs=self.xs).ok
        assert check_concept(self.drawing, "k-planar", 1, xs=self.xs).ok

    def test_straight_line(self):
        assert not self.drawing.curves
