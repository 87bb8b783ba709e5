import hashlib
import json
import random

import pytest

from kchi.errors import GraphError
from kchi.generators import (
    _SIMPLE_FAMILIES,
    _certificate_doc,
    emit_certificate,
    emit_dot,
    emit_edge_list,
    gen_alpha2,
    gen_family,
    gen_multigraph,
    parse_certificate,
    parse_edge_list,
)
from kchi.graphs import Multigraph, alpha_at_most_2
from kchi.immersion import (
    Immersion,
    _with_split,
    chi_alpha2,
    faithful_immersion,
    refine_split,
    verify_immersion,
)

from helpers import cocktail, complete, cycle, graph_fields, star, written_out


def test_alpha2_is_always_alpha2():
    for seed in range(40):
        g = gen_alpha2(1 + seed % 13, (seed % 7) / 6, seed)
        assert alpha_at_most_2(g)


def test_alpha2_edge_lists_are_pinned():
    # taken when the pairs were shuffled as (u, v) tuples and the complement
    # rows were scanned pair by pair; edge order counts, not only the set
    cases = [(n, d, s) for n in (1, 2, 3, 8, 41) for d in (0.0, 0.35, 0.8, 1.0) for s in (0, 9)]
    cases += [(200, 0.5, 3001), (257, 0.9, 912151271)]
    h = hashlib.sha256()
    for n, d, s in cases:
        g = gen_alpha2(n, d, s)
        h.update(repr((g.n, g.edges)).encode())
    assert h.hexdigest() == "e941167e601fce5fe66107600c4c3fc5f41295f447b5751d032cd94cbde03b36"


def test_alpha2_edge_cases():
    assert gen_alpha2(1, 0.7, 3).n == 1
    g = gen_alpha2(7, 0.0, 5)  # complement of the empty graph
    assert g.m == 21 and len(set(g.edges)) == 21


def test_alpha2_is_deterministic():
    a, b = gen_alpha2(15, 0.6, 99), gen_alpha2(15, 0.6, 99)
    assert a.edges == b.edges
    assert emit_edge_list(a) == emit_edge_list(b)
    assert gen_alpha2(15, 0.6, 100).edges != a.edges


def test_multigraph_respects_multiplicity_cap():
    g = gen_multigraph(12, 0.7, 4, max_mult=3)
    assert all(g.multiplicity(u, v) <= 3 for u, v in set(g.edges))
    assert g.edges == gen_multigraph(12, 0.7, 4, max_mult=3).edges


class TestFamilies:
    def test_named_families(self):
        assert gen_family("star", 4).edges == star(4).edges
        assert gen_family("cycle", 5).edges == cycle(5).edges
        assert gen_family("complete", 6).edges == complete(6).edges
        assert gen_family("cocktail", 3).edges == cocktail(3).edges

    @pytest.mark.parametrize("name, reference", [("complete", complete), ("cocktail", cocktail)])
    def test_row_built_families_match_the_edge_list_constructor(self, name, reference):
        for n in range(13):
            assert graph_fields(_SIMPLE_FAMILIES[name](n)) == graph_fields(reference(n))

    def test_cocktail_is_k6_minus_matching(self):
        g = gen_family("cocktail", 3)
        assert g.m == 12
        assert not any(g.has_edge(2 * i, 2 * i + 1) for i in range(3))

    def test_doubled_wraps_another_family(self):
        g = gen_family("doubled", ("cycle", 5))
        assert g.m == 10 and all(g.multiplicity(u, v) == 2 for u, v in set(g.edges))

    def test_unknown_family(self):
        with pytest.raises(GraphError, match="unknown family"):
            gen_family("hypercube", 3)

    def test_faithful_instances_satisfy_the_premise(self):
        for k in range(1, 7):
            for seed in range(5):
                g = gen_family("faithful", (k, seed))
                chi, col = chi_alpha2(g)
                col = refine_split(g, col)
                assert not col.detached
                imm = faithful_immersion(g, col)
                assert verify_immersion(g, imm, chi, faithful_wrt=col).ok

    @pytest.mark.parametrize(
        "name, params",
        [("cycle", ()), ("cycle", (5, 6)), ("cycle", "x"), ("star", True), ("doubled", ()),
         ("doubled", (5,)), ("doubled", ("cycle",)), ("faithful", ()), ("faithful", (2, 3, 4)),
         ("faithful", ("x",))],
    )
    def test_missing_extra_or_non_integer_parameters(self, name, params):
        with pytest.raises(GraphError, match="takes|needs"):
            gen_family(name, params)

    def test_faithful_accepts_bare_size(self):
        assert gen_family("faithful", 3).edges == gen_family("faithful", (3, 0)).edges

    def test_faithful_runs_one_blossom_matching(self, monkeypatch):
        import kchi.immersion

        calls = []
        real = kchi.immersion.maximum_matching

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(kchi.immersion, "maximum_matching", counted)
        g = gen_family("faithful", (4, 3))
        assert calls == [g.n]


class TestEdgeListFormat:
    def test_parse_k3(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
        assert (g.n, sorted(g.edges)) == (3, [(0, 1), (0, 2), (1, 2)])

    def test_round_trip_is_canonical(self):
        text = "3 3\n0 2\n0 1\n1 2\n"
        canon = emit_edge_list(parse_edge_list(text))
        assert canon == "3 3\n0 1\n0 2\n1 2\n"
        assert emit_edge_list(parse_edge_list(canon)) == canon

    def test_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(25):
            g = gen_multigraph(rng.randint(1, 9), rng.random(), rng.randint(0, 999))
            h = parse_edge_list(emit_edge_list(g))
            assert (h.n, sorted(h.edges)) == (g.n, sorted(g.edges))

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# triangle\n3 3\n\n0 1 # first\n1 2\n0 2\n")
        assert g.m == 3

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            parse_edge_list("3 1\n0 0\n")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "line 1"),
            ("3\n", "line 1"),
            ("x 3\n", "column 1"),
            ("3 1\n0 y\n", "column 3"),
            ("3 1\n0 5\n", "outside 0..2"),
            ("3 2\n0 1\n", "promises 2 edges"),
            ("3 1\n0 1\n1 2\n", "promises 1 edges"),
            ("3 1\n0 1 2\n", "exactly two"),
        ],
    )
    def test_diagnostics_carry_positions(self, text, fragment):
        with pytest.raises(GraphError, match=fragment):
            parse_edge_list(text)

    def test_dot_emission(self):
        out = emit_dot(parse_edge_list("3 1\n0 1\n"))
        assert out == "graph g {\n  2;\n  0 -- 1;\n}\n"

    def test_emitters_list_shuffled_multigraphs_in_sorted_order(self):
        # edges given in random order and orientation, parallel copies
        # interleaved: both emitters print the sorted edge list
        rng = random.Random(2020)
        for _ in range(200):
            n = rng.randint(0, 9)
            pairs = [
                (u, v) if rng.random() < 0.5 else (v, u)
                for u in range(n)
                for v in range(u + 1, n)
                for _ in range(rng.choice((0, 0, 1, 3)))
            ]
            rng.shuffle(pairs)
            g = Multigraph(n, pairs)
            ordered = sorted(g.edges)
            assert emit_edge_list(g) == "".join(
                [f"{n} {len(pairs)}\n"] + [f"{u} {v}\n" for u, v in ordered]
            )
            isolated = [f"  {v};\n" for v in range(n) if g.degree(v) == 0]
            assert emit_dot(g) == "".join(
                ["graph g {\n"] + isolated + [f"  {u} -- {v};\n" for u, v in ordered] + ["}\n"]
            )


class TestCertificateJson:
    def test_round_trip(self):
        from kchi.construct import construct_immersion

        g = cycle(5)
        imm = construct_immersion(g)
        back = parse_certificate(g, emit_certificate(imm))
        assert back.corners == imm.corners and back.paths == imm.paths

    def test_round_trip_with_classes(self):
        g = gen_family("faithful", (3, 1))
        chi, col = chi_alpha2(g)
        col = refine_split(g, col)
        imm = faithful_immersion(g, col)
        back = parse_certificate(g, emit_certificate(imm))
        assert back.faithful_to is not None
        assert back.faithful_to.classes == col.classes
        assert verify_immersion(g, back, chi).ok

    def test_emission_is_deterministic(self):
        from kchi.construct import construct_immersion

        imm = construct_immersion(cocktail(3))
        assert emit_certificate(imm) == emit_certificate(imm)

    def test_classes_outside_the_graph_parse(self):
        """A class naming a vertex the graph lacks gives that vertex no edges."""
        g = gen_family("faithful", (3, 1))
        chi, col = chi_alpha2(g)
        doc = json.loads(emit_certificate(faithful_immersion(g, refine_split(g, col))))
        doc["classes"] += [[-1, g.n + 5], [g.n + 9]]
        back = parse_certificate(g, json.dumps(doc))
        assert (-1, g.n + 5) in back.faithful_to.detached
        assert (g.n + 9,) in back.faithful_to.classes
        assert back.faithful_to.attached == col.attached

    def test_pair_listed_twice_is_malformed(self):
        # the first path of (0, 1) spends edges 2 and 1, which the paths of
        # (0, 2) and (1, 2) use again; keeping only the last would hide that
        g = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
        doc = {
            "kind": "immersion", "t": 3, "corners": [0, 1, 2],
            "paths": [{"pair": [0, 1], "edges": [2, 1]}, {"pair": [0, 1], "edges": [0]},
                      {"pair": [0, 2], "edges": [2]}, {"pair": [1, 2], "edges": [1]}],
        }
        with pytest.raises(GraphError, match=r"pair \[0, 1\] has two paths"):
            parse_certificate(g, json.dumps(doc))
        del doc["paths"][0]
        assert verify_immersion(g, parse_certificate(g, json.dumps(doc)), 3).ok

    def test_bad_json_and_bad_fields(self):
        g = cycle(5)
        with pytest.raises(GraphError, match="not valid JSON"):
            parse_certificate(g, "{nope")
        with pytest.raises(GraphError, match="certificate kind"):
            parse_certificate(g, '{"kind": "tour"}')
        with pytest.raises(GraphError, match="malformed certificate"):
            parse_certificate(g, '{"kind": "immersion", "corners": [0]}')


def _json_text(imm):
    return json.dumps(_certificate_doc(imm), sort_keys=True, indent=2) + "\n"


class TestCertificateWriter:
    """``emit_certificate`` writes exactly what json's indented encoder writes."""

    def _same_and_round_trips(self, g, imm):
        text = emit_certificate(imm)
        assert text == _json_text(imm)
        back = parse_certificate(g, text)
        assert back.corners == imm.corners and back.paths == imm.paths
        if imm.faithful_to is None:
            assert back.faithful_to is None
        else:
            assert back.faithful_to.classes == imm.faithful_to.classes
        return back

    def test_certificate_without_paths(self):
        from kchi.construct import construct_immersion

        g = complete(1)
        imm = construct_immersion(g)
        assert imm.paths == {}
        self._same_and_round_trips(g, imm)
        assert '"paths": []' in emit_certificate(imm)

    def test_zero_classes_keep_their_field(self):
        g = complete(1)
        imm = Immersion((), {}, faithful_to=_with_split(g, []))
        text = emit_certificate(imm)
        assert '"classes": []' in text
        back = self._same_and_round_trips(g, imm)
        assert back.faithful_to is not None and emit_certificate(back) == text

    def test_faithful_certificate_with_classes(self):
        g = gen_family("faithful", (4, 2))
        chi, col = chi_alpha2(g)
        imm = faithful_immersion(g, refine_split(g, col))
        assert '"classes": [' in emit_certificate(imm)
        back = self._same_and_round_trips(g, imm)
        assert verify_immersion(g, back, chi).ok

    def test_seeded_alpha2_certificates(self):
        from kchi.construct import construct_immersion

        rng = random.Random(4242)
        sparse = 0
        for i in range(50):
            g = gen_alpha2(1 + i % 45, rng.random(), rng.randrange(2**32))
            imm = construct_immersion(g)
            self._same_and_round_trips(g, imm)
            sparse += 0 < len(imm.listed) < len(imm.paths)
        assert sparse >= 10

    def test_certificate_with_every_path_implicit(self):
        from kchi.construct import construct_immersion

        g = complete(5)
        imm = construct_immersion(g)
        assert imm.listed == {} and len(imm.paths) == 10
        self._same_and_round_trips(g, imm)
        assert '"paths": []' in emit_certificate(imm)

    def test_certificates_listing_every_path_still_verify(self):
        from kchi.construct import construct_immersion

        rng = random.Random(4243)
        for i in range(30):
            g = gen_alpha2(1 + i % 30, rng.random(), rng.randrange(2**32))
            imm = construct_immersion(g)
            back = parse_certificate(g, written_out(imm))
            assert back.listed == dict(imm.paths)
            assert verify_immersion(g, back, len(imm.corners)).ok

    def test_paths_of_every_length(self):
        """One template per path length: lengths 1, 2, 3, 5 and 8 side by side."""
        g = Multigraph(12, [(u, u + 1) for u in range(11)] + [(0, 11)] * 9)
        lengths = {(0, 1): 1, (0, 2): 2, (1, 4): 3, (2, 7): 5, (3, 11): 8, (1, 2): 1}
        first = iter(range(g.m))
        paths = {pair: tuple(next(first) for _ in range(k)) for pair, k in lengths.items()}
        corners = tuple(sorted({v for pair in paths for v in pair}))
        # the corner pairs (2, 3), (3, 4) and (0, 11) are left to their lowest edges
        self._same_and_round_trips(g, Immersion(corners, paths, host=g))
        col = _with_split(g, [(0, 5), (1,), (2, 9), (3,), (4,), (7,), (11,)])
        back = self._same_and_round_trips(g, Immersion(corners, paths, faithful_to=col, host=g))
        assert back.faithful_to.classes == col.classes

    @pytest.mark.parametrize(
        "imm",
        [
            Immersion((0, 1), {(0, 1): ()}),  # an empty path
            Immersion((0, 1), {(0, 1): (True,)}),  # json writes true, not 1
            Immersion((0, 1.0), {(0, 1.0): (0,)}),  # a float corner
            Immersion((0, 1, 2), {(0, 1, 2): (0,)}),  # a pair of three
            Immersion((), {}),
        ],
    )
    def test_shapes_outside_the_layout_match_json(self, imm):
        assert emit_certificate(imm) == _json_text(imm)
