import hashlib

import pytest

from slabel.core import build_graph
from slabel.instances import (
    InstanceFormatError,
    KINDS,
    InstanceSpec,
    SplitMix64,
    gen_bipartite,
    gen_caterpillar,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_perfect_nary,
    gen_random_tree,
    read_instance,
    read_labeling,
    write_instance,
    write_labeling,
)
from slabel.special_graphs import StructureKind, detect_structure


def reference_splitmix(seed, count):
    # independent transcription of the published SplitMix64 recurrence
    mask = (1 << 64) - 1
    out = []
    s = seed
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & mask
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    def test_matches_reference(self):
        for seed in (0, 1, 42, (1 << 64) - 1):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(8)] == reference_splitmix(seed, 8)

    def test_known_first_output_for_seed_zero(self):
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_unit_in_range(self):
        rng = SplitMix64(7)
        for _ in range(100):
            assert 0.0 <= rng.unit() < 1.0


def is_tree(g):
    return g.m == g.n - 1 and _connected(g)


def _connected(g):
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for x, _ in g.adjacency[v]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return len(seen) == g.n


class TestDeterministicGenerators:
    def test_path(self):
        g = gen_path(5)
        assert g.n == 5 and g.m == 4
        assert detect_structure(g).kind is StructureKind.PATH

    def test_cycle(self):
        g = gen_cycle(6)
        assert g.m == 6
        assert detect_structure(g).kind is StructureKind.CYCLE

    def test_grid_3x3(self):
        g = gen_grid(3, 3)
        assert g.n == 9 and g.m == 12
        assert detect_structure(g).kind is StructureKind.OTHER

    def test_nary_2_3(self):
        g = gen_perfect_nary(2, 3)
        assert g.n == 15 and g.m == 14
        s = detect_structure(g)
        assert s.kind is StructureKind.PERFECT_NARY
        assert (s.arity, s.depth, s.root) == (2, 3, 0)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            gen_path(1)
        with pytest.raises(ValueError):
            gen_cycle(2)
        with pytest.raises(ValueError):
            gen_grid(1, 5)
        with pytest.raises(ValueError):
            gen_perfect_nary(0, 2)


class TestGnm:
    def test_forced_complete(self):
        g = gen_gnm(5, 10, 12345)
        assert g.m == 10
        assert sorted(g.edges) == [(i, j) for i in range(5) for j in range(i + 1, 5)]

    def test_deterministic(self):
        a = gen_gnm(5, 4, 42)
        b = gen_gnm(5, 4, 42)
        assert a.edges == b.edges

    def test_counts_and_no_duplicates(self):
        g = gen_gnm(50, 100, 3)
        assert g.n == 50 and g.m == 100
        assert len(set(g.edges)) == 100

    def test_too_many_edges(self):
        with pytest.raises(ValueError):
            gen_gnm(4, 7, 0)


class TestRandomTrees:
    def test_trees_are_trees(self):
        for seed in range(10):
            g = gen_random_tree(10 + seed, seed)
            assert is_tree(g)

    def test_caterpillar_p0_is_path(self):
        g = gen_caterpillar(8, 0.0, 11)
        if g.n >= 2:
            assert detect_structure(g).kind is StructureKind.PATH

    def test_caterpillar_structure(self):
        # removing all leaves leaves a path (or a trivial remainder)
        g = gen_caterpillar(10, 0.5, 5)
        assert is_tree(g)
        leaves = {v for v in range(g.n) if g.degree(v) == 1}
        keep = [v for v in range(g.n) if v not in leaves]
        sub_edges = [
            (u, v) for u, v in g.edges if u not in leaves and v not in leaves
        ]
        remap = {v: i for i, v in enumerate(keep)}
        sub = build_graph(len(keep), [(remap[u], remap[v]) for u, v in sub_edges])
        if sub.n >= 2:
            assert max(sub.degree(v) for v in range(sub.n)) <= 2
            assert sub.m == sub.n - 1

    def test_lobster_p2_zero_is_caterpillar(self):
        a = gen_lobster(9, 0.4, 0.0, 77)
        b = gen_caterpillar(9, 0.4, 77)
        assert a.edges == b.edges and a.n == b.n

    def test_lobster_is_tree(self):
        for seed in range(5):
            assert is_tree(gen_lobster(10, 0.5, 0.5, seed))


class TestBipartite:
    def test_complete_bipartite(self):
        g = gen_bipartite(3, 3, 1.0, 9)
        assert g.n == 6 and g.m == 9

    def test_empty(self):
        g = gen_bipartite(4, 2, 0.0, 9)
        assert g.m == 0

    def test_cross_edges_only(self):
        g = gen_bipartite(5, 7, 0.5, 123)
        for u, v in g.edges:
            assert (u < 5) != (v < 5)


class TestDeterminism:
    SPECS = [
        InstanceSpec("path", {"n": 9}),
        InstanceSpec("cycle", {"n": 8}),
        InstanceSpec("grid", {"rows": 3, "cols": 4}),
        InstanceSpec("nary", {"arity": 2, "depth": 3}),
        InstanceSpec("gnm", {"n": 20, "m": 35}, seed=5),
        InstanceSpec("tree", {"n": 17}, seed=6),
        InstanceSpec("caterpillar", {"backbone": 7, "p1": 0.5}, seed=7),
        InstanceSpec("lobster", {"backbone": 7, "p1": 0.5, "p2": 0.5}, seed=8),
        InstanceSpec("bipartite", {"n1": 6, "n2": 5, "p": 0.4}, seed=9),
    ]

    def test_every_generator_repeats_exactly(self):
        for spec in self.SPECS:
            assert spec.generate().edges == spec.generate().edges


class TestPinnedOutput:
    # sha256 of write_instance text for every benchmark and smoke instance
    # and every TestDeterminism spec, as (kind, params, seed, digest).  A
    # generator change that moves any output byte fails here.
    DIGESTS = [
        ("gnm", {"n": 18, "m": 40}, 1,
         "282990107d9d658c1d5316d33ca14341094abe39a374a449acd36eea89b965cb"),
        ("gnm", {"n": 20, "m": 45}, 3,
         "8cf11bb17fb34609f3844f09185c1837c76f944846075940cb5ffde64c51bd86"),
        ("gnm", {"n": 22, "m": 50}, 5,
         "df51371872aa44d5fdbee34ca8869c8c55500d1e663fb45ee9c871f6afeeb3f5"),
        ("gnm", {"n": 24, "m": 55}, 2,
         "e83f335f7c518369f128743995d5bbaa67c74c22ee38b36f446a7e7c9d56e5ed"),
        ("gnm", {"n": 24, "m": 60}, 11,
         "b5719e398fcd293d1142faafc8de0c37fb4d688d8612471988dfad6b34a986f0"),
        ("gnm", {"n": 26, "m": 60}, 4,
         "c335992d62e6bb1b749a7ab25c392f2cebb5a84ff2cafdd8026bd245020c6c36"),
        ("gnm", {"n": 30, "m": 70}, 9,
         "88e40425a09a84b0832a89c017c3abec5f98270c9ee98bba7a5c36c6b7b4b9a1"),
        ("gnm", {"n": 60, "m": 150}, 2,
         "9bda638cb7ba06b82da3af8e5a716d262c72b23868d90b989d209228a7c08bc4"),
        ("gnm", {"n": 50, "m": 300}, 3,
         "93a9382c308589107bd364d488b5a20c5f78c3dd8b3ef9abde8b28ea70ce1b40"),
        ("gnm", {"n": 100, "m": 250}, 2,
         "7099ca8f8f605ef9c450e2855274e4ba82940892a831485f25b50d4c7bbdd9a8"),
        ("tree", {"n": 100}, 1,
         "2b07bb0cbbe2a89999e1f17e82afae9dc3f5c7af240fdba26d6b7cf90579a62b"),
        ("bipartite", {"n1": 40, "n2": 40, "p": 0.08}, 5,
         "1945d70a73bb8e086db163a50dbab366018a81af2b2db826d4e013b1b7ab22eb"),
        ("tree", {"n": 1000}, 2,
         "a0a8e0acff0bf9dcc31635ad822c1e7d476453d21ac7bb580682649c0bbfea37"),
        ("gnm", {"n": 500, "m": 1500}, 7,
         "547f687c8acca0c81755c40df9550ae7690477e44de2980f011c3a18884b511e"),
        ("grid", {"rows": 20, "cols": 20}, 0,
         "3a436c6836d26e0c5c65c67e62fc70f68bfc07d9593e788048e349919ae15883"),
        ("bipartite", {"n1": 100, "n2": 100, "p": 0.03}, 5,
         "e27115238742bcacc6ba761690056518ad43190899074613e068f54d74401818"),
        ("caterpillar", {"backbone": 300, "p1": 0.6}, 3,
         "c919a3ca260683746f8d3c51949c1d7ebba05b1fcd210d15f3f3db28df983859"),
        ("lobster", {"backbone": 200, "p1": 0.7, "p2": 0.5}, 4,
         "42de2011024fa63609261d375b87d23de190ecf5f96c44454fce4148bb352226"),
        ("nary", {"arity": 3, "depth": 6}, 0,
         "863108307b830ddcd0db3f71bdbb555b6a60af746815e48704cdaf40062443cd"),
        ("path", {"n": 2000}, 0,
         "b48189d648c7878c43822fbbce1aa5a398a838733c448d472b8d777882fdf6ce"),
        ("cycle", {"n": 2001}, 0,
         "0054bbcb4e1941f7f3587c4e072594b2945c9380e61347dfaefaba9c5215d014"),
        ("gnm", {"n": 8, "m": 12}, 1,
         "ade32235b54982771b301445b10b141a993acf83cdb993ad26c040f90ee12e0a"),
        ("gnm", {"n": 10, "m": 18}, 2,
         "21ffb03b24df5e4d0217224f9b7d0081b8ba00744602ddff85e4a572cd7b167c"),
        ("gnm", {"n": 12, "m": 24}, 2,
         "defcca556d113d2355ef14e83608a7e1899959e3b8b8cd911bc3aec2268aef61"),
        ("tree", {"n": 12}, 1,
         "624dd0c37fb8fefb13e062b19caa423296c4ed55f1a358e5abd2b03cca877f78"),
        ("tree", {"n": 30}, 2,
         "607fec45e87af8d397b43bcee74c43b60e46756f0a408fd1e6ae882c5a0d4eae"),
        ("gnm", {"n": 20, "m": 40}, 7,
         "73932ce311876b1fa9ce32952e4bfd0534e8458db09a34ad9a3615e95b6f223c"),
        ("nary", {"arity": 2, "depth": 3}, 0,
         "293f30c3bae5c6cc9994184713924483befc97a9b5e33a10e84b232ae16b6d39"),
        ("path", {"n": 20}, 0,
         "5b7a14a1368ff3847d0aae1915d2fb08c7d353fe42cacae9f4e199438eb09be2"),
        ("cycle", {"n": 21}, 0,
         "0b7c04364d6c50e9186f5be0da6c2e0e3918d87538f01e672d0bb44c853776af"),
        ("path", {"n": 9}, 0,
         "2707cc3318bd4ae6cb9174d59fa953a6ed51682e581aa7b48cc235cf68898a1d"),
        ("cycle", {"n": 8}, 0,
         "06051bdad0465534428844f229421ab6796872a91765df3caceabebd3c7e11a6"),
        ("grid", {"rows": 3, "cols": 4}, 0,
         "0c0c985084af95dc3b5db2341cfe551cae305fdc74e19df622998ae5f145fa3a"),
        ("gnm", {"n": 20, "m": 35}, 5,
         "3994a1b0f0faf7e74189b7a7b23e7ad72e8f9d32a7c384d925f2fc2178dd0e87"),
        ("tree", {"n": 17}, 6,
         "dd8ce0aa798ef691df3e8a2745baee4c1e25415dacf678a1f59b662e9ca5c9c2"),
        ("caterpillar", {"backbone": 7, "p1": 0.5}, 7,
         "cffd1f8fd0c3c59ced757339a370922e8c9f595e518071910339943c7889c65f"),
        ("lobster", {"backbone": 7, "p1": 0.5, "p2": 0.5}, 8,
         "49e5d5de942255c10852c486739306be355b4fe0962a4a3cf45205a61ed58536"),
        ("bipartite", {"n1": 6, "n2": 5, "p": 0.4}, 9,
         "8d7b60cdb393aec3c7c9d9b20fb9dbfe2087ceaac749ae2cb20ec20516c7beed"),
    ]

    def test_instance_text_is_unchanged(self):
        for kind, params, seed, digest in self.DIGESTS:
            text = write_instance(InstanceSpec(kind, params, seed).generate())
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest, (kind, params)

    def test_every_kind_is_pinned(self):
        assert {kind for kind, *_ in self.DIGESTS} == set(KINDS)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown instance kind"):
            InstanceSpec("star", {"n": 5}).generate()


class TestInstanceFiles:
    def test_read_p3(self):
        g = read_instance("p sl 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_roundtrip_all_kinds(self):
        rng = SplitMix64(1)
        graphs = []
        for spec in TestDeterminism.SPECS:
            graphs.append(spec.generate())
        for _ in range(100):
            n = 2 + rng.below(12)
            m = rng.below(n * (n - 1) // 2 + 1)
            graphs.append(gen_gnm(n, m, rng.next_u64()))
        for g in graphs:
            assert read_instance(write_instance(g)) == g

    def test_write_read_identity_on_canonical_text(self):
        text = write_instance(gen_grid(3, 3))
        assert write_instance(read_instance(text)) == text

    def test_out_of_range_endpoint(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            read_instance("p sl 2 1\ne 1 3\n")

    def test_wrong_edge_count(self):
        with pytest.raises(InstanceFormatError, match="edges"):
            read_instance("p sl 3 2\ne 1 2\n")

    def test_malformed_header(self):
        with pytest.raises(InstanceFormatError, match="line 1"):
            read_instance("p xx 3 2\ne 1 2\ne 2 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(InstanceFormatError, match="self-loop"):
            read_instance("p sl 3 1\ne 2 2\n")

    def test_comments_allowed(self):
        g = read_instance("c generated\np sl 2 1\nc mid\ne 1 2\n")
        assert g.m == 1


class TestLabelingFiles:
    def test_roundtrip(self):
        from slabel.core import Labeling

        phi = Labeling(labels=(3, 1, 2))
        assert read_labeling(write_labeling(phi), 3) == phi

    def test_repeated_label(self):
        with pytest.raises(InstanceFormatError):
            read_labeling("1 2\n2 2\n3 1\n", 3)

    def test_wrong_length(self):
        with pytest.raises(InstanceFormatError, match="expected 3"):
            read_labeling("1 1\n2 2\n", 3)

