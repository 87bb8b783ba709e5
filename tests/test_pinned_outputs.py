"""Pinned digests of certificates and colourings on seeded inputs.

Performance work must not change what kchi writes.  Each test hashes the
output of one pipeline over a fixed, seeded family of inputs and compares
it with a digest recorded before the optimisations it guards.  A mismatch
means some certificate or colouring changed; find it by diffing the
outputs of the two trees on the same inputs.

Certificates are hashed twice: as written, and written out with every
corner pair's path listed (``helpers.written_out``).  The written-out
digests were recorded before certificates left a pair's lowest-id edge
implicit, so they prove that the listed paths did not change.
"""

from __future__ import annotations

import hashlib
import json
import random

import kchi.construct
from kchi.colouring import cycle_matching_colouring
from kchi.construct import construct_immersion
from kchi.generators import emit_certificate, gen_alpha2, gen_multigraph, parse_certificate
from kchi.graphs import iter_bits
from kchi.immersion import chi_alpha2, verify_immersion

from helpers import written_out

# the certificates written out in full, then as written
SMALL_CERTIFICATES = "74e016282502750715a6eb06216039e35d250acb7e2b471d4e2d07bdfa40b879"
SMALL_CERTIFICATES_AS_WRITTEN = "e50d1bde694c8e6255c984fb17d2d1df21eab744ea5b40db047861b3febe8df5"
LARGE_CERTIFICATE = "c104bcf26bff91d45c79096bf36d7dacc01f63c2dda9ddaf16771330e7fc59fb"
LARGE_CERTIFICATE_AS_WRITTEN = "e588c2cbbd03dc007addca9f82c24a9c7a5d52eb84fff30fcdfbfea82dc05823"
COLOURINGS = "36ecab7ce78595377ee28d7dbf6cb067fbd8bf7766ff2d83843efd3ef6605e8a"
BRIDGE_STAGES = "c8edca78da0a53b553c2587cd49c1ae5fd67ff011fcb0e5fa00e8c91d855f064"


def certificate_digests(graphs) -> tuple[str, str]:
    """sha256 over the certificates of ``graphs``, written out in full and as written."""
    full, written = hashlib.sha256(), hashlib.sha256()
    for g in graphs:
        imm = construct_immersion(g)
        full.update(written_out(imm).encode())
        written.update(emit_certificate(imm).encode())
    return full.hexdigest(), written.hexdigest()


def small_graphs():
    """200 seeded ``gen_alpha2`` graphs, n ≤ 60."""
    rng = random.Random(20260)
    specs = [(1 + i % 60, rng.random(), rng.randrange(2**32)) for i in range(200)]
    return (gen_alpha2(*spec) for spec in specs)


def small_certificates_digests() -> tuple[str, str]:
    """The digests of the certificates of ``small_graphs``."""
    return certificate_digests(small_graphs())


def large_certificate_digests() -> tuple[str, str]:
    """The digests of the certificate of one n = 300 ``gen_alpha2`` graph."""
    return certificate_digests([gen_alpha2(300, 0.5, 3001)])


def colourings_digest() -> str:
    """sha256 over the colourings of 100 seeded ``gen_multigraph`` graphs, n ≤ 40."""
    rng = random.Random(20261)
    h = hashlib.sha256()
    for i in range(100):
        n, density, seed = 1 + i % 40, rng.random(), rng.randrange(2**32)
        col = cycle_matching_colouring(gen_multigraph(n, density, seed))
        h.update(json.dumps([col.palette, sorted(col.colour_of.items())]).encode() + b"\n")
    return h.hexdigest()


def bridge_stages_digest() -> str:
    """sha256 over each owner's bridge stages while constructing 200 seeded
    ``gen_alpha2`` graphs (n ≤ 60) and ``gen_alpha2(601, 0.8, 912151271)``:
    the restricted bridge digraph and the decorated colouring of its conflict
    graph, as each owner hands both to ``assign_bridges``.
    """
    h = hashlib.sha256()
    original = kchi.construct.assign_bridges

    def spy(d, dec):
        h.update(json.dumps([
            d.x_nodes,
            d.arcs,
            [list(iter_bits(mask)) for mask in d.bridged],
            [list(iter_bits(mask)) for mask in d.droppable],
            [list(iter_bits(mask)) for mask in d.settled],
            sorted(dec.reserved.items()),
            sorted(dec.relief.items()),
            sorted(dec.colour_of.items()),
            sorted((c, sorted(xs)) for c, xs in dec.uncovered_at.items()),
        ]).encode() + b"\n")
        return original(d, dec)

    rng = random.Random(20260)
    specs = [(1 + i % 60, rng.random(), rng.randrange(2**32)) for i in range(200)]
    kchi.construct.assign_bridges = spy
    try:
        for n, density, seed in specs + [(601, 0.8, 912151271)]:
            construct_immersion(gen_alpha2(n, density, seed))
    finally:
        kchi.construct.assign_bridges = original
    return h.hexdigest()


def test_small_certificates_are_pinned():
    assert small_certificates_digests() == (SMALL_CERTIFICATES, SMALL_CERTIFICATES_AS_WRITTEN)


def test_large_certificate_is_pinned():
    assert large_certificate_digests() == (LARGE_CERTIFICATE, LARGE_CERTIFICATE_AS_WRITTEN)


def test_certificates_written_out_in_full_still_verify():
    # the written-out text is what certificates were before implicit paths
    # (the digests above prove it), so kchi verify accepts the older ones
    for g in list(small_graphs()) + [gen_alpha2(300, 0.5, 3001)]:
        imm = construct_immersion(g)
        back = parse_certificate(g, written_out(imm))
        assert verify_immersion(g, back, chi_alpha2(g)[0]).ok


def test_colourings_are_pinned():
    assert colourings_digest() == COLOURINGS


def test_bridge_stages_are_pinned():
    assert bridge_stages_digest() == BRIDGE_STAGES


if __name__ == "__main__":
    small, small_written = small_certificates_digests()
    large, large_written = large_certificate_digests()
    print("SMALL_CERTIFICATES =", repr(small))
    print("SMALL_CERTIFICATES_AS_WRITTEN =", repr(small_written))
    print("LARGE_CERTIFICATE =", repr(large))
    print("LARGE_CERTIFICATE_AS_WRITTEN =", repr(large_written))
    print("COLOURINGS =", repr(colourings_digest()))
    print("BRIDGE_STAGES =", repr(bridge_stages_digest()))
