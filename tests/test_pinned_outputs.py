"""Pinned digests of certificates and colourings on seeded inputs.

Performance work must not change what kchi writes.  Each test hashes the
output of one pipeline over a fixed, seeded family of inputs and compares
it with a digest recorded before the optimisations it guards.  A mismatch
means some certificate or colouring changed; find it by diffing the
outputs of the two trees on the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

import kchi.construct
from kchi.colouring import cycle_matching_colouring
from kchi.construct import construct_immersion
from kchi.generators import emit_certificate, gen_alpha2, gen_multigraph

SMALL_CERTIFICATES = "74e016282502750715a6eb06216039e35d250acb7e2b471d4e2d07bdfa40b879"
LARGE_CERTIFICATE = "c104bcf26bff91d45c79096bf36d7dacc01f63c2dda9ddaf16771330e7fc59fb"
COLOURINGS = "36ecab7ce78595377ee28d7dbf6cb067fbd8bf7766ff2d83843efd3ef6605e8a"
BRIDGE_STAGES = "c8edca78da0a53b553c2587cd49c1ae5fd67ff011fcb0e5fa00e8c91d855f064"


def small_certificates_digest() -> str:
    """sha256 over the certificates of 200 seeded ``gen_alpha2`` graphs, n ≤ 60."""
    rng = random.Random(20260)
    h = hashlib.sha256()
    for i in range(200):
        n, density, seed = 1 + i % 60, rng.random(), rng.randrange(2**32)
        h.update(emit_certificate(construct_immersion(gen_alpha2(n, density, seed))).encode())
    return h.hexdigest()


def large_certificate_digest() -> str:
    """sha256 of the certificate of one n = 300 ``gen_alpha2`` graph."""
    text = emit_certificate(construct_immersion(gen_alpha2(300, 0.5, 3001)))
    return hashlib.sha256(text.encode()).hexdigest()


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
    """sha256 over what ``assign_bridges`` is handed, per owner, while constructing
    200 seeded ``gen_alpha2`` graphs (n ≤ 60) and ``gen_alpha2(601, 0.8, 912151271)``:
    the restricted bridge digraph and the decorated colouring of its conflict graph.
    """
    h = hashlib.sha256()
    original = kchi.construct.assign_bridges

    def spy(d, dec):
        h.update(json.dumps([
            d.x_nodes,
            d.arcs,
            [sorted(s) for s in d.bridged],
            [sorted(s) for s in d.droppable],
            [sorted(s) for s in d.settled],
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
    assert small_certificates_digest() == SMALL_CERTIFICATES


def test_large_certificate_is_pinned():
    assert large_certificate_digest() == LARGE_CERTIFICATE


def test_colourings_are_pinned():
    assert colourings_digest() == COLOURINGS


def test_bridge_stages_are_pinned():
    assert bridge_stages_digest() == BRIDGE_STAGES


if __name__ == "__main__":
    print("SMALL_CERTIFICATES =", repr(small_certificates_digest()))
    print("LARGE_CERTIFICATE =", repr(large_certificate_digest()))
    print("COLOURINGS =", repr(colourings_digest()))
    print("BRIDGE_STAGES =", repr(bridge_stages_digest()))
