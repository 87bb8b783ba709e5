"""End-to-end tests of the command-line front door."""

import io
import json
import subprocess
import sys

import pytest

from kchi.cli import main

C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
K5 = "5 10\n" + "\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5)) + "\n"
C7 = "7 7\n" + "\n".join(f"{i} {(i + 1) % 7}" for i in range(7)) + "\n"


@pytest.fixture
def run(capsys, monkeypatch, tmp_path):
    def invoke(*argv, stdin=None):
        files = []
        for a in argv:
            if isinstance(a, tuple):  # (name, content) becomes a temp file
                p = tmp_path / a[0]
                p.write_text(a[1])
                files.append(str(p))
            else:
                files.append(a)
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(files)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        doc = json.loads(out) if out.lstrip().startswith("{") else out
        return code, doc, err

    return invoke


class TestColour:
    def test_k5_fits_max_degree(self, run):
        code, doc, err = run("colour", "--r", "2", ("k5.txt", K5))
        assert code == 0
        assert doc["palette"] <= 4 == doc["max_degree"]
        assert doc["verdict"]["ok"] and doc["verdict"]["first_violation"] is None
        assert sorted(e for cls in doc["classes"] for e in cls) == list(range(10))

    def test_reads_stdin_by_default(self, run):
        code, doc, _ = run("colour", stdin=C5)
        assert code == 0 and doc["palette"] <= 2

    def test_r_below_2_is_bad_input(self, run):
        code, doc, _ = run("colour", "--r", "1", ("k3.txt", "3 3\n0 1\n1 2\n0 2\n"))
        assert code == 2 and doc["error"]["type"] == "UsageError"
        assert "--r" in doc["error"]["message"]

    @staticmethod
    def _colouring_fault(run, monkeypatch, graph, colour_of, palette):
        """Run ``colour`` on ``graph`` with the constructor replaced by one
        that returns the given colouring; a bad one is a fault, exit 3."""
        import kchi.cli
        from kchi.colouring import CycleMatchingColouring

        monkeypatch.setattr(
            kchi.cli, "cycle_matching_colouring", lambda g: CycleMatchingColouring(colour_of, palette)
        )
        code, doc, err = run("colour", stdin=graph)
        assert code == 3 and "Traceback" in err
        assert doc["error"]["type"] == "CertificateError"
        return doc["error"]["message"], doc["error"]["dump"]

    def test_a_rejected_colouring_is_a_fault(self, run, monkeypatch):
        message, dump = self._colouring_fault(run, monkeypatch, "3 2\n0 1\n1 2\n", {0: 0, 1: 0}, 1)
        assert "component at 0 has degrees 1..2" in message
        assert dump == {
            "failures": ["colour 0: component at 0 has degrees 1..2 (r = 2)"],
            "palette": 1,
            "max_degree": 2,
            "even_cycles": [],
        }

    def test_a_palette_above_max_degree_is_a_fault(self, run, monkeypatch):
        message, dump = self._colouring_fault(
            run, monkeypatch, "3 3\n0 1\n1 2\n0 2\n", {0: 0, 1: 1, 2: 2}, 3
        )
        assert message.endswith("palette 3 exceeds max degree 2")
        assert dump == {"failures": [], "palette": 3, "max_degree": 2, "even_cycles": []}

    def test_an_even_cycle_is_a_fault(self, run, monkeypatch):
        message, dump = self._colouring_fault(
            run, monkeypatch, "4 4\n0 1\n1 2\n2 3\n0 3\n", {e: 0 for e in range(4)}, 1
        )
        assert message.endswith("1 even cycle(s)")
        assert dump == {"failures": [], "palette": 1, "max_degree": 2, "even_cycles": [[0, [0, 1, 2, 3]]]}


class TestImmerse:
    def test_c5_gives_verified_k3(self, run):
        code, doc, err = run("immerse", ("c5.txt", C5))
        assert code == 0
        assert doc["chi"] == 3 and doc["t"] == 3
        assert doc["corners"] == [0, 3, 4]
        assert doc["verdict"]["ok"]
        assert "verified K3 certificate" in err

    def test_alpha_premise_failure(self, run):
        code, doc, _ = run("immerse", ("c7.txt", C7))
        assert code == 2
        assert doc["error"]["type"] == "PremiseError"
        assert "non-adjacent" in doc["error"]["message"]


@pytest.fixture
def replays(monkeypatch):
    """Count verify_immersion calls made through the CLI and the constructor."""
    import kchi.cli
    import kchi.construct

    calls = []
    real = kchi.construct.verify_immersion

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(kchi.cli, "verify_immersion", counted)
    monkeypatch.setattr(kchi.construct, "verify_immersion", counted)
    return calls


class TestOneReplayPerRun:
    def test_immerse_replays_once(self, run, replays):
        code, doc, _ = run("immerse", ("c5.txt", C5))
        assert code == 0 and doc["verdict"]["ok"]
        assert replays == [3]

    def test_stress_replays_once_per_case(self, run, replays):
        code, doc, _ = run("stress", "--n", "12", "--count", "15", "--seed", "2")
        assert code == 0 and doc["verified"] == "15/15"
        assert len(replays) == 15


class TestVerify:
    def cert_for(self, run, text):
        _, doc, _ = run("immerse", ("g.txt", text))
        return doc

    def test_accepts_own_output(self, run):
        cert = self.cert_for(run, C5)
        code, doc, _ = run("verify", ("g.txt", C5), ("cert.json", json.dumps(cert)))
        assert code == 0 and doc["ok"]
        assert doc["t"] == 3 and doc["t_source"] == "chromatic number"

    def test_rejects_tampering_with_first_clause(self, run):
        cert = self.cert_for(run, C5)
        cert["paths"][0]["edges"] = [0, 1]  # truncate the long path
        code, doc, _ = run("verify", ("g.txt", C5), ("cert.json", json.dumps(cert)))
        assert code == 1 and not doc["ok"]
        assert doc["first_violation"] == doc["failures"][0]
        assert "stops at" in doc["first_violation"]

    def test_corner_outside_the_graph_is_rejected(self, run):
        cert = {"kind": "immersion", "t": 3, "corners": [0, 1, 7], "paths": []}
        code, doc, _ = run("verify", ("k3.txt", "3 3\n0 1\n1 2\n0 2\n"), ("cert.json", json.dumps(cert)))
        assert code == 1 and "corner outside the graph" in doc["failures"]

    def test_falls_back_to_certificate_t(self, run):
        cert = {"kind": "immersion", "t": 1, "corners": [0], "paths": []}
        code, doc, _ = run("verify", ("g.txt", C7), ("cert.json", json.dumps(cert)))
        assert code == 0 and doc["t_source"] == "certificate" and doc["t"] == 1

    def test_alpha_is_checked_once(self, run, monkeypatch):
        import kchi.cli
        import kchi.immersion

        cert = self.cert_for(run, C5)
        calls = []
        real = kchi.cli.alpha_at_most_2

        def counted(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(kchi.cli, "alpha_at_most_2", counted)
        monkeypatch.setattr(kchi.immersion, "alpha_at_most_2", counted)
        code, doc, _ = run("verify", ("g.txt", C5), ("cert.json", json.dumps(cert)))
        assert code == 0 and doc["t_source"] == "chromatic number"
        assert calls == [5]

    def test_malformed_certificate(self, run):
        code, doc, _ = run("verify", ("g.txt", C5), ("cert.json", "{nope"))
        assert code == 2 and doc["error"]["type"] == "GraphError"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("edges", ["a"]),
            ("corners", ["0", 3, 4]),
            ("edges", [1.5]),
            ("classes", [7]),
            ("classes", [None]),
            ("classes", 5),
            ("classes", True),
            ("classes", 1.5),
            ("classes", None),
        ],
        ids=["string-edge", "string-corner", "float-edge", "int-class", "null-class",
             "int-classes", "bool-classes", "float-classes", "null-classes"],
    )
    def test_malformed_leaves_are_bad_input(self, run, field, value):
        cert = self.cert_for(run, C5)
        if field == "edges":
            cert["paths"][0]["edges"] = value
        else:
            cert[field] = value
        code, doc, _ = run("verify", ("g.txt", C5), ("cert.json", json.dumps(cert)))
        assert code == 2 and doc["error"]["type"] == "GraphError"
        assert doc["error"]["message"].startswith("malformed certificate: ")

    def test_pair_listed_twice_is_bad_input(self, run):
        k3 = "3 3\n0 1\n1 2\n0 2\n"
        cert = {
            "kind": "immersion", "t": 3, "corners": [0, 1, 2],
            "paths": [{"pair": [0, 1], "edges": [2, 1]}, {"pair": [0, 1], "edges": [0]},
                      {"pair": [0, 2], "edges": [2]}, {"pair": [1, 2], "edges": [1]}],
        }
        code, doc, _ = run("verify", ("g.txt", k3), ("cert.json", json.dumps(cert)))
        assert code == 2 and doc["error"]["type"] == "GraphError"
        assert "pair [0, 1]" in doc["error"]["message"]

    def test_pair_of_three_is_rejected_not_malformed(self, run):
        cert = self.cert_for(run, C5)
        cert["paths"][0]["pair"] = [0, 3, 4]
        code, doc, _ = run("verify", ("g.txt", C5), ("cert.json", json.dumps(cert)))
        assert code == 1 and not doc["ok"]

    @pytest.mark.parametrize("classes", [[], [[1]]], ids=["empty", "one-singleton"])
    def test_classes_that_cover_no_corner_pair_exit_1(self, run, classes):
        # a present ``classes`` field is checked even when it is empty
        cert = self.cert_for(run, C5)
        cert["classes"] = classes
        code, doc, _ = run("verify", ("g.txt", C5), ("cert.json", json.dumps(cert)))
        assert code == 1 and not doc["ok"]
        assert any("not covered by the colouring" in f for f in doc["failures"])

    @pytest.mark.parametrize(
        "extra", [[0, 99], [0, 1], [0, 2]], ids=["outside", "repeated", "spans-edge"]
    )
    def test_classes_that_are_no_colouring_exit_1(self, run, extra):
        from kchi.generators import emit_certificate, gen_family
        from kchi.immersion import chi_alpha2, faithful_immersion, refine_split

        g = gen_family("faithful", (3, 1))
        cert = json.loads(emit_certificate(faithful_immersion(g, refine_split(g, chi_alpha2(g)[1]))))
        # the edge list keeps g's edge order, which the certificate's ids refer to
        graph = ("g.txt", f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        code, _, _ = run("verify", graph, ("cert.json", json.dumps(cert)))
        assert code == 0
        cert["classes"].append(extra)
        code, doc, _ = run("verify", graph, ("cert.json", json.dumps(cert)))
        assert code == 1 and not doc["ok"]


class TestGen:
    def test_family(self, run):
        code, doc, _ = run("gen", "cycle", "5")
        assert code == 0
        assert (doc["n"], doc["m"], doc["family"]) == (5, 5, "cycle")

    def test_seeded_random_is_reproducible(self, run):
        a = run("gen", "--n", "9", "--density", "0.6", "--seed", "42")
        b = run("gen", "--n", "9", "--density", "0.6", "--seed", "42")
        assert a == b
        assert a[1]["seed"] == 42  # echoed for reproducibility
        c = run("gen", "--n", "9", "--density", "0.6", "--seed", "43")
        assert c[1]["edges"] != a[1]["edges"]

    def test_dot_format(self, run):
        code, out, _ = run("gen", "cocktail", "2", "--format", "dot")
        assert code == 0 and out.startswith("graph g {") and "0 -- 2;" in out

    def test_doubled_family(self, run):
        code, doc, _ = run("gen", "doubled", "cycle", "5")
        assert code == 0 and doc["m"] == 10

    def test_needs_parameters(self, run):
        code, doc, _ = run("gen")
        assert code == 2 and "family or --n" in doc["error"]["message"]

    def test_output_feeds_other_commands(self, run):
        _, doc, _ = run("gen", "cycle", "5")
        code, verdict, _ = run("immerse", ("g.json", json.dumps(doc)))
        assert code == 0 and verdict["chi"] == 3


class TestOracle:
    def test_chi(self, run):
        code, doc, _ = run("oracle", "chi", ("c5.txt", C5))
        assert code == 0 and doc["value"] == 3

    def test_chi_prime_r_on_k5(self, run):
        code, doc, _ = run("oracle", "chi-prime-r", ("k5.txt", K5), "--r", "2")
        assert code == 0 and doc["value"] == 2 and doc["r"] == 2

    def test_option_between_value_and_graph(self, run):
        code, doc, _ = run("oracle", "chi-prime-r", "--r", "2", ("k5.txt", K5))
        assert code == 0 and doc["value"] == 2 and doc["r"] == 2

    def test_immersion_exists(self, run):
        code, doc, _ = run("oracle", "immersion-exists", ("c5.txt", C5))
        assert code == 0 and doc["value"] is True and doc["t"] == 3

    def test_deficiency_of_doubled_cycle(self, run):
        _, g, _ = run("gen", "doubled", "cycle", "5")
        n, edges = g["n"], g["edges"]
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        code, doc, _ = run("oracle", "deficiency", ("g.txt", text))
        assert code == 0 and doc["value"] == 0 and doc["s"] == [] and doc["t"] == []

    def test_alpha(self, run):
        code, doc, _ = run("oracle", "alpha", ("c7.txt", C7))
        assert code == 0 and doc["value"] == 3


class TestStress:
    def test_small_campaign_verifies(self, run):
        code, doc, err = run("stress", "--n", "12", "--count", "20", "--seed", "1")
        assert code == 0
        assert doc["verified"] == "20/20" and doc["failures"] == []
        assert "20/20 verified" in err
        assert doc["seed"] == 1

    def test_worker_pool_path(self, run):
        code, doc, _ = run("stress", "--n", "10", "--count", "40", "--seed", "3")
        assert code == 0 and doc["verified"] == "40/40"

    def test_worker_pool_is_shut_down(self, run, monkeypatch):
        import concurrent.futures

        pools = []

        class InlinePool(concurrent.futures.Executor):
            def __init__(self):
                self.closed = False
                pools.append(self)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self, wait=True, **kwargs):
                self.closed = True

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        code, doc, _ = run("stress", "--n", "8", "--count", "32", "--seed", "4")
        assert code == 0 and doc["verified"] == "32/32"
        assert len(pools) == 1 and pools[0].closed

    def test_failed_case_records_its_dump(self, run, monkeypatch):
        import kchi.cli
        from kchi.errors import CertificateError

        def broken(g):
            raise CertificateError("simulated", dump={"k": 1})

        monkeypatch.setattr(kchi.cli, "construct_immersion", broken)
        code, doc, _ = run("stress", "--n", "6", "--count", "3", "--seed", "0")
        assert code == 3 and doc["verified"] == "0/3"
        assert [case["dump"] for case in doc["failures"]] == [{"k": 1}] * 3

    @pytest.mark.parametrize("count", [5, 32])  # the serial path and the pool path
    def test_a_case_that_raises_is_recorded_and_exits_3(self, run, monkeypatch, count):
        import concurrent.futures

        import kchi.cli
        from kchi.errors import CertificateError

        class InlinePool(concurrent.futures.Executor):
            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        real, calls = kchi.cli.construct_immersion, []

        def flaky(g):
            calls.append(g)
            if len(calls) == 2:
                raise KeyError("simulated")
            if len(calls) == 4:
                raise CertificateError("simulated", dump={"k": 1})
            return real(g)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(kchi.cli, "construct_immersion", flaky)
        code, doc, err = run("stress", "--n", "6", "--count", str(count), "--seed", "0")
        assert code == 3 and "error" not in doc
        assert doc["verified"] == f"{count - 2}/{count}"
        assert [case["case"] for case in doc["failures"]] == [1, 3]
        key_error, certificate_error = doc["failures"]
        assert key_error["failures"] == ["KeyError: 'simulated'"] and "dump" not in key_error
        assert key_error["edge_list"].startswith(f"{key_error['n']} ")
        assert certificate_error["dump"] == {"k": 1}
        assert "internal fault in 2 case(s), first: case 1" in err and "Traceback" in err

    def test_campaigns_are_reproducible(self, run):
        a = run("stress", "--n", "14", "--count", "10", "--seed", "9")
        assert a == run("stress", "--n", "14", "--count", "10", "--seed", "9")


class TestErrorDiscipline:
    def test_parse_errors_carry_positions(self, run):
        code, doc, _ = run("colour", ("bad.txt", "3 1\n0 0\n"))
        assert code == 2 and "loop" in doc["error"]["message"]

    def test_unknown_subcommand(self, run):
        code, doc, _ = run("frobnicate")
        assert code == 2 and doc["error"]["type"] == "UsageError"

    def test_missing_file(self, run):
        code, doc, _ = run("colour", "no-such-file.txt")
        assert code == 2 and doc["error"]["type"] == "FileNotFoundError"

    def test_internal_fault_exits_3(self, run, monkeypatch):
        import kchi.cli

        def broken(args):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(kchi.cli, "_cmd_colour", broken)
        code, doc, err = run("colour", stdin=C5)
        assert code == 3
        assert doc == {"error": {"type": "RuntimeError", "message": "simulated fault"}}
        assert "Traceback" in err

    def test_constructor_fault_exits_3_with_its_dump(self, run, monkeypatch):
        import kchi.cli
        from kchi.errors import CertificateError

        def broken(g):
            raise CertificateError("simulated", dump={"k": 1})

        monkeypatch.setattr(kchi.cli, "construct_immersion", broken)
        code, doc, err = run("immerse", ("c5.txt", C5))
        assert code == 3
        assert doc == {"error": {"type": "CertificateError", "message": "simulated", "dump": {"k": 1}}}
        assert "Traceback" in err

        # a stress campaign records the same fault as a failed case instead
        code, doc, _ = run("stress", "--n", "6", "--count", "2", "--seed", "0")
        assert code == 3 and doc["verified"] == "0/2"
        assert doc["failures"][0]["failures"] == ["CertificateError: simulated"]

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            '{"n": 3}',
            '{"edges": []}',
            '{"n": 3, "edges": [1]}',
            '{"n": 1, "edges": {}}',
            '{"n": 3, "edges": [[0, 1, 2]]}',
            '{"n": 3, "edges": [[0.0, 1]]}',
            '{"n": true, "edges": []}',
            '{"n": "3", "edges": []}',
            '{"n": 3, "edges": [[0, true]]}',
        ],
    )
    def test_malformed_graph_document_is_bad_input(self, run, text):
        code, doc, _ = run("immerse", "-", stdin=text)
        assert code == 2
        assert doc["error"]["type"] == "GraphError"

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["gen", "cycle"], "GraphError"),
            (["gen", "cycle", "5", "6"], "GraphError"),
            (["gen", "cycle", "x"], "GraphError"),
            (["gen", "cycle", "+-5"], "GraphError"),
            (["gen", "cycle", "²"], "GraphError"),
            (["gen", "doubled"], "GraphError"),
            (["gen", "faithful"], "GraphError"),
            (["gen", "faithful", "2", "3", "4"], "GraphError"),
            (["stress", "--n", "0", "--count", "3"], "UsageError"),
            (["stress", "--count", "-2"], "UsageError"),
            (["gen", "--n", "5", "--density", "nan"], "UsageError"),
            (["stress", "--count", "1", "--density", "inf"], "UsageError"),
        ],
        ids=lambda v: "_".join(v) if isinstance(v, list) else v,
    )
    def test_bad_generator_or_stress_parameters_exit_2(self, run, argv, kind):
        code, doc, _ = run(*argv)
        assert code == 2 and doc["error"]["type"] == kind

    def test_colours_a_long_path(self, run):
        n = 2000
        text = f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
        code, doc, _ = run("colour", ("path.txt", text))
        assert code == 0
        assert doc["verdict"]["ok"] and doc["palette"] <= doc["max_degree"] == 2


def test_module_entry_point(tmp_path):
    g = tmp_path / "c5.txt"
    g.write_text(C5)
    proc = subprocess.run(
        [sys.executable, "-m", "kchi.cli", "immerse", str(g)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"]["ok"]
    assert "verified K3" in proc.stderr
