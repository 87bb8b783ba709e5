#!/bin/sh
# The command-line front end, pipe by pipe.
#
# Everything on stdout is JSON; logs go to stderr; exit codes are 0 for a
# verified result, 1 for a rejected certificate, 2 for bad input, 3 for an
# internal fault.  That makes the subcommands composable:
# gen | immerse | verify round-trips.
#
# Run:  sh demos/cli_pipelines.sh
# It calls the installed `kchi` when there is one (`pip install -e .`), and
# otherwise `python3 -m kchi` on this checkout's src/.
set -eu

if ! command -v kchi > /dev/null 2>&1; then
    src=$(cd "$(dirname "$0")/../src" && pwd)
    kchi() { PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python3 -m kchi "$@"; }
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo '# generate a seeded random graph with no independent triple'
kchi gen --n 12 --density 0.6 --seed 7 > "$workdir/g.json"
head -c 120 "$workdir/g.json"; echo '...'

echo
echo '# construct and verify its complete-graph immersion'
kchi immerse "$workdir/g.json" > "$workdir/cert.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); print('chi', d['chi'], 'corners', d['corners'])" "$workdir/cert.json"

echo
echo '# the verifier replays the certificate independently'
kchi verify "$workdir/g.json" "$workdir/cert.json"

echo
echo '# a corner pair with no listed path is joined by its lowest-id edge, so'
echo '# the same certificate with every pair written out verifies too (older'
echo '# certificates list every path)'
python3 - "$workdir/g.json" "$workdir/cert.json" "$workdir/cert-full.json" <<'EOF'
import json, sys
from itertools import combinations
graph, doc = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
lowest = {}
for e, (u, v) in enumerate(graph["edges"]):
    lowest.setdefault((min(u, v), max(u, v)), e)
listed = {tuple(p["pair"]) for p in doc["paths"]}
doc["paths"] += [{"pair": list(pair), "edges": [lowest[pair]]}
                 for pair in combinations(doc["corners"], 2) if pair not in listed]
doc["paths"].sort(key=lambda p: p["pair"])
print("listed", len(listed), "of", len(doc["paths"]), "paths")
json.dump(doc, open(sys.argv[3], "w"))
EOF
kchi verify "$workdir/g.json" "$workdir/cert-full.json" > /dev/null
echo "every pair written out: verified"

echo
echo '# a benchmark-sized graph: several singletons own attached classes, so the'
echo '# bridge stage runs once per owner; the round trip must verify'
kchi gen --n 300 --density 0.6 --seed 11 > "$workdir/g300.json"
kchi immerse - < "$workdir/g300.json" > "$workdir/cert300.json"
python3 - "$workdir/cert300.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print("chi", doc["chi"], "corners", len(doc["corners"]))
if len(doc["corners"]) != doc["chi"]:
    sys.exit("BUG: corner count differs from chi")
EOF
kchi verify "$workdir/g300.json" "$workdir/cert300.json" > /dev/null
echo "verified"

echo
echo '# the certificate lists exactly the non-adjacent corner pairs; every'
echo '# adjacent pair is left to its lowest-id edge'
python3 - "$workdir/g300.json" "$workdir/cert300.json" <<'EOF'
import json, sys
from itertools import combinations
graph, doc = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
adjacent = {(min(u, v), max(u, v)) for u, v in graph["edges"]}
listed = {tuple(p["pair"]) for p in doc["paths"]}
pairs = set(combinations(sorted(doc["corners"]), 2))
if not listed <= pairs - adjacent:
    sys.exit(f"BUG: listed pairs that are adjacent or not corner pairs: {sorted(listed - (pairs - adjacent))[:5]}")
if not pairs - listed <= adjacent:
    sys.exit(f"BUG: unlisted corner pairs with no edge: {sorted(pairs - listed - adjacent)[:5]}")
print("listed", len(listed), "implicit", len(pairs - listed))
EOF

echo
echo '# the n = 300 certificate written out in full, every implicit pair as its'
echo '# lowest-id edge: the verifier walks each one-edge path like any other and'
echo '# accepts it, and rejects a copy whose first one-edge path takes the edge'
echo '# of the next one (exit 1)'
python3 - "$workdir/g300.json" "$workdir/cert300.json" "$workdir" <<'EOF'
import json, sys
from itertools import combinations
graph, doc = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
lowest = {}
for e, (u, v) in enumerate(graph["edges"]):
    lowest.setdefault((min(u, v), max(u, v)), e)
listed = {tuple(p["pair"]) for p in doc["paths"]}
doc["paths"] += [{"pair": list(pair), "edges": [lowest[pair]]}
                 for pair in combinations(sorted(doc["corners"]), 2) if pair not in listed]
doc["paths"].sort(key=lambda p: p["pair"])
print("one-edge paths", sum(len(p["edges"]) == 1 for p in doc["paths"]), "of", len(doc["paths"]))
json.dump(doc, open(sys.argv[3] + "/cert300-full.json", "w"))
first, second = [p for p in doc["paths"] if len(p["edges"]) == 1][:2]
first["edges"] = second["edges"]
json.dump(doc, open(sys.argv[3] + "/cert300-swapped.json", "w"))
EOF
kchi verify "$workdir/g300.json" "$workdir/cert300-full.json" > /dev/null
echo "written out in full: verified"
status=0
kchi verify "$workdir/g300.json" "$workdir/cert300-swapped.json" > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "BUG: a one-edge path on another pair's edge gave exit $status, not 1"; exit 1
fi
echo "one-edge path on another pair's edge: rejected (exit $status)"

echo
echo '# a near-complete host: its complement is sparse, so most classes are'
echo '# singletons and the constructor walks a long chain of levels, each'
echo '# handing down the restriction of its own colouring'
kchi gen --n 400 --density 0.005 --seed 101 | tee "$workdir/g400.json" \
    | kchi immerse - > "$workdir/cert400.json"
python3 -c "import json,sys; print('chi', json.load(open(sys.argv[1]))['chi'])" "$workdir/cert400.json"
kchi verify "$workdir/g400.json" "$workdir/cert400.json" > /dev/null
echo "verified"

echo
echo '# the shortest level chains: no vertex (t = 0), one vertex (t = 1), and a'
echo '# host whose chain passes two levels where no class is attached; each'
echo '# level joins its singletons to the corners below by direct edges'
printf '0 0\n' > "$workdir/empty.txt"
printf '1 0\n' > "$workdir/single.txt"
printf '5 8\n0 2\n0 3\n1 2\n1 3\n0 4\n1 4\n2 4\n3 4\n' > "$workdir/unattached.txt"
for host in empty single unattached; do
    kchi immerse "$workdir/$host.txt" > "$workdir/$host-cert.json"
    kchi verify "$workdir/$host.txt" "$workdir/$host-cert.json" > /dev/null
    python3 -c "import json,sys; print(sys.argv[2], 'corners', json.load(open(sys.argv[1]))['corners'], 'verified')" \
        "$workdir/$host-cert.json" "$host"
done

echo
echo '# a doubled faithful host (n = 9, m = 50): every pair has parallel copies,'
echo '# and three corner pairs are joined by length-3 routes through inner halves'
kchi gen doubled faithful 4 2 | tee "$workdir/faithful.json" \
    | kchi immerse - > "$workdir/faithful-cert.json"
kchi verify "$workdir/faithful.json" "$workdir/faithful-cert.json" > /dev/null
python3 -c "import json,sys; print('length-3 paths', sum(len(p['edges']) == 3 for p in json.load(open(sys.argv[1]))['paths']), 'verified')" \
    "$workdir/faithful-cert.json"

echo
echo '# a host with an independent triple: the 6-cycle immerses K3 on 0, 2, 4;'
echo '# with no chi to check against, t comes from the certificate itself'
printf '6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n' > "$workdir/c6.txt"
cat > "$workdir/c6cert.json" <<'EOF'
{"kind": "immersion", "t": 3, "corners": [0, 2, 4],
 "paths": [{"pair": [0, 2], "edges": [0, 1]},
           {"pair": [0, 4], "edges": [5, 4]},
           {"pair": [2, 4], "edges": [2, 3]}]}
EOF
kchi verify "$workdir/c6.txt" "$workdir/c6cert.json" > "$workdir/c6verdict.json"
python3 - "$workdir/c6verdict.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print("t", doc["t"], "from the", doc["t_source"])
if doc["t_source"] != "certificate" or not doc["ok"]:
    sys.exit("BUG: the certificate branch of verify did not accept")
EOF

echo
echo '# a faithful colouring need not be optimal: singletons 0 and 1 meet the'
echo '# class {2, 3} in one edge each, at different halves (a disputed class),'
echo '# and the certificate still verifies'
printf '4 3\n0 2\n1 3\n0 1\n' > "$workdir/disputed.txt"
cat > "$workdir/disputed-cert.json" <<'EOF'
{"kind":"immersion","t":2,"corners":[0,1],"paths":[{"pair":[0,1],"edges":[2]}],"classes":[[0],[1],[2,3]]}
EOF
kchi verify "$workdir/disputed.txt" "$workdir/disputed-cert.json" > "$workdir/disputed-verdict.json"
python3 - "$workdir/disputed-verdict.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["ok"] is not True:
    sys.exit(f"BUG: the disputed-class certificate was rejected: {doc['failures']}")
print("disputed class: accepted, t", doc["t"])
EOF

echo
echo '# a tampered certificate is rejected with exit code 1'
python3 - "$workdir/cert.json" "$workdir/bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["paths"]:  # cut the longest listed path short
    longest = max(doc["paths"], key=lambda p: len(p["edges"]))
    longest["edges"] = longest["edges"][:-1]
else:  # every path is implicit: drop a corner
    doc["corners"].pop()
json.dump(doc, open(sys.argv[2], "w"))
EOF
status=0
kchi verify "$workdir/g.json" "$workdir/bad.json" || status=$?
if [ "$status" -ne 1 ]; then
    echo "BUG: tampered certificate gave exit $status, not 1"; exit 1
fi
echo "rejected as expected (exit $status)"

echo
echo '# a certificate whose corner 7 lies outside K3 is rejected with exit code 1'
printf '3 3\n0 1\n1 2\n0 2\n' > "$workdir/k3.txt"
echo '{"kind": "immersion", "t": 3, "corners": [0, 1, 7], "paths": []}' > "$workdir/k3-corner7.json"
status=0
kchi verify "$workdir/k3.txt" "$workdir/k3-corner7.json" > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "BUG: a corner outside the graph gave exit $status, not 1"; exit 1
fi
echo "corner outside the graph: rejected (exit $status)"

echo
echo '# K3 with no listed path: each corner pair takes its one edge, exit 0'
echo '{"kind": "immersion", "t": 3, "corners": [0, 1, 2], "paths": []}' > "$workdir/k3-implicit.json"
kchi verify "$workdir/k3.txt" "$workdir/k3-implicit.json" > /dev/null
echo "every path implicit: verified"

echo
echo '# an implicit pair needs an edge: corners 0 and 2 of the path 0-1-2 have'
echo '# none, exit 1'
printf '3 2\n0 1\n1 2\n' > "$workdir/p3.txt"
echo '{"kind": "immersion", "t": 2, "corners": [0, 2], "paths": []}' > "$workdir/p3-cert.json"
status=0
kchi verify "$workdir/p3.txt" "$workdir/p3-cert.json" > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "BUG: an implicit pair with no edge gave exit $status, not 1"; exit 1
fi
echo "implicit pair with no edge: rejected (exit $status)"

echo
echo '# a listed path may not take the edge of an implicit pair: the path 0-2-1'
echo '# of (0, 1) spends edges 2 and 1, the implicit paths of (0, 2) and (1, 2),'
echo '# exit 1'
cat > "$workdir/k3-reuse.json" <<'EOF'
{"kind": "immersion", "t": 3, "corners": [0, 1, 2],
 "paths": [{"pair": [0, 1], "edges": [2, 1]}]}
EOF
status=0
kchi verify "$workdir/k3.txt" "$workdir/k3-reuse.json" > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "BUG: a listed path on an implicit edge gave exit $status, not 1"; exit 1
fi
echo "listed path on an implicit edge: rejected (exit $status)"

echo
echo '# a malformed certificate is bad input, exit code 2 (never 3, a fault):'
echo '# a string edge, and a classes field that is no list'
python3 - "$workdir/cert.json" "$workdir" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["paths"].append({"pair": doc["corners"][:2], "edges": ["a"]})
json.dump(doc, open(sys.argv[2] + "/malformed-edge.json", "w"))
doc["paths"].pop()
doc["classes"] = 5
json.dump(doc, open(sys.argv[2] + "/malformed-classes.json", "w"))
EOF
for bad in edge classes; do
    status=0
    kchi verify "$workdir/g.json" "$workdir/malformed-$bad.json" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "BUG: malformed $bad gave exit $status, not 2"; exit 1
    fi
    echo "malformed $bad: rejected as bad input (exit $status)"
done

echo
echo '# a certificate that lists a pair twice is bad input, exit code 2: the'
echo '# first path of (0, 1) spends edges 2 and 1, which the other paths reuse'
cat > "$workdir/k3-twice.json" <<'EOF'
{"kind": "immersion", "t": 3, "corners": [0, 1, 2],
 "paths": [{"pair": [0, 1], "edges": [2, 1]}, {"pair": [0, 1], "edges": [0]},
           {"pair": [0, 2], "edges": [2]}, {"pair": [1, 2], "edges": [1]}]}
EOF
status=0
kchi verify "$workdir/k3.txt" "$workdir/k3-twice.json" > /dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "BUG: a pair listed twice gave exit $status, not 2"; exit 1
fi
echo "pair listed twice: rejected as bad input (exit $status)"

echo
echo '# a malformed JSON graph document is bad input too, exit code 2'
for doc in '{' '{"n": 3}'; do
    status=0
    echo "$doc" | kchi immerse - > /dev/null || status=$?
    if [ "$status" -ne 2 ]; then
        echo "BUG: graph document $doc gave exit $status, not 2"; exit 1
    fi
    echo "$doc: rejected as bad input (exit $status)"
done

echo
echo '# bad generator or stress parameters are bad input too, exit code 2'
for args in 'gen cycle' 'gen cycle +-5' 'stress --n 0 --count 3'; do
    status=0
    kchi $args > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "BUG: kchi $args gave exit $status, not 2"; exit 1
    fi
    echo "kchi $args: rejected as bad input (exit $status)"
done

echo
echo '# edge colouring within the maximum degree, with class breakdown'
kchi gen doubled cycle 5 | kchi colour --r 2 -

echo
echo '# an edge list out of pair order, with parallel copies interleaved:'
echo '# edge ids stay the input line order.  A checker that does not use kchi'
echo '# reads each class back through the input: every class must be vertex-'
echo '# disjoint single edges and odd cycles, within max_degree colours'
cat > "$workdir/check_colouring.py" <<'EOF'
import json, sys
from collections import defaultdict
text = open(sys.argv[1]).read()
if text.lstrip().startswith("{"):  # a gen document
    pairs = [tuple(e) for e in json.loads(text)["edges"]]
else:  # an edge list: "n m", then one "u v" line per edge
    pairs = [tuple(map(int, line.split())) for line in text.splitlines()[1:]]
doc = json.load(open(sys.argv[2]))
degree = defaultdict(int)
for u, v in pairs:
    degree[u] += 1
    degree[v] += 1
max_degree = max(degree.values(), default=0)
if sorted(e for cls in doc["classes"] for e in cls) != list(range(len(pairs))):
    sys.exit("BUG: the classes do not colour every edge exactly once")
if doc["max_degree"] != max_degree:
    sys.exit(f"BUG: max_degree {doc['max_degree']}, but the input has {max_degree}")
if len(doc["classes"]) != doc["palette"] or doc["palette"] > max_degree:
    sys.exit(f"BUG: {len(doc['classes'])} classes, palette {doc['palette']}, max degree {max_degree}")
singles = odd = 0
for c, cls in enumerate(doc["classes"]):
    adj = defaultdict(list)
    for e in cls:
        u, v = pairs[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        degrees = {len(adj[x]) for x in comp}
        edges = sum(len(adj[x]) for x in comp) // 2
        if degrees == {1}:
            singles += 1
        elif degrees == {2} and edges % 2:
            odd += 1
        else:
            sys.exit(f"BUG: class {c} has a component on {sorted(comp)[:8]} that is no edge or odd cycle")
print(doc["palette"], "colours for max degree", max_degree, "-", singles, "single edges and",
      odd, "odd cycles, read back through the input")
EOF
printf '3 7\n2 0\n1 2\n0 2\n0 2\n2 1\n1 2\n1 0\n' > "$workdir/unsorted.txt"
kchi colour - < "$workdir/unsorted.txt" > "$workdir/unsorted-colour.json"
python3 "$workdir/check_colouring.py" "$workdir/unsorted.txt" "$workdir/unsorted-colour.json"

echo
echo '# the same check on a dense graph with no independent triple'
kchi gen --n 60 --density 0.5 --seed 3 | tee "$workdir/g60.json" | kchi colour - > "$workdir/g60-colour.json"
python3 "$workdir/check_colouring.py" "$workdir/g60.json" "$workdir/g60-colour.json"

echo '# exhaustive oracles for small instances'
kchi gen cycle 7 | kchi oracle chi -
kchi gen complete 5 | kchi oracle chi-prime-r - --r 2
# options and operands in either order (set -e stops the run on a nonzero exit)
kchi gen complete 5 > "$workdir/k5.json"
kchi oracle chi-prime-r --r 2 "$workdir/k5.json"

echo
echo '# randomized stress: construct + verify in bulk'
kchi stress --n 30 --count 200 --seed 3
