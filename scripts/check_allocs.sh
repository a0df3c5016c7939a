#!/usr/bin/env sh
# check_allocs.sh — allocation-regression gate for the evaluation hot path.
#
# Runs the restrictor benchmark suite with -benchmem and fails if
# allocs/op on BenchmarkRestrictors/Walk exceeds the committed threshold.
# The threshold is allocation *count*, which is stable across hosts and
# CPU speeds (unlike ns/op), so this is safe to enforce in CI: the
# copy-free path core (prefix-sharing arena + slab materialization) and
# one result buffer for every source keep Walk at ~150 allocs/op; a
# result set per source sat at ~1.1k, the pre-arena representation at
# ~11.6k. A breach means per-source or per-candidate allocation, or
# per-classify map building, crept back into the product search.
set -eu

THRESHOLD=${ALLOCS_THRESHOLD:-400}
PLANCACHE_THRESHOLD=${PLANCACHE_ALLOCS_THRESHOLD:-64}

out=$(go test -run xxx -bench 'BenchmarkRestrictors$/Walk' -benchtime 1x -benchmem . 2>&1)
printf '%s\n' "$out"

allocs=$(printf '%s\n' "$out" | awk '/^BenchmarkRestrictors\/Walk/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$allocs" ]; then
    echo "check_allocs: could not find BenchmarkRestrictors/Walk allocs/op in benchmark output" >&2
    exit 1
fi
if [ "$allocs" -gt "$THRESHOLD" ]; then
    echo "check_allocs: BenchmarkRestrictors/Walk allocates $allocs allocs/op > threshold $THRESHOLD" >&2
    exit 1
fi
echo "check_allocs: BenchmarkRestrictors/Walk allocates $allocs allocs/op (threshold $THRESHOLD)"

# Planner gate: the plan-cache hit path must stay cheap (a key hash plus
# an LRU bump — no re-optimization) and strictly cheaper than planning
# from cold, on a static engine (hit) and on a live one planning after
# each ingest batch (live: plans are costed against the sealed base, so
# a batch that does not compact keeps them). -benchtime 20x amortizes the
# one-off warmup fixture.
out=$(go test -run xxx -bench 'BenchmarkPlanCache' -benchtime 20x -benchmem . 2>&1)
printf '%s\n' "$out"

cold=$(printf '%s\n' "$out" | awk '/^BenchmarkPlanCache\/cold/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
hit=$(printf '%s\n' "$out" | awk '/^BenchmarkPlanCache\/hit/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
live=$(printf '%s\n' "$out" | awk '/^BenchmarkPlanCache\/live/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$cold" ] || [ -z "$hit" ] || [ -z "$live" ]; then
    echo "check_allocs: could not find BenchmarkPlanCache allocs/op in benchmark output" >&2
    exit 1
fi
for c in "hit $hit" "live $live"; do
    set -- $c
    if [ "$2" -gt "$PLANCACHE_THRESHOLD" ]; then
        echo "check_allocs: plan-cache $1 path allocates $2 allocs/op > threshold $PLANCACHE_THRESHOLD" >&2
        exit 1
    fi
    if [ "$2" -ge "$cold" ]; then
        echo "check_allocs: plan-cache $1 path ($2 allocs/op) is not cheaper than cold planning ($cold allocs/op)" >&2
        exit 1
    fi
done
echo "check_allocs: plan-cache hit path allocates $hit allocs/op, live $live, vs $cold cold (threshold $PLANCACHE_THRESHOLD)"

# Streaming gate: chunked delivery (RunStream paged to exhaustion) must
# stay within a small constant number of extra allocations over the
# equivalent batch Run — chunks are zero-copy slices of the evaluated
# set, so the only legitimate overhead is the stream bookkeeping. A
# breach means chunking started copying paths.
STREAM_THRESHOLD=${STREAM_ALLOCS_THRESHOLD:-300}

out=$(go test -run xxx -bench 'BenchmarkStreamDelivery' -benchtime 20x -benchmem . 2>&1)
printf '%s\n' "$out"

batch=$(printf '%s\n' "$out" | awk '/^BenchmarkStreamDelivery\/batch/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
stream=$(printf '%s\n' "$out" | awk '/^BenchmarkStreamDelivery\/stream/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$batch" ] || [ -z "$stream" ]; then
    echo "check_allocs: could not find BenchmarkStreamDelivery allocs/op in benchmark output" >&2
    exit 1
fi
extra=$((stream - batch))
if [ "$extra" -gt "$STREAM_THRESHOLD" ]; then
    echo "check_allocs: streaming delivery allocates $extra allocs/op over batch ($stream vs $batch) > threshold $STREAM_THRESHOLD" >&2
    exit 1
fi
echo "check_allocs: streaming delivery allocates $extra allocs/op over batch ($stream vs $batch, threshold $STREAM_THRESHOLD)"

# Live-store gate: a store whose delta is empty (post-compaction, ov ==
# nil) must evaluate with EXACTLY the allocation profile of a from-scratch
# sealed CSR — the overlay is a nil-check on the read path, nothing more.
# Any drift means epoch plumbing started taxing sealed reads. The search
# runs on the query's goroutine, so the count is deterministic apart from
# the runtime's own background allocations after a collection — a handful
# per GC, which 20 iterations' integer allocs/op absorbs.
out=$(go test -run xxx -bench 'BenchmarkSnapshotOverlayRead/(sealed|empty-delta)' -benchtime 20x -benchmem . 2>&1)
printf '%s\n' "$out"

sealed=$(printf '%s\n' "$out" | awk '/^BenchmarkSnapshotOverlayRead\/sealed/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
empty=$(printf '%s\n' "$out" | awk '/^BenchmarkSnapshotOverlayRead\/empty-delta/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$sealed" ] || [ -z "$empty" ]; then
    echo "check_allocs: could not find BenchmarkSnapshotOverlayRead allocs/op in benchmark output" >&2
    exit 1
fi
if [ "$empty" -ne "$sealed" ]; then
    echo "check_allocs: empty-delta read path allocates $empty allocs/op vs sealed $sealed — overlay is no longer free when the delta is empty" >&2
    exit 1
fi
echo "check_allocs: empty-delta read path at sealed parity ($empty allocs/op)"

# Fault-registry gate: a disarmed fault point (the production state of
# every fault.Hit seam — WAL appends, fsyncs, compaction swaps, search
# sources, HTTP writes) must cost exactly one atomic load plus a nil
# check: ZERO allocations, no tolerance. Any drift means the injection
# registry started taxing paths it exists to instrument.
out=$(go test -run xxx -bench 'BenchmarkDisarmedHit' -benchtime 100000x -benchmem ./internal/fault 2>&1)
printf '%s\n' "$out"

disarmed=$(printf '%s\n' "$out" | awk '/^BenchmarkDisarmedHit/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$disarmed" ]; then
    echo "check_allocs: could not find BenchmarkDisarmedHit allocs/op in benchmark output" >&2
    exit 1
fi
if [ "$disarmed" -ne 0 ]; then
    echo "check_allocs: disarmed fault point allocates $disarmed allocs/op — fault.Hit must be free when no schedule is armed" >&2
    exit 1
fi
echo "check_allocs: disarmed fault points at zero-alloc parity ($disarmed allocs/op)"

# Observability gate: disabled instrumentation must be invisible. A nil
# trace reduces the full per-query span choreography (context probe,
# starts, attrs, ends) to nil checks, and nil-registry instruments
# record for free — ZERO allocations for both, no tolerance. Any drift
# means the metrics/tracing layer started taxing every untraced query.
out=$(go test -run xxx -bench 'BenchmarkNilTraceSpan|BenchmarkDisarmedInstruments' -benchtime 100000x -benchmem ./internal/obs 2>&1)
printf '%s\n' "$out"

niltrace=$(printf '%s\n' "$out" | awk '/^BenchmarkNilTraceSpan/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
nilinst=$(printf '%s\n' "$out" | awk '/^BenchmarkDisarmedInstruments/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$niltrace" ] || [ -z "$nilinst" ]; then
    echo "check_allocs: could not find obs nil-path allocs/op in benchmark output" >&2
    exit 1
fi
if [ "$niltrace" -ne 0 ]; then
    echo "check_allocs: nil-trace span choreography allocates $niltrace allocs/op — disabled tracing must be free" >&2
    exit 1
fi
if [ "$nilinst" -ne 0 ]; then
    echo "check_allocs: disarmed instruments allocate $nilinst allocs/op — nil-registry counters/gauges/histograms must record for free" >&2
    exit 1
fi
echo "check_allocs: disabled observability at zero-alloc parity (trace $niltrace, instruments $nilinst allocs/op)"

# Page-encoding gate: a result's path lines are appended straight from
# the paths' IDs into one pooled buffer when its evaluation completes,
# each key copied from the rendering graph.Build made of it, and every
# page is one write of a byte range of that encoding. Encoding one
# 1024-path page and writing it to io.Discard must allocate ZERO times,
# no tolerance, both over a sealed graph (sealed) and over a delta view
# whose paths visit appended objects, whose keys are rendered per line
# (delta); so must writing that page from an encoding made beforehand, as
# a cache hit does (cached). Any drift means per-path strings or
# reflection crept back into delivery, or a page started copying.
out=$(go test -run xxx -bench 'BenchmarkWritePage' -benchtime 100x -benchmem ./internal/server 2>&1)
printf '%s\n' "$out"

for case in sealed delta cached; do
    page=$(printf '%s\n' "$out" | awk -v c="BenchmarkWritePage/$case-" 'index($0, c) == 1 { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
    if [ -z "$page" ]; then
        echo "check_allocs: could not find BenchmarkWritePage/$case allocs/op in benchmark output" >&2
        exit 1
    fi
    if [ "$page" -ne 0 ]; then
        echo "check_allocs: writing a 1024-path page ($case) allocates $page allocs/op — page encoding must be allocation-free" >&2
        exit 1
    fi
    echo "check_allocs: page encoding ($case) at zero allocs ($page allocs/op per 1024-path page)"
done

# Selector-pushdown gate: ANY 2 TRAIL over every endpoint pair enumerates
# ~20x the trails it returns; with the per-pair quota applied inside the
# product search, what it allocates must follow the paths RETURNED
# (paths/op), not the trails enumerated: at most 1.2 x 3 allocations per
# returned path (nodes, edges, index entry). Allocation counts alone would
# not catch a regression — slab carving amortizes them either way — so
# the bytes are gated too: 1 KiB per returned path is ~2x today's and a
# tenth of what materializing the whole enumeration costs.
out=$(go test -run xxx -bench 'BenchmarkSelectorPushdown' -benchtime 3x -benchmem ./internal/automaton 2>&1)
printf '%s\n' "$out"

field() { printf '%s\n' "$out" | awk -v unit="$1" '/^BenchmarkSelectorPushdown/ { for (i = 1; i < NF; i++) if ($(i+1) == unit) print int($i) }'; }
paths=$(field paths/op)
allocs=$(field allocs/op)
bytes=$(field B/op)
if [ -z "$paths" ] || [ -z "$allocs" ] || [ -z "$bytes" ] || [ "$paths" -eq 0 ]; then
    echo "check_allocs: could not find BenchmarkSelectorPushdown paths/op, allocs/op and B/op in benchmark output" >&2
    exit 1
fi
if [ $((allocs * 10)) -gt $((paths * 36)) ]; then
    echo "check_allocs: selector pushdown allocates $allocs allocs/op for $paths returned paths > 1.2 x 3 per path" >&2
    exit 1
fi
if [ "$bytes" -gt $((paths * 1024)) ]; then
    echo "check_allocs: selector pushdown allocates $bytes B/op for $paths returned paths > 1 KiB per path — the search is materializing what the selector drops" >&2
    exit 1
fi
echo "check_allocs: selector pushdown allocates $allocs allocs/op, $bytes B/op for $paths returned paths"

# Seed gate: a seeded query's seed set comes from the label and property
# postings, so what it costs follows the candidate nodes, not |V|. The
# seed set of (?x:Person {id:N}) must allocate EXACTLY as much on 100k
# persons as on 10k; a scan of the node set would allocate per node.
out=$(go test -run xxx -bench 'BenchmarkSeedNodes' -benchtime 100x -benchmem ./internal/engine 2>&1)
printf '%s\n' "$out"

small=$(printf '%s\n' "$out" | awk '/^BenchmarkSeedNodes\/persons=10000-/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
large=$(printf '%s\n' "$out" | awk '/^BenchmarkSeedNodes\/persons=100000-/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$small" ] || [ -z "$large" ]; then
    echo "check_allocs: could not find BenchmarkSeedNodes allocs/op in benchmark output" >&2
    exit 1
fi
if [ "$large" -ne "$small" ]; then
    echo "check_allocs: seeding allocates $large allocs/op on 100k persons vs $small on 10k — seed cost grows with the graph" >&2
    exit 1
fi
echo "check_allocs: seeding allocates $small allocs/op on 10k and 100k persons"

# Reach gate: a seeded /reach runs one product BFS from the seed, whose
# sweep reuses a pooled distance table, so what it costs follows the
# nodes the seed reaches, not |V|. Engine.Reach of
# (?x:Person {id:N})-[:Knows+]->(?y) must allocate EXACTLY as much on
# 100k persons as on 10k; a per-call table or node scan would not.
out=$(go test -run xxx -bench 'BenchmarkReach$' -benchtime 100x -benchmem ./internal/engine 2>&1)
printf '%s\n' "$out"

small=$(printf '%s\n' "$out" | awk '/^BenchmarkReach\/persons=10000-/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
large=$(printf '%s\n' "$out" | awk '/^BenchmarkReach\/persons=100000-/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$small" ] || [ -z "$large" ]; then
    echo "check_allocs: could not find BenchmarkReach allocs/op in benchmark output" >&2
    exit 1
fi
if [ "$large" -ne "$small" ]; then
    echo "check_allocs: seeded reach allocates $large allocs/op on 100k persons vs $small on 10k — reach cost grows with the graph" >&2
    exit 1
fi
echo "check_allocs: seeded reach allocates $small allocs/op on 10k and 100k persons"

# Selector-node gate: π evaluates its τ/γ chain as one pass over int32
# position arrays and appends its survivors unhashed, so what it allocates
# is a fixed handful of arrays, not per path, partition or group. Over the
# 11,404 paths of SHORTEST 2 GROUP ACYCLIC on the selectors workload's
# graph the three reference operators allocate 57,889 times; the node
# must stay at most 256 on that input and on ANY SHORTEST WALK's.
out=$(go test -run xxx -bench 'BenchmarkSelectorPipeline' -benchtime 20x -benchmem ./internal/engine 2>&1)
printf '%s\n' "$out"

for case in SHORTEST_2_GROUP_ACYCLIC ANY_SHORTEST_WALK; do
    allocs=$(printf '%s\n' "$out" | awk -v c="BenchmarkSelectorPipeline/$case-" 'index($0, c) == 1 { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
    if [ -z "$allocs" ]; then
        echo "check_allocs: could not find BenchmarkSelectorPipeline/$case allocs/op in benchmark output" >&2
        exit 1
    fi
    if [ "$allocs" -gt 256 ]; then
        echo "check_allocs: the selector node allocates $allocs allocs/op on $case > threshold 256" >&2
        exit 1
    fi
    echo "check_allocs: the selector node allocates $allocs allocs/op on $case (threshold 256)"
done

# Graph-accessor gate: a sealed graph keeps ρ, λ, ν and its keys in
# pointer-free columns, so its hot accessors — key lookup (of a node key,
# of a key no node has and of an edge key), key, property (string and
# int), endpoints and a node's run view — read integers and substrings
# and allocate ZERO times, no tolerance. A breach means an
# accessor started building rows or strings again.
out=$(go test -run xxx -bench 'BenchmarkGraphAccessors' -benchtime 100000x -benchmem ./internal/graph 2>&1)
printf '%s\n' "$out"

for case in NodeIDByKey NodeIDByKeyMiss EdgeIDByKey NodeKey NodeProp/string NodeProp/int Endpoints OutRuns; do
    allocs=$(printf '%s\n' "$out" | awk -v c="BenchmarkGraphAccessors/$case-" 'index($0, c) == 1 { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
    if [ -z "$allocs" ]; then
        echo "check_allocs: could not find BenchmarkGraphAccessors/$case allocs/op in benchmark output" >&2
        exit 1
    fi
    if [ "$allocs" -ne 0 ]; then
        echo "check_allocs: graph accessor $case allocates $allocs allocs/op — sealed-graph reads must be allocation-free" >&2
        exit 1
    fi
    echo "check_allocs: graph accessor $case at zero allocs ($allocs allocs/op)"
done

# Apply gate: a live-store batch costs its own ops, not the delta built
# up before it, because successive epochs share their overlay's tables
# and copy only what a batch writes. BenchmarkApplySteady applies
# live_ingest's stream shape to the 7,000-person graph with the delta held
# near 256 and near 1,900 records; B/op at 1,900 must stay within 1.5x
# B/op at 256 (copying the overlay's maps per batch took 2.6x), and B/op
# at each must stay within 96 KiB: a delta view reads a label's list off
# the base and the tombstones, and a batch that copied each touched
# label's live list took 171 KB and 178 KB. allocs/op at each must stay
# at most 256: a batch records its adjacency changes in one sorted list,
# and recording them in six maps took 294 and 300.
out=$(go test -run xxx -bench 'BenchmarkApplySteady' -benchtime 400x -benchmem ./internal/graph 2>&1)
printf '%s\n' "$out"

small=$(printf '%s\n' "$out" | awk '/^BenchmarkApplySteady\/delta=256-/ { for (i = 1; i < NF; i++) if ($(i+1) == "B/op") print $i }')
large=$(printf '%s\n' "$out" | awk '/^BenchmarkApplySteady\/delta=1900-/ { for (i = 1; i < NF; i++) if ($(i+1) == "B/op") print $i }')
if [ -z "$small" ] || [ -z "$large" ]; then
    echo "check_allocs: could not find BenchmarkApplySteady B/op in benchmark output" >&2
    exit 1
fi
if [ $((large * 2)) -gt $((small * 3)) ]; then
    echo "check_allocs: Apply allocates $large B/op at a 1,900-record delta vs $small at 256 > 1.5x — a batch's cost grows with the delta" >&2
    exit 1
fi
for c in "256 $small" "1,900 $large"; do
    set -- $c
    if [ "$2" -gt 98304 ]; then
        echo "check_allocs: Apply allocates $2 B/op at a $1-record delta > 96 KiB — a batch copies what it does not write" >&2
        exit 1
    fi
done
echo "check_allocs: Apply allocates $small B/op at a 256-record delta and $large at 1,900 (bounds 1.5x and 96 KiB)"

for case in 256 1900; do
    allocs=$(printf '%s\n' "$out" | awk -v c="BenchmarkApplySteady/delta=$case-" 'index($0, c) == 1 { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')
    if [ -z "$allocs" ]; then
        echo "check_allocs: could not find BenchmarkApplySteady/delta=$case allocs/op in benchmark output" >&2
        exit 1
    fi
    if [ "$allocs" -gt 256 ]; then
        echo "check_allocs: Apply allocates $allocs allocs/op at a $case-record delta > threshold 256 — a batch records its changes more than once" >&2
        exit 1
    fi
    echo "check_allocs: Apply allocates $allocs allocs/op at a $case-record delta (threshold 256)"
done
