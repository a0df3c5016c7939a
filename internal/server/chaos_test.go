package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pathalgebra/internal/fault"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// The chaos differential harness: seeded-fault trials over a mixed
// ingest/query/stats workload. The contract it enforces, per response:
//
//   - an ingest either applies fully (200, epoch bumped) or fails with a
//     typed error kind and applies nothing;
//   - a query either returns results byte-identical to a fault-free
//     oracle that received exactly the acknowledged ingests, or fails
//     with a typed error kind (a page may be cut mid-write only when the
//     write fault is what cut it);
//   - after every trial nothing leaks: no goroutines and no cursor-table
//     entries — and the durable directory reopens to exactly the
//     acknowledged state.

// chaosQueries is the fixed query pool; every entry must evaluate
// deterministically (the repo-wide invariant) so oracle comparison is
// byte-level.
var chaosQueries = []string{
	`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`,
	`MATCH ACYCLIC p = (?x)-[(:Knows|:Likes)+]->(?y)`,
	`MATCH SHORTEST p = (?x)-[:Knows+]->(?y)`,
}

// chaosStep is one recorded workload step and its faulted-run outcome.
type chaosStep struct {
	kind  string // "ingest" | "query" | "stats"
	query int    // index into chaosQueries
	batch string // NDJSON body for ingest steps

	acked    bool     // ingest: 200
	paths    []string // query: raw path lines, in order
	complete bool     // query: every page ended in a trailer
	errKind  string   // typed error kind when a step failed
}

// chaosWorkload generates the deterministic step list for one trial.
func chaosWorkload(rng *rand.Rand, steps int) []*chaosStep {
	out := make([]*chaosStep, steps)
	for i := range out {
		switch r := rng.Float64(); {
		case r < 0.4:
			// Batches chain onto earlier chaos nodes: if the batch that
			// added chaos-nK was rejected, a later edge to it is a typed
			// validation error — part of the surface under test.
			ref := rng.Intn(i + 1)
			out[i] = &chaosStep{kind: "ingest", batch: fmt.Sprintf(
				`{"op":"add_node","key":"chaos-n%d","label":"Person"}
{"op":"add_edge","key":"chaos-e%d","src":"chaos-n%d","dst":"chaos-n%d","label":"Knows"}
`, i, i, ref, i)}
			if ref == i { // first node has nothing to chain to; self-edges are valid
				out[i].batch = fmt.Sprintf(`{"op":"add_node","key":"chaos-n%d","label":"Person"}`+"\n", i)
			}
		case r < 0.9:
			out[i] = &chaosStep{kind: "query", query: rng.Intn(len(chaosQueries))}
		default:
			out[i] = &chaosStep{kind: "stats"}
		}
	}
	return out
}

// chaosKinds are the error kinds a faulted run may surface. Anything
// else (or a non-JSON error body) fails the trial.
var chaosKinds = map[string]bool{"internal": true, "validation": true}

// runChaosStep executes one step against base, recording the outcome.
func runChaosStep(t *testing.T, base string, st *chaosStep, faulted bool) {
	t.Helper()
	switch st.kind {
	case "ingest":
		resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(st.batch))
		if err != nil {
			t.Fatalf("ingest transport error: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			st.acked = true
			resp.Body.Close()
			return
		}
		st.errKind = decodeErrKind(t, resp)
	case "query":
		body := fmt.Sprintf(`{"query": %q, "max_len": 3}`, chaosQueries[st.query])
		resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("query transport error: %v", err)
		}
		if resp.StatusCode != http.StatusCreated {
			st.errKind = decodeErrKind(t, resp)
			return
		}
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("query response: %v", err)
		}
		resp.Body.Close()
		st.paths, st.complete, st.errKind = drainChaosCursor(t, base, qr.ID)
	case "stats":
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatalf("stats transport error: %v", err)
		}
		var sr statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("stats body: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
	}
}

// drainChaosCursor pages a cursor to exhaustion. It returns the raw path
// lines, whether every page ended in a trailer (a cut page means the
// injected write fault severed it), and the typed kind if evaluation
// failed. A cut or failed cursor is DELETEd so it cannot leak.
func drainChaosCursor(t *testing.T, base, id string) (paths []string, complete bool, errKind string) {
	t.Helper()
	for page := 0; ; page++ {
		if page > 200 {
			t.Fatal("cursor never finished")
		}
		resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", base, id))
		if err != nil {
			t.Fatalf("next transport error: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			return paths, false, decodeErrKind(t, resp)
		}
		sawTrailer, done := false, false
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			var probe map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &probe); err != nil {
				t.Fatalf("malformed NDJSON line %q", line)
			}
			if _, isPath := probe["nodes"]; isPath {
				paths = append(paths, line)
			} else {
				var tr pageTrailer
				if err := json.Unmarshal([]byte(line), &tr); err != nil {
					t.Fatal(err)
				}
				sawTrailer, done = true, tr.Done
			}
		}
		resp.Body.Close()
		if !sawTrailer {
			// Page severed mid-write; drop the cursor and report the cut.
			req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/query/%s", base, id), nil)
			if dr, err := http.DefaultClient.Do(req); err == nil {
				dr.Body.Close()
			}
			return paths, false, ""
		}
		if done {
			return paths, true, ""
		}
	}
}

func decodeErrKind(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("status %d with undecodable error body: %v", resp.StatusCode, err)
	}
	if !chaosKinds[er.Kind] {
		t.Fatalf("status %d with unexpected error kind %q (%s)", resp.StatusCode, er.Kind, er.Error)
	}
	return er.Kind
}

// chaosSchedule is the per-trial fault mix: WAL failures dominate, plus
// occasional severed response writes, search panics, and compaction
// failures (absorbed by the compactor's retry, never client-visible).
func chaosSchedule(seed int64) fault.Schedule {
	return fault.Schedule{Seed: seed, Rules: []fault.Rule{
		{Site: "wal.fsync", Prob: 0.12},
		{Site: "wal.append", Prob: 0.08},
		{Site: "wal.torn", Prob: 0.05},
		{Site: "server.write", Prob: 0.03},
		{Site: "automaton.source", Mode: fault.ModePanic, Prob: 0.01},
		{Site: "compact.swap", Prob: 0.3},
	}}
}

func TestChaosDifferential(t *testing.T) {
	seed := ldbc.Figure1()
	baselineGoroutines := runtime.NumGoroutine()

	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			steps := chaosWorkload(rng, 40)

			// Faulted pass, over a WAL-durable store with an aggressive
			// compaction threshold so checkpoints happen mid-workload.
			dir := filepath.Join(t.TempDir(), "data")
			store, err := graph.OpenDurable(dir, seed, graph.StoreOptions{CompactThreshold: 6})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Store: store, ChunkSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			restore := fault.Arm(chaosSchedule(int64(trial)))
			for _, st := range steps {
				runChaosStep(t, ts.URL, st, true)
			}
			restore()

			// Leak check while the faulted server is still up: every
			// cursor was drained or deleted.
			if n := s.cursors.len(); n != 0 {
				t.Errorf("cursor table holds %d entries after workload", n)
			}
			ackedEpoch := store.Epoch()
			finalNodes, finalEdges := store.Graph().LiveNodes(), store.Graph().LiveEdges()
			ts.Close()
			s.Close()
			store.Close()

			// Crash-recovery: the durable dir reopens to exactly the
			// acknowledged state (epoch and live object counts).
			r, err := graph.OpenDurable(dir, seed, graph.StoreOptions{CompactThreshold: -1})
			if err != nil {
				t.Fatalf("reopen after faulted run: %v", err)
			}
			if r.Epoch() != ackedEpoch {
				t.Errorf("recovered epoch %d, acknowledged %d", r.Epoch(), ackedEpoch)
			}
			if n, e := r.Graph().LiveNodes(), r.Graph().LiveEdges(); n != finalNodes || e != finalEdges {
				t.Errorf("recovered %d nodes/%d edges, acknowledged %d/%d", n, e, finalNodes, finalEdges)
			}
			r.Close()

			// Oracle pass: a fault-free in-memory server receives exactly
			// the acknowledged ingests; every completed query must match
			// byte for byte, and every acked ingest must replay cleanly.
			oracle, err := New(Config{Graph: seed, ChunkSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			ots := httptest.NewServer(oracle)
			for i, st := range steps {
				switch st.kind {
				case "ingest":
					if !st.acked {
						continue
					}
					resp, err := http.Post(ots.URL+"/ingest", "application/x-ndjson", strings.NewReader(st.batch))
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("step %d: acked ingest fails on the oracle (%d) — faulted run acked an invalid batch", i, resp.StatusCode)
					}
				case "query":
					if st.errKind != "" {
						continue // typed failure; nothing to compare
					}
					oracleStep := &chaosStep{kind: "query", query: st.query}
					runChaosStep(t, ots.URL, oracleStep, false)
					if !oracleStep.complete || oracleStep.errKind != "" {
						t.Fatalf("step %d: oracle query failed (%q)", i, oracleStep.errKind)
					}
					if st.complete {
						if len(st.paths) != len(oracleStep.paths) {
							t.Fatalf("step %d: %d paths, oracle %d", i, len(st.paths), len(oracleStep.paths))
						}
						for j := range st.paths {
							if st.paths[j] != oracleStep.paths[j] {
								t.Fatalf("step %d path %d diverges:\n got  %s\n want %s", i, j, st.paths[j], oracleStep.paths[j])
							}
						}
					} else if len(st.paths) > len(oracleStep.paths) {
						// A severed cursor delivered a prefix; it must still
						// be a prefix of the oracle's result.
						t.Fatalf("step %d: severed cursor delivered %d paths, oracle total %d", i, len(st.paths), len(oracleStep.paths))
					}
				}
			}
			if oracle.store.Epoch() != ackedEpoch {
				t.Errorf("oracle epoch %d, faulted run acknowledged %d", oracle.store.Epoch(), ackedEpoch)
			}
			ots.Close()
			oracle.Close()
		})
	}

	waitGoroutineBaseline(t, baselineGoroutines)
}

func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// http idle connections and test plumbing make an exact match racy;
	// a small slack still catches per-trial leaks (4 trials × N steps).
	if n := runtime.NumGoroutine(); n > baseline+3 {
		t.Errorf("goroutines leaked across trials: %d live, baseline %d", n, baseline)
	}
}
