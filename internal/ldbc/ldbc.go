// Package ldbc provides the graph workloads of the paper: the exact social
// network snippet of Figure 1 (drawn from the LDBC Social Network
// Benchmark) used by every worked example, and a parameterized synthetic
// generator with the same schema (Person/Message nodes; Knows, Likes and
// Has_Creator edges) for benchmarking at larger scales.
package ldbc

import (
	"fmt"
	"math/rand"
	"strconv"

	"pathalgebra/internal/graph"
)

// Label constants of the Figure 1 schema.
const (
	LabelPerson     = "Person"
	LabelMessage    = "Message"
	LabelKnows      = "Knows"
	LabelLikes      = "Likes"
	LabelHasCreator = "Has_creator"
)

// Figure1 builds the property graph of Figure 1 of the paper.
//
// The paper shows the graph only as a picture, but its structure is fully
// determined by the worked examples:
//
//   - The Knows subgraph (inner cycle) is fixed by Table 3's path listing:
//     e1: n1→n2, e2: n2→n3, e3: n3→n2, e4: n2→n4, with the n2⇄n3 cycle.
//   - The outer Likes/Has_creator cycle is fixed by the introduction's
//     path2 = (n1, e8, n6, e11, n3, e7, n7, e10, n4) and by the statement
//     that Likes·Has_creator forms a cycle through n1 and n4, which forces
//     e9: n4→n5 (Likes) and e6: n5→n1 (Has_creator).
//   - n1 is the Person "Moe" and n4 the Person "Apu" (§1); "Lisa" appears
//     as a Person name in §3.1, assigned here to n3.
//
// One edge identifier, e5, is not pinned down by any example; we assign it
// as a Likes edge n2→n6, which cannot affect any of the paper's worked
// results (all of which either start at n1/n4 or concern the Knows
// subgraph only). This reconstruction choice is also recorded in DESIGN.md.
func Figure1() *graph.Graph {
	b := graph.NewBuilder()
	b.AddNode("n1", LabelPerson, graph.Props("name", "Moe"))
	b.AddNode("n2", LabelPerson, graph.Props("name", "Homer"))
	b.AddNode("n3", LabelPerson, graph.Props("name", "Lisa"))
	b.AddNode("n4", LabelPerson, graph.Props("name", "Apu"))
	b.AddNode("n5", LabelMessage, graph.Props("content", "I like donuts"))
	b.AddNode("n6", LabelMessage, graph.Props("content", "Hi there"))
	b.AddNode("n7", LabelMessage, graph.Props("content", "Saxophone!"))

	b.AddEdge("e1", "n1", "n2", LabelKnows, nil)
	b.AddEdge("e2", "n2", "n3", LabelKnows, nil)
	b.AddEdge("e3", "n3", "n2", LabelKnows, nil)
	b.AddEdge("e4", "n2", "n4", LabelKnows, nil)
	b.AddEdge("e5", "n2", "n6", LabelLikes, nil)
	b.AddEdge("e6", "n5", "n1", LabelHasCreator, nil)
	b.AddEdge("e7", "n3", "n7", LabelLikes, nil)
	b.AddEdge("e8", "n1", "n6", LabelLikes, nil)
	b.AddEdge("e9", "n4", "n5", LabelLikes, nil)
	b.AddEdge("e10", "n7", "n4", LabelHasCreator, nil)
	b.AddEdge("e11", "n6", "n3", LabelHasCreator, nil)
	return b.MustBuild()
}

// Config parameterizes the synthetic SNB-like generator.
type Config struct {
	// Persons is the number of Person nodes (≥ 1).
	Persons int
	// Messages is the number of Message nodes.
	Messages int
	// KnowsPerPerson is the average out-degree of Knows edges.
	KnowsPerPerson int
	// LikesPerPerson is the average number of Likes edges per person.
	LikesPerPerson int
	// CycleFraction in [0,1] biases Knows edges toward a ring structure,
	// controlling cycle density: 1 yields a pure person-ring (maximally
	// cyclic recursion), 0 yields uniform random endpoints.
	CycleFraction float64
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultConfig returns a small, moderately cyclic workload.
func DefaultConfig() Config {
	return Config{
		Persons:        100,
		Messages:       200,
		KnowsPerPerson: 3,
		LikesPerPerson: 2,
		CycleFraction:  0.3,
		Seed:           1,
	}
}

var firstNames = []string{
	"Moe", "Homer", "Lisa", "Apu", "Marge", "Bart", "Ned", "Seymour",
	"Edna", "Milhouse", "Ralph", "Nelson", "Barney", "Carl", "Lenny",
}

// Generate builds a synthetic property graph with the Figure 1 schema:
// every Message has exactly one Has_creator edge to a Person (as in LDBC
// SNB), persons Know other persons and Like messages. Generation is
// deterministic for a given Config.
func Generate(cfg Config) (*graph.Graph, error) {
	if cfg.Persons < 1 {
		return nil, fmt.Errorf("ldbc: Config.Persons must be >= 1, got %d", cfg.Persons)
	}
	if cfg.Messages < 0 || cfg.KnowsPerPerson < 0 || cfg.LikesPerPerson < 0 {
		return nil, fmt.Errorf("ldbc: negative counts in config %+v", cfg)
	}
	if cfg.CycleFraction < 0 || cfg.CycleFraction > 1 {
		return nil, fmt.Errorf("ldbc: CycleFraction must be in [0,1], got %g", cfg.CycleFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()

	// Keys and strings are p<n>, m<n>, k<n>, <first name>_<n> and
	// "message <n>", numbered from 1. The Builder copies what it is given,
	// so each is formatted in one buffer and props is one map, rewritten
	// per node.
	var buf []byte
	numbered := func(prefix string, n int) string {
		buf = strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)
		return string(buf)
	}
	props := make(map[string]graph.Value, 2)
	persons := make([]graph.NodeID, cfg.Persons)
	for i := range persons {
		props["name"] = graph.StringValue(numbered(firstNames[i%len(firstNames)]+"_", i+1))
		props["id"] = graph.IntValue(int64(i + 1))
		persons[i] = b.AddNode(numbered("p", i+1), LabelPerson, props)
	}
	clear(props)
	messages := make([]graph.NodeID, cfg.Messages)
	for i := range messages {
		props["content"] = graph.StringValue(numbered("message ", i+1))
		props["id"] = graph.IntValue(int64(i + 1))
		messages[i] = b.AddNode(numbered("m", i+1), LabelMessage, props)
	}

	edgeSeq := 0
	addEdge := func(src, dst graph.NodeID, label string) {
		edgeSeq++
		b.AddEdgeIDs(numbered("k", edgeSeq), src, dst, label, nil)
	}

	// Knows: a ring fraction for guaranteed cycles plus random edges. A
	// pair of node IDs is seen as one uint64.
	pair := func(a, b graph.NodeID) uint64 { return uint64(a)<<32 | uint64(b) }
	totalKnows := cfg.Persons * cfg.KnowsPerPerson
	seen := make(map[uint64]bool, totalKnows)
	addKnows := func(src, dst int) {
		p := pair(persons[src], persons[dst])
		if src == dst || seen[p] {
			return
		}
		seen[p] = true
		addEdge(persons[src], persons[dst], LabelKnows)
	}
	ringEdges := int(float64(totalKnows) * cfg.CycleFraction)
	if cfg.Persons > 1 {
		for i := 0; i < ringEdges; i++ {
			src := i % cfg.Persons
			addKnows(src, (src+1)%cfg.Persons)
		}
		for i := ringEdges; i < totalKnows; i++ {
			addKnows(rng.Intn(cfg.Persons), rng.Intn(cfg.Persons))
		}
	}

	// Has_creator: exactly one creator per message.
	for _, m := range messages {
		addEdge(m, persons[rng.Intn(cfg.Persons)], LabelHasCreator)
	}

	// Likes: persons like random messages.
	if cfg.Messages > 0 {
		total := cfg.Persons * cfg.LikesPerPerson
		likeSeen := make(map[uint64]bool, total)
		for i := 0; i < total; i++ {
			p := persons[rng.Intn(cfg.Persons)]
			m := messages[rng.Intn(cfg.Messages)]
			if likeSeen[pair(p, m)] {
				continue
			}
			likeSeen[pair(p, m)] = true
			addEdge(p, m, LabelLikes)
		}
	}

	return b.Build()
}

// MustGenerate is Generate panicking on error, for benchmarks.
func MustGenerate(cfg Config) *graph.Graph {
	g, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g
}
