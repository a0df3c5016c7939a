package ldbc

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGenerateGolden pins the graphs the benchmark's workloads generate:
// the sha256 of WriteJSON's output for each workload's configuration, so
// a change to the generator or to the Builder that moves any node, edge,
// key or property fails here instead of silently moving every workload.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		persons int
		digest  string
	}{
		{50, "819d2b0b61e3ad4a8384016b6fffaf9fc767d638b02511a3908fdafd8e67efce"},
		{500, "e7df85fd5529ffe11ec9e6a5c22ec62936a3a0d394f8b02574871beae0f409fb"},
		{7_000, "d397b2f0afe37ee87f8132ead388539421cbda8f76bc005f358694c3abcd9aeb"},
		{150_000, "a71755c6aabc0f97db37d689f82bb4a2e21b1a5b8c8992279f5681d6c121e8d6"},
	} {
		if tc.persons > 10_000 && testing.Short() {
			continue
		}
		g := MustGenerate(Config{
			Persons: tc.persons, Messages: 2 * tc.persons,
			KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1,
		})
		h := sha256.New()
		if err := g.WriteJSON(h); err != nil {
			t.Fatalf("persons=%d: WriteJSON: %v", tc.persons, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("persons=%d: WriteJSON digest %s, want %s", tc.persons, got, tc.digest)
		}
	}
}
