package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestReadBatchNDJSON: the wire format round-trips into ops, blank lines
// are skipped, and malformed lines fail with their line number.
func TestReadBatchNDJSON(t *testing.T) {
	in := `{"op":"add_node","key":"d","label":"Person","props":{"name":{"kind":"string","str":"D"}}}

{"op":"add_edge","key":"cd","src":"c","dst":"d","label":"Knows"}
{"op":"del_edge","key":"ab"}
{"op":"del_node","key":"b"}
`
	b, err := ReadBatchNDJSON(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadBatchNDJSON: %v", err)
	}
	if len(b.Ops) != 4 {
		t.Fatalf("len(Ops) = %d, want 4", len(b.Ops))
	}
	if b.Ops[0].Kind != OpAddNode || b.Ops[0].Key != "d" || b.Ops[0].Label != "Person" {
		t.Fatalf("op 0 = %+v", b.Ops[0])
	}
	if v, ok := b.Ops[0].Props["name"]; !ok || v.Str() != "D" {
		t.Fatalf("op 0 props = %+v", b.Ops[0].Props)
	}
	if b.Ops[1].Kind != OpAddEdge || b.Ops[1].Src != "c" || b.Ops[1].Dst != "d" {
		t.Fatalf("op 1 = %+v", b.Ops[1])
	}
	if b.Ops[2].Kind != OpDelEdge || b.Ops[3].Kind != OpDelNode {
		t.Fatalf("ops 2/3 = %+v / %+v", b.Ops[2], b.Ops[3])
	}
}

// TestReadBatchNDJSONErrors asserts parse-error messages by substring:
// wire-format errors carry positions ("line 2") and op names but no
// typed sentinels — nothing programmatic branches on them, unlike the
// store's validation errors (see TestBatchApplySentinels).
func TestReadBatchNDJSONErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"bad json", `{"op":`, "line 1"},
		{"unknown field", `{"op":"add_node","key":"x","labell":"P"}`, "line 1"},
		{"unknown op", `{"op":"upsert","key":"x"}`, "unknown op"},
		{"missing key", `{"op":"add_node","label":"P"}`, "missing key"},
		{"edge missing endpoints", `{"op":"add_edge","key":"e","label":"L"}`, "missing src or dst"},
		{"second line", "{\"op\":\"del_node\",\"key\":\"a\"}\n{bad}", "line 2"},
		{"two objects", "\n" + `{"op":"add_node","key":"a"} {"op":"add_node","key":"b"}`, "line 2: data after the op object"},
		{"trailing garbage", `{"op":"add_node","key":"c"} garbage`, "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBatchNDJSON(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// TestReadBatchCSV: the fixed-header CSV form parses, and structural
// errors carry line numbers.
func TestReadBatchCSV(t *testing.T) {
	in := `op,key,src,dst,label
add_node,d,,,Person
add_edge,cd,c,d,Knows
del_edge,ab,,,
`
	b, err := ReadBatchCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadBatchCSV: %v", err)
	}
	if len(b.Ops) != 3 {
		t.Fatalf("len(Ops) = %d, want 3", len(b.Ops))
	}
	if b.Ops[0].Kind != OpAddNode || b.Ops[0].Label != "Person" {
		t.Fatalf("op 0 = %+v", b.Ops[0])
	}
	if b.Ops[1].Kind != OpAddEdge || b.Ops[1].Src != "c" || b.Ops[1].Dst != "d" {
		t.Fatalf("op 1 = %+v", b.Ops[1])
	}

	if _, err := ReadBatchCSV(strings.NewReader("op,key\nx,y\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := ReadBatchCSV(strings.NewReader("op,key,src,dst,label\nupsert,x,,,\n")); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown op err = %v", err)
	}
	if _, err := ReadBatchCSV(strings.NewReader("op,key,src,dst,label\nadd_node,d,,,P\nadd_node,\xfe,,,P\n")); err == nil || !strings.Contains(err.Error(), "line 3, column 10: invalid UTF-8") {
		t.Fatalf("invalid UTF-8 key err = %v", err)
	}
}

// TestBatchRoundTripThroughStore: a parsed NDJSON batch applies cleanly.
func TestBatchRoundTripThroughStore(t *testing.T) {
	in := `{"op":"add_node","key":"d","label":"Person"}
{"op":"add_edge","key":"cd","src":"c","dst":"d","label":"Knows"}
`
	b, err := ReadBatchNDJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	if _, err := s.Apply(b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if s.Graph().LiveNodes() != 4 || s.Graph().LiveEdges() != 4 {
		t.Fatalf("live = %d/%d", s.Graph().LiveNodes(), s.Graph().LiveEdges())
	}
}

// TestBatchApplySentinels: store validation failures surface through
// batch application as errors.Is-able sentinels — the contract the
// /ingest endpoint's 422 mapping relies on.
func TestBatchApplySentinels(t *testing.T) {
	cases := []struct {
		name, in string
		want     error
	}{
		{"duplicate key", `{"op":"add_node","key":"a","label":"P"}`, ErrDuplicateKey},
		{"unknown endpoint", `{"op":"add_edge","key":"e9","src":"a","dst":"nope","label":"L"}`, ErrUnknownNode},
		{"unknown delete", `{"op":"del_node","key":"nope"}`, ErrUnknownKey},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := ReadBatchNDJSON(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
			defer s.Close()
			_, err = s.Apply(b)
			if !errors.Is(err, tc.want) {
				t.Errorf("Apply error %q is not %q", err, tc.want)
			}
		})
	}
}

// FuzzReadBatchNDJSON: the NDJSON batch reader never panics, and a batch
// it accepts survives the WAL encoding and applies all or nothing.
func FuzzReadBatchNDJSON(f *testing.F) {
	for _, seed := range []string{
		`{"op":"add_node","key":"d","label":"Person","props":{"name":{"kind":"string","str":"D"},"age":{"kind":"int","int":7}}}
{"op":"add_edge","key":"cd","src":"c","dst":"d","label":"Knows"}
{"op":"del_edge","key":"ab"}
{"op":"del_node","key":"b"}`,
		`{"op":"add_node","key":"x","props":{"f":{"kind":"float","float":-0.5},"b":{"kind":"bool","bool":true},"z":{"kind":"null"}}}`,
		`{"op":"add_edge","key":"e","src":"a","dst":"nope","label":"New"}`,
		`{"op":"add_node","key":"a"}`,
		`{"op":"del_node","key":"a"}` + "\n\n" + `{"op":"add_node","key":"a","label":"ÿ"}`,
		`{"op":"move","key":"a"}`,
		`{"op":"add_node"`,
		"",
		`{"op":"add_node","key":"a"} {"op":"add_node","key":"b"}`,
		`{"op":"add_node","key":"c"} garbage`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBatchNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkReencodes(t, b)
		checkAllOrNothing(t, b)
	})
}

// FuzzReadBatchCSV: the CSV batch reader never panics, and a batch it
// accepts survives the WAL encoding and applies all or nothing.
func FuzzReadBatchCSV(f *testing.F) {
	for _, seed := range []string{
		"op,key,src,dst,label\nadd_node,d,,,Person\nadd_edge,cd,c,d,Knows\ndel_edge,ab,,,\ndel_node,b,,,\n",
		"op,key,src,dst,label\nadd_edge,e,a,nope,New\n",
		"op,key,src,dst,label\nadd_node,a,,,\n",
		"op,key,src,dst,label\n\"add_node\",\"q\"\"x\",,,\"L,1\"\n",
		"op,key,src,dst,label\nadd_node,\xff,,,\n",
		"op,key\nadd_node,a\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBatchCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkReencodes(t, b)
		checkAllOrNothing(t, b)
	})
}
