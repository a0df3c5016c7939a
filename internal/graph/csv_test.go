package graph

import (
	"bytes"
	"strings"
	"testing"
)

const nodesCSV = `key,label,name,age:int,score:float,active:bool
n1,Person,Moe,40,1.5,true
n2,Person,Apu,,,
n3,Message,,,,
`

const edgesCSV = `key,src,dst,label,since:int
e1,n1,n2,Knows,2010
e2,n1,n3,Likes,
`

func TestReadCSV(t *testing.T) {
	g, err := ReadCSV(strings.NewReader(nodesCSV), strings.NewReader(edgesCSV))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("shape = %d/%d, want 3/2", g.NumNodes(), g.NumEdges())
	}
	n1, _ := g.NodeByKey("n1")
	if got := g.NodeProp(n1.ID, "name"); got.Str() != "Moe" {
		t.Errorf("name = %v", got)
	}
	if got := g.NodeProp(n1.ID, "age"); got.Int() != 40 {
		t.Errorf("age = %v", got)
	}
	if got := g.NodeProp(n1.ID, "score"); got.Float() != 1.5 {
		t.Errorf("score = %v", got)
	}
	if got := g.NodeProp(n1.ID, "active"); !got.Bool() {
		t.Errorf("active = %v", got)
	}
	// Empty cells leave properties unset.
	n2, _ := g.NodeByKey("n2")
	if got := g.NodeProp(n2.ID, "age"); !got.IsNull() {
		t.Errorf("empty age cell = %v, want null", got)
	}
	e1, _ := g.EdgeByKey("e1")
	if got := g.EdgeProp(e1.ID, "since"); got.Int() != 2010 {
		t.Errorf("since = %v", got)
	}
	src, dst := g.Endpoints(e1.ID)
	if g.Node(src).Key != "n1" || g.Node(dst).Key != "n2" {
		t.Error("edge endpoints wrong")
	}
}

func TestReadCSVErrors(t *testing.T) {
	okNodes := "key,label\na,L\nb,L\n"
	okEdges := "key,src,dst,label\ne,a,b,X\n"
	cases := []struct {
		name         string
		nodes, edges string
		mention      string
	}{
		{"bad node header", "id,label\na,L\n", okEdges, `want "key"`},
		{"bad edge header", okNodes, "key,from,to,label\ne,a,b,X\n", `want "src"`},
		{"empty prop name", "key,label,:int\na,L,1\n", okEdges, "empty property column"},
		{"bad int", "key,label,age:int\na,L,forty\n", okEdges, "column \"age\""},
		{"bad float", "key,label,s:float\na,L,x\n", okEdges, "column \"s\""},
		{"bad bool", "key,label,b:bool\na,L,x\n", okEdges, "column \"b\""},
		{"unknown endpoint", okNodes, "key,src,dst,label\ne,a,zzz,X\n", "unknown target"},
		{"short record", "key,label,p\na,L\n", okEdges, "wrong number of fields"},
		{"empty node file", "", okEdges, "header"},
		{"NaN float", "key,label,s:float\na,L,NaN\n", okEdges, `line 2: column "s": NaN is not a finite number`},
		{"infinite float", "key,label,s:float\na,L,-Inf\n", okEdges, `column "s": -Inf is not a finite number`},
		{"invalid UTF-8 node key", "key,label\na\xff,L\n", okEdges, "node CSV line 2, column 1: invalid UTF-8"},
		{"invalid UTF-8 string value", "key,label,name\na,L,\xfe\n", okEdges, "node CSV line 2, column 5: invalid UTF-8"},
		{"invalid UTF-8 property name", "key,label,n\xff\na,L,x\n", okEdges, "node CSV line 1, column 11: invalid UTF-8"},
		{"invalid UTF-8 edge label", okNodes, "key,src,dst,label\ne,a,b,X\xff\n", "edge CSV line 2, column 7: invalid UTF-8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.nodes), strings.NewReader(tc.edges))
			if err == nil {
				t.Fatal("ReadCSV succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Errorf("error %q does not mention %q", err, tc.mention)
			}
		})
	}
}

// TestReadCSVUnknownSuffix pins the documented behavior for ":suffix"
// header annotations that are not type names: the whole column name,
// colon included, becomes a string property. Previously such headers
// either errored or risked silently dropping the column.
func TestReadCSVUnknownSuffix(t *testing.T) {
	nodes := "key,label,created:stamp,note:\na,L,2020-01-01,hello\n"
	edges := "key,src,dst,label\n"
	g, err := ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	n, _ := g.NodeByKey("a")
	if got := g.NodeProp(n.ID, "created:stamp"); got.Str() != "2020-01-01" {
		t.Errorf(`prop "created:stamp" = %v, want string "2020-01-01"`, got)
	}
	if got := g.NodeProp(n.ID, "note:"); got.Str() != "hello" {
		t.Errorf(`prop "note:" = %v, want string "hello"`, got)
	}
	// The truncated names must not exist: the suffix was not consumed.
	if got := g.NodeProp(n.ID, "created"); !got.IsNull() {
		t.Errorf(`prop "created" = %v, want null`, got)
	}
	if got := g.NodeProp(n.ID, "note"); !got.IsNull() {
		t.Errorf(`prop "note" = %v, want null`, got)
	}
}

func TestReadCSVExplicitStringSuffix(t *testing.T) {
	nodes := "key,label,name:string\na,L,x\n"
	edges := "key,src,dst,label\n"
	g, err := ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := g.NodeByKey("a")
	if got := g.NodeProp(n.ID, "name"); got.Str() != "x" {
		t.Errorf("name = %v", got)
	}
}

// FuzzReadCSV: ReadCSV never panics, and every graph it accepts
// exports: WriteJSON succeeds and ReadJSON of its output has the same
// adjacency and the same properties. The seeds include a NaN cell and
// invalid UTF-8 keys and labels, which WriteJSON cannot write back.
func FuzzReadCSV(f *testing.F) {
	f.Add(nodesCSV, edgesCSV)
	f.Add("key,label,score:float\na,L,NaN\n", "key,src,dst,label\n")
	f.Add("key,label\na\xff,L\na\xfe,L\n", "key,src,dst,label\n")
	f.Add("key,label\na,L\nb,L\n", "key,src,dst,label,w:int\ne,a,b,X\xff,1\n")
	f.Fuzz(func(t *testing.T, nodes, edges string) {
		g, err := ReadCSV(strings.NewReader(nodes), strings.NewReader(edges))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted graph: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("ReadJSON of WriteJSON's output: %v", err)
		}
		if got, want := renderAdjacency(back), renderAdjacency(g); got != want {
			t.Fatalf("adjacency changed through JSON:\n got %s\nwant %s", got, want)
		}
		for _, n := range g.Nodes() {
			m, _ := back.NodeByKey(n.Key)
			if !sameProps(n.Props, m.Props) {
				t.Fatalf("node %q props %v read back as %v", n.Key, n.Props, m.Props)
			}
		}
		for _, e := range g.Edges() {
			d, _ := back.EdgeByKey(e.Key)
			if !sameProps(e.Props, d.Props) {
				t.Fatalf("edge %q props %v read back as %v", e.Key, e.Props, d.Props)
			}
		}
	})
}

func sameProps(a, b map[string]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
