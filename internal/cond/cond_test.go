package cond

import (
	"strings"
	"testing"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
)

func fixture(t *testing.T) (*graph.Graph, path.Path) {
	t.Helper()
	g := ldbc.Figure1()
	// (n1:Moe) -e1:Knows-> (n2:Homer) -e4:Knows-> (n4:Apu)
	return g, path.MustFromKeys(g, "n1", "e1", "n2", "e4", "n4")
}

func TestSimpleConditions(t *testing.T) {
	g, p := fixture(t)
	tests := []struct {
		name string
		c    Cond
		want bool
	}{
		{"label(edge(1))=Knows", Label(EdgeAt(1), "Knows"), true},
		{"label(edge(2))=Knows", Label(EdgeAt(2), "Knows"), true},
		{"label(edge(1))=Likes", Label(EdgeAt(1), "Likes"), false},
		{"label(edge(3)) out of range", Label(EdgeAt(3), "Knows"), false},
		{"label(first)=Person", Label(First(), "Person"), true},
		{"label(last)=Person", Label(Last(), "Person"), true},
		{"label(last)=Message", Label(Last(), "Message"), false},
		{"label(node(2))=Person", Label(NodeAt(2), "Person"), true},
		{"label(node(9)) out of range", Label(NodeAt(9), "Person"), false},
		{"first.name=Moe", Prop(First(), "name", graph.StringValue("Moe")), true},
		{"first.name=Apu", Prop(First(), "name", graph.StringValue("Apu")), false},
		{"last.name=Apu", Prop(Last(), "name", graph.StringValue("Apu")), true},
		{"node(2).name=Homer", Prop(NodeAt(2), "name", graph.StringValue("Homer")), true},
		{"missing prop", Prop(First(), "ghost", graph.StringValue("x")), false},
		{"len()=2", Len(2), true},
		{"len()=3", Len(3), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.c.Eval(g, p); got != tc.want {
				t.Errorf("Eval(%s) = %v, want %v", tc.c, got, tc.want)
			}
		})
	}
}

func TestInequalityOps(t *testing.T) {
	g, p := fixture(t)
	tests := []struct {
		c    Cond
		want bool
	}{
		{LenCmp{Op: NE, K: 3}, true},
		{LenCmp{Op: NE, K: 2}, false},
		{LenCmp{Op: LT, K: 3}, true},
		{LenCmp{Op: LE, K: 2}, true},
		{LenCmp{Op: GT, K: 1}, true},
		{LenCmp{Op: GE, K: 3}, false},
		{PropCmp{Target: First(), Prop: "name", Op: NE, Value: graph.StringValue("Apu")}, true},
		{PropCmp{Target: First(), Prop: "name", Op: LT, Value: graph.StringValue("Zzz")}, true},
		{LabelCmp{Target: First(), Op: NE, Value: "Message"}, true},
		// NE against a missing property is false (null satisfies nothing).
		{PropCmp{Target: First(), Prop: "ghost", Op: NE, Value: graph.StringValue("x")}, false},
		// NE across incomparable present values is true.
		{PropCmp{Target: First(), Prop: "name", Op: NE, Value: graph.IntValue(5)}, true},
		{PropCmp{Target: First(), Prop: "name", Op: LT, Value: graph.IntValue(5)}, false},
	}
	for _, tc := range tests {
		if got := tc.c.Eval(g, p); got != tc.want {
			t.Errorf("Eval(%s) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestComplexConditions(t *testing.T) {
	g, p := fixture(t)
	moe := Prop(First(), "name", graph.StringValue("Moe"))
	apu := Prop(Last(), "name", graph.StringValue("Apu"))
	lisa := Prop(First(), "name", graph.StringValue("Lisa"))
	if !(And{L: moe, R: apu}).Eval(g, p) {
		t.Error("Moe AND Apu should hold")
	}
	if (And{L: moe, R: lisa}).Eval(g, p) {
		t.Error("Moe AND Lisa should fail")
	}
	if !(Or{L: lisa, R: apu}).Eval(g, p) {
		t.Error("Lisa OR Apu should hold")
	}
	if (Or{L: lisa, R: Not{C: moe}}).Eval(g, p) {
		t.Error("Lisa OR NOT Moe should fail")
	}
	if !(Not{C: lisa}).Eval(g, p) {
		t.Error("NOT Lisa should hold")
	}
	if !(True{}).Eval(g, p) {
		t.Error("True should hold")
	}
}

func TestConj(t *testing.T) {
	g, p := fixture(t)
	if _, ok := Conj().(True); !ok {
		t.Error("Conj() should be True")
	}
	moe := Prop(First(), "name", graph.StringValue("Moe"))
	if got := Conj(moe); got.String() != moe.String() {
		t.Error("Conj(c) should be c")
	}
	c := Conj(moe, Label(EdgeAt(1), "Knows"), Len(2))
	if !c.Eval(g, p) {
		t.Errorf("Conj of satisfied conditions failed: %s", c)
	}
}

func TestUnlabelledObjects(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("a", "", nil)
	b.AddNode("b", "", nil)
	b.AddEdge("e", "a", "b", "", nil)
	g := b.MustBuild()
	p := path.MustFromKeys(g, "a", "e", "b")
	// λ is partial: unlabelled objects satisfy no label condition, even NE.
	if Label(First(), "X").Eval(g, p) {
		t.Error("unlabelled node must not equal any label")
	}
	if (LabelCmp{Target: EdgeAt(1), Op: NE, Value: "X"}).Eval(g, p) {
		t.Error("unlabelled edge must not satisfy label != X")
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		c    Cond
		want string
	}{
		{Label(EdgeAt(1), "Knows"), `label(edge(1)) = "Knows"`},
		{Prop(First(), "name", graph.StringValue("Moe")), `first.name = "Moe"`},
		{Prop(Last(), "age", graph.IntValue(3)), `last.age = 3`},
		{Len(2), "len() = 2"},
		{LenCmp{Op: GE, K: 1}, "len() >= 1"},
		{And{L: Len(1), R: Len(2)}, "(len() = 1 AND len() = 2)"},
		{Or{L: Len(1), R: Len(2)}, "(len() = 1 OR len() = 2)"},
		{Not{C: Len(1)}, "NOT (len() = 1)"},
		{True{}, "true"},
		{Label(NodeAt(3), "P"), `label(node(3)) = "P"`},
	}
	for _, tc := range tests {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
	for op, want := range map[Op]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != want {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), want)
		}
	}
}

func TestMaxPosition(t *testing.T) {
	tests := []struct {
		c         Cond
		maxNode   int
		maxEdge   int
		lastOrLen bool
	}{
		{Label(First(), "P"), 1, 0, false},
		{Label(Last(), "P"), 0, 0, true},
		{Label(NodeAt(3), "P"), 3, 0, false},
		{Label(EdgeAt(2), "K"), 0, 2, false},
		{Len(4), 0, 0, true},
		{And{L: Label(NodeAt(2), "P"), R: Label(EdgeAt(5), "K")}, 2, 5, false},
		{Or{L: Label(First(), "P"), R: Len(1)}, 1, 0, true},
		{Not{C: Label(EdgeAt(1), "K")}, 0, 1, false},
		{True{}, 0, 0, true},
	}
	for _, tc := range tests {
		n, e, u := MaxPosition(tc.c)
		if n != tc.maxNode || e != tc.maxEdge || u != tc.lastOrLen {
			t.Errorf("MaxPosition(%s) = (%d,%d,%v), want (%d,%d,%v)",
				tc.c, n, e, u, tc.maxNode, tc.maxEdge, tc.lastOrLen)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		`label(edge(1)) = "Knows"`,
		`first.name = "Moe" AND last.name = "Apu"`,
		`len() <= 3 OR NOT (last.age > 30)`,
		`label(first) != "Message"`,
		`node(2).score >= 4.5`,
		`first.active = true AND first.retired = false`,
		`(len() = 1 OR len() = 2) AND label(edge(1)) = "Likes"`,
		`edge(1).since < 2020`,
	}
	for _, in := range inputs {
		c, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		// Re-parsing the canonical rendering must agree.
		c2, err := Parse(c.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", c.String(), err)
			continue
		}
		if c.String() != c2.String() {
			t.Errorf("round trip changed %q -> %q", c.String(), c2.String())
		}
	}
}

func TestParseEvaluates(t *testing.T) {
	g, p := fixture(t)
	tests := []struct {
		in   string
		want bool
	}{
		{`first.name = "Moe" AND last.name = "Apu"`, true},
		{`first.name = "Moe" AND last.name = "Moe"`, false},
		{`label(edge(1)) = "Knows" OR label(edge(1)) = "Likes"`, true},
		{`NOT (len() = 5)`, true},
		{`len() >= 2 AND len() <= 2`, true},
		{`node(2).name = "Homer"`, true},
		{`LABEL(FIRST) = "Person"`, true}, // keywords are case-insensitive
	}
	for _, tc := range tests {
		c, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := c.Eval(g, p); got != tc.want {
			t.Errorf("Eval(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in      string
		mention string
	}{
		{"", "expected condition"},
		{"len() =", "integer"},
		{"len() = x", "integer"},
		{"label(first) = 5", "string literal"},
		{"bogus(1) = 3", "unknown target"},
		{"first.name ~ 3", "unexpected character"},
		{"len() = 1 extra", "unexpected"},
		{"(len() = 1", "expected ')'"},
		{"node(0).p = 1", "1-based"},
		{"first.name = \"unterminated", "unterminated"},
		{"NOT", "expected condition"},
		{"len ( = 2", "expected"},
		{"first.name = moe", "expected literal"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.in, err, tc.mention)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("???")
}

// TestParsePrefixAndLiteral pins the offsets a host grammar resumes at:
// the first token after a condition, and the byte after a literal.
func TestParsePrefixAndLiteral(t *testing.T) {
	src := `first.a = -.5 AND len() < 3  GROUP BY TARGET`
	c, end, err := ParsePrefix(src)
	if err != nil {
		t.Fatalf("ParsePrefix: %v", err)
	}
	if want := strings.Index(src, "GROUP"); end != want {
		t.Errorf("ParsePrefix end = %d, want %d", end, want)
	}
	if want := `(first.a = -0.5 AND len() < 3)`; c.String() != want {
		t.Errorf("ParsePrefix = %s, want %s", c, want)
	}
	for _, tc := range []struct {
		src  string
		want graph.Value
		end  int
	}{
		{`-.5})`, graph.FloatValue(-0.5), 3},
		{` "a}" , b: 1`, graph.StringValue("a}"), 5},
		{`TRUE}`, graph.BoolValue(true), 4},
		{`42`, graph.IntValue(42), 2},
	} {
		v, end, err := ParseLiteral(tc.src)
		if err != nil || v != tc.want || end != tc.end {
			t.Errorf("ParseLiteral(%q) = %v, %d, %v; want %v, %d", tc.src, v, end, err, tc.want, tc.end)
		}
	}
	for _, src := range []string{`}`, ``, `name`, `(1)`} {
		if _, _, err := ParseLiteral(src); err == nil || !strings.Contains(err.Error(), "literal") {
			t.Errorf("ParseLiteral(%q) error = %v, want one mentioning literal", src, err)
		}
	}
}
