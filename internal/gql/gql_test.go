package gql

import (
	"strings"
	"testing"

	"pathalgebra/internal/core"
)

func TestParseClassicSelectors(t *testing.T) {
	tests := []struct {
		in   string
		kind SelectorKind
		k    int
		sem  core.Semantics
	}{
		{`MATCH ALL WALK p = (?x)-[:Knows+]->(?y)`, SelAll, 0, core.Walk},
		{`MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`, SelAnyShortest, 0, core.Walk},
		{`MATCH ALL SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`, SelAllShortest, 0, core.Trail},
		{`MATCH ANY ACYCLIC p = (?x)-[:Knows+]->(?y)`, SelAny, 0, core.Acyclic},
		{`MATCH ANY 3 SIMPLE p = (?x)-[:Knows+]->(?y)`, SelAnyK, 3, core.Simple},
		{`MATCH SHORTEST 2 WALK p = (?x)-[:Knows+]->(?y)`, SelShortestK, 2, core.Walk},
		{`MATCH SHORTEST 2 GROUP WALK p = (?x)-[:Knows+]->(?y)`, SelShortestKGroup, 2, core.Walk},
		// Lowercase keywords.
		{`match any shortest trail p = (?x)-[:Knows+]->(?y)`, SelAnyShortest, 0, core.Trail},
	}
	for _, tc := range tests {
		q, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if q.Selector.Kind != tc.kind || q.Selector.K != tc.k {
			t.Errorf("%q: selector = %+v, want kind %v k %d", tc.in, q.Selector, tc.kind, tc.k)
		}
		if q.Restrictor != tc.sem {
			t.Errorf("%q: restrictor = %v, want %v", tc.in, q.Restrictor, tc.sem)
		}
		if q.PathVar != "p" {
			t.Errorf("%q: path var = %q, want p", tc.in, q.PathVar)
		}
	}
}

func TestParseExtendedSyntax(t *testing.T) {
	// The example from §7.1 of the paper.
	q, err := Parse(`MATCH ALL PARTITIONS ALL GROUPS 1 PATHS
		TRAIL p = (?x)-[(:Knows)*]->(?y)
		GROUP BY TARGET ORDER BY PATH`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Proj == nil {
		t.Fatal("extended projection missing")
	}
	if !q.Proj.Parts.All || !q.Proj.Groups.All || q.Proj.Paths.All || q.Proj.Paths.N != 1 {
		t.Errorf("projection = %+v, want ALL/ALL/1", *q.Proj)
	}
	if q.Restrictor != core.Trail {
		t.Errorf("restrictor = %v, want Trail", q.Restrictor)
	}
	if q.GroupBy == nil || *q.GroupBy != core.GroupTarget {
		t.Errorf("group by = %v, want Target", q.GroupBy)
	}
	if q.OrderBy == nil || *q.OrderBy != core.OrderPath {
		t.Errorf("order by = %v, want Path", q.OrderBy)
	}
	// Its compilation per §7.1: π(*,*,1)(τA(γT(ϕTrail(σKnows(Edges))))).
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	want := "π(*,*,1)(τA(γT((ϕTrail(σ[label(edge(1)) = \"Knows\"](Edges(G))) ∪ Nodes(G)))))"
	if plan.String() != want {
		t.Errorf("plan = %s\nwant  %s", plan, want)
	}
}

func TestParseNodeSpecs(t *testing.T) {
	q, err := Parse(`MATCH WALK p = (?x:Person {name:"Moe", age:40})-[:Knows]->(y {name:"Apu"})`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Src.Var != "x" || q.Src.Label != "Person" || len(q.Src.Props) != 2 {
		t.Errorf("src = %+v", q.Src)
	}
	if q.Src.Props[0].Prop != "name" || q.Src.Props[0].Value.Str() != "Moe" {
		t.Errorf("src prop[0] = %+v", q.Src.Props[0])
	}
	if q.Src.Props[1].Prop != "age" || q.Src.Props[1].Value.Int() != 40 {
		t.Errorf("src prop[1] = %+v", q.Src.Props[1])
	}
	if q.Dst.Var != "y" || len(q.Dst.Props) != 1 {
		t.Errorf("dst = %+v", q.Dst)
	}
}

func TestParseWhere(t *testing.T) {
	q, err := Parse(`MATCH TRAIL p = (?x)-[:Knows+]->(?y) WHERE first.name = "Moe" AND len() <= 3`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Where == nil {
		t.Fatal("WHERE clause lost")
	}
	want := `(first.name = "Moe" AND len() <= 3)`
	if q.Where.String() != want {
		t.Errorf("where = %s, want %s", q.Where, want)
	}
}

func TestParseBareQuery(t *testing.T) {
	q, err := Parse(`MATCH p = (?x)-[:Knows]->(?y)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Selector.Kind != SelNone || q.Proj != nil {
		t.Error("bare query should have no selector or projection")
	}
	if q.Restrictor != core.Walk {
		t.Errorf("default restrictor = %v, want Walk", q.Restrictor)
	}
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	// No endpoint filters and no selector: the plan is the bare pattern.
	if want := `σ[label(edge(1)) = "Knows"](Edges(G))`; plan.String() != want {
		t.Errorf("bare query plan = %s, want %s", plan, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in      string
		mention string
	}{
		{``, "expected MATCH"},
		{`MATCH`, "expected"},
		{`MATCH WALK p = (?x)-[:Knows]->`, "node specification"},
		{`MATCH WALK p = (?x)-[:Knows]->(?y) extra`, "unexpected"},
		{`MATCH WALK p = (?x)-[:Knows->(?y)`, "unterminated"},
		{`MATCH WALK p = (?x)-[:+]->(?y)`, "rpq"},
		{`MATCH ALL PARTITIONS 2 GROUPS WALK p = (?x)-[:K]->(?y)`, "PATHS"},
		{`MATCH ALL PARTITIONS WALK p = (?x)-[:K]->(?y)`, "GROUPS"},
		{`MATCH ANY 0 WALK p = (?x)-[:K]->(?y)`, "positive integer"},
		{`MATCH SHORTEST 0 WALK p = (?x)-[:K]->(?y)`, "positive integer"},
		{`MATCH WALK p = (?x)-[:K]->(?y) GROUP BY BOGUS`, "SOURCE"},
		{`MATCH WALK p = (?x)-[:K]->(?y) ORDER BY BOGUS`, "PARTITION"},
		{`MATCH WALK p = (?x)-[:K]->(?y) WHERE`, "expected condition"},
		{`MATCH WALK p = (?x)-[:K]->(?y) WHERE first.x =`, "in WHERE clause"},
		{`MATCH WALK p = (?x)-[:K]->(?y) WHERE node(0).x = 1`, "in WHERE clause"},
		{`MATCH WALK p = (?x)-[:K]->(?y) WHERE len() = 1.5`, "in WHERE clause"},
		{`MATCH WALK p = (? )-[:K]->(?y)`, "variable name"},
		{`MATCH WALK p = (x {name})-[:K]->(?y)`, "':'"},
		{`MATCH WALK p = (x {name:})-[:K]->(?y)`, "literal"},
		{`MATCH WALK p = (x-[:K]->(?y)`, "')'"},
		{`MATCH ANY SHORTEST WALK p = (?x)-[:K]->(?y) GROUP BY SOURCE`, "extended projection"},
		{`MATCH WALK p = (?x)<-[:K]->(?y)`, "'-['"},
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

// TestTable7Translations verifies the selector → algebra compilation
// scheme of the paper's Table 7 (with WALK; the other restrictors follow
// by substitution).
func TestTable7Translations(t *testing.T) {
	pattern := `(?x)-[:Knows+]->(?y)`
	tests := []struct {
		selector string
		want     string
	}{
		{"ALL", "π(*,*,*)(γ∅(RE))"},
		{"ANY SHORTEST", "π(*,*,1)(τA(γST(RE)))"},
		{"ALL SHORTEST", "π(*,1,*)(τG(γSTL(RE)))"},
		{"ANY", "π(*,*,1)(γST(RE))"},
		{"ANY 2", "π(*,*,2)(γST(RE))"},
		{"SHORTEST 2", "π(*,*,2)(τA(γST(RE)))"},
		{"SHORTEST 2 GROUP", "π(*,2,*)(τG(γSTL(RE)))"},
	}
	re := `ϕWalk(σ[label(edge(1)) = "Knows"](Edges(G)))`
	for _, tc := range tests {
		q, err := Parse("MATCH " + tc.selector + " WALK p = " + pattern)
		if err != nil {
			t.Fatalf("%s: %v", tc.selector, err)
		}
		plan, err := Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.selector, err)
		}
		want := strings.ReplaceAll(tc.want, "RE", re)
		if got := plan.String(); got != want {
			t.Errorf("%s:\ngot  %s\nwant %s", tc.selector, got, want)
		}
	}
}

// TestTable7AcrossRestrictors: the paper states the Table 7 scheme holds
// for every restrictor by replacing WALK.
func TestTable7AcrossRestrictors(t *testing.T) {
	for _, restr := range []string{"TRAIL", "ACYCLIC", "SIMPLE", "SHORTEST"} {
		q, err := Parse(`MATCH ANY SHORTEST ` + restr + ` p = (?x)-[:Knows+]->(?y)`)
		if err != nil {
			t.Fatalf("%s: %v", restr, err)
		}
		plan, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		sem, _ := core.ParseSemantics(restr)
		if !strings.Contains(plan.String(), "ϕ"+sem.String()) {
			t.Errorf("%s: plan lacks ϕ%s: %s", restr, sem, plan)
		}
	}
}

func TestCompileFilters(t *testing.T) {
	plan := MustCompile(`MATCH SIMPLE p = (x:Person {name:"Moe"})-[:Knows+]->(y:Person {name:"Apu"})`)
	sel, ok := plan.(core.Select)
	if !ok {
		t.Fatalf("top = %T, want Select", plan)
	}
	c := sel.Cond.String()
	for _, want := range []string{
		`label(first) = "Person"`, `first.name = "Moe"`,
		`label(last) = "Person"`, `last.name = "Apu"`,
	} {
		if !strings.Contains(c, want) {
			t.Errorf("condition missing %q: %s", want, c)
		}
	}
}

func TestQueryString(t *testing.T) {
	inputs := []string{
		`MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ALL PARTITIONS 2 GROUPS 1 PATHS TRAIL p = (?x)-[:Knows*]->(?y) GROUP BY TARGET ORDER BY PATH`,
		`MATCH SIMPLE p = (x:Person {name:"Moe"})-[:Knows+]->(?y) WHERE len() <= 3`,
	}
	for _, in := range inputs {
		q, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		// String() must re-parse to an identical query rendering.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q.String(), err)
		}
		if q.String() != q2.String() {
			t.Errorf("unstable rendering:\n%s\n%s", q.String(), q2.String())
		}
	}
}

func TestSelectorString(t *testing.T) {
	tests := map[string]Selector{
		"ALL":              {Kind: SelAll},
		"ANY SHORTEST":     {Kind: SelAnyShortest},
		"ALL SHORTEST":     {Kind: SelAllShortest},
		"ANY":              {Kind: SelAny},
		"ANY 4":            {Kind: SelAnyK, K: 4},
		"SHORTEST 4":       {Kind: SelShortestK, K: 4},
		"SHORTEST 4 GROUP": {Kind: SelShortestKGroup, K: 4},
		"":                 {Kind: SelNone},
	}
	for want, sel := range tests {
		if got := sel.String(); got != want {
			t.Errorf("Selector%+v.String() = %q, want %q", sel, got, want)
		}
	}
	if len(AllSelectors(2)) != 7 {
		t.Error("AllSelectors must list the 7 selectors of Table 1")
	}
	if _, err := CompileSelector(Selector{Kind: SelNone}, core.Edges{}); err == nil {
		t.Error("CompileSelector(SelNone) should fail")
	}
}

// TestPrintPlanSection72 reproduces the parser output format of §7.2.
func TestPrintPlanSection72(t *testing.T) {
	plan := MustCompile(`MATCH ALL PARTITIONS ALL GROUPS 1 PATHS
		TRAIL p = (?x)-[(:Knows)+]->(?y)
		GROUP BY TARGET ORDER BY PATH`)
	got := PrintPlan(plan)
	want := `Projection (ALL PARTITIONS ALL GROUPS 1 PATHS)
OrderBy (Path)
Group (Target)
Restrictor (TRAIL)
-> Recursive Join (restrictor: TRAIL)
  -> Select: (label(edge(1)) = "Knows" , EDGES(G))
`
	if got != want {
		t.Errorf("PrintPlan:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrintPlanShapes(t *testing.T) {
	cases := []struct {
		query    string
		mentions []string
	}{
		{
			`MATCH WALK p = (?x)-[:A|:B]->(?y)`,
			[]string{"-> Union", `Select: (label(edge(1)) = "A" , EDGES(G))`},
		},
		{
			`MATCH WALK p = (?x)-[:A/:B]->(?y)`,
			[]string{"-> Join"},
		},
		{
			`MATCH WALK p = (?x)-[:A*]->(?y)`,
			[]string{"-> NODES(G)"},
		},
		{
			`MATCH ANY SHORTEST WALK p = (?x {name:"Moe"})-[:A+]->(?y)`,
			[]string{"Projection (ALL PARTITIONS ALL GROUPS 1 PATHS)", "OrderBy (Path)",
				"Group (Source Target)", "Restrictor (WALK)", "-> Select: (first.name = \"Moe\")"},
		},
	}
	for _, tc := range cases {
		got := PrintPlan(MustCompile(tc.query))
		for _, m := range tc.mentions {
			if !strings.Contains(got, m) {
				t.Errorf("%s:\nplan output missing %q:\n%s", tc.query, m, got)
			}
		}
	}
}
