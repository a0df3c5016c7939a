package gql_test

import (
	"reflect"
	"strings"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/gql"
)

// FuzzParseGQL asserts the query parser never panics: arbitrary input
// must yield either a query or an error. Parsed queries must additionally
// compile without panicking (compilation may still return an error).
func FuzzParseGQL(f *testing.F) {
	for _, seed := range []string{
		`MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[:Knows*]->(?y) GROUP BY TARGET ORDER BY PATH`,
		`MATCH SIMPLE p = (?x:Person {name:"Moe"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:"Apu"})`,
		`MATCH SHORTEST 2 GROUP ACYCLIC p = (?x)-[:Knows+]->(?y) WHERE len() <= 5`,
		`MATCH 3 PARTITIONS 2 GROUPS DESC ALL PATHS WALK p = (?x)-[-]->(?y)`,
		`MATCH p = (?x)-[:Knows]->(?y) WHERE label(edge(1)) = "Knows" AND NOT first.a = 1`,
		`MATCH`,
		`MATCH WALK`,
		`MATCH WALK p = (?x)-[`,
		`MATCH WALK p = (?x)-[]->(?y)`,
		`MATCH WALK p = (x-[:A]->(y)`,
		`MATCH WALK p = ()-[:A]->()`,
		`MATCH WALK p = (?x {a:})-[:A]->(?y)`,
		`match any shortest trail q = (?a)-[:k+]->(?b)`,
		`MATCH WALK p = (?x)-[:A]->(?y) GROUP BY`,
		`MATCH WALK p = (?x)-[:A]->(?y) ORDER BY WHERE`,
		"\x00[\"",
		`MATCH - -> -`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := gql.Parse(input)
		if err != nil {
			return
		}
		_, _ = gql.Compile(q)
	})
}

// FuzzWhereMatchesCond checks that a WHERE clause and a property filter
// read exactly the language internal/cond reads:
//
//	P1: a condition cond.Parse accepts parses to the same Where in a
//	    query, whatever clause follows it;
//	P2: a query whose WHERE clause ends the query holds a condition
//	    cond.Parse accepts, and the same one;
//	P3: a literal v cond.Parse accepts in "first.k = v" is the same
//	    value in an endpoint's {k: v}.
func FuzzWhereMatchesCond(f *testing.F) {
	for _, seed := range []string{
		// FuzzParseCond's seeds.
		`label(edge(1)) = "Knows" AND first.name = "Moe"`,
		`len() <= 3 OR NOT (last.age > 30)`,
		`node(2).score >= 1.5`,
		`first.ok = true AND last.ok = false`,
		`NOT NOT NOT len() = 0`,
		`edge(999999999999999999999).x = 1`,
		`first.name = "\"escaped\""`,
		`len() < -1`,
		`(((len() = 1)))`,
		`label(first) != "A"`,
		`first.p = `,
		`"dangling`,
		`= = =`,
		`first..x = 1`,
		`len() = 1.2.3`,
		"\x00\x01\x02",
		// Literals the two grammars once read differently.
		`first.a = -.5`,
		`{a: -.5}`,
	} {
		f.Add(seed)
	}
	const pre = `MATCH WALK p = (?x)-[:K]->(?y) WHERE `
	f.Fuzz(func(t *testing.T, c string) {
		want, condErr := cond.Parse(c)
		if condErr == nil {
			for _, s := range []string{"", " GROUP BY TARGET", " ORDER BY PATH"} {
				q, err := gql.Parse(pre + c + s)
				if err != nil {
					t.Fatalf("P1: cond.Parse(%q) succeeds but the query with %q fails: %v", c, s, err)
				}
				if !reflect.DeepEqual(q.Where, want) {
					t.Fatalf("P1: %q after WHERE and before %q parses to %s, cond.Parse to %s", c, s, q.Where, want)
				}
			}
		}
		if q, err := gql.Parse(pre + c); err == nil && q.GroupBy == nil && q.OrderBy == nil {
			if condErr != nil {
				t.Fatalf("P2: %q parses after WHERE but cond.Parse fails: %v", c, condErr)
			}
			if !reflect.DeepEqual(q.Where, want) {
				t.Fatalf("P2: %q after WHERE parses to %s, cond.Parse to %s", c, q.Where, want)
			}
		}
		// P3 reads c as a literal, or as a one-entry property map {k: v}.
		k, v := "k", c
		if body, ok := strings.CutPrefix(c, "{"); ok {
			if name, val, ok := strings.Cut(strings.TrimSuffix(body, "}"), ":"); ok {
				k, v = strings.TrimSpace(name), val
			}
		}
		cmp, err := cond.Parse("first." + k + " = " + v)
		if pc, ok := cmp.(cond.PropCmp); err == nil && ok {
			q, err := gql.Parse(`MATCH WALK p = (?x {` + k + `: ` + v + `})-[:K]->(?y)`)
			if err != nil {
				t.Fatalf("P3: literal %q parses in a condition but not in {%s: v}: %v", v, k, err)
			}
			if got := q.Src.Props[0]; got.Prop != pc.Prop || !reflect.DeepEqual(got.Value, pc.Value) {
				t.Fatalf("P3: literal %q is %+v in {%s: v}, %v in a condition", v, got, k, pc.Value)
			}
		}
	})
}
