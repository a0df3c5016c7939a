package graph

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ReadCSV loads a property graph from two CSV streams, the common
// interchange format of LDBC SNB dumps.
//
// The node file needs a header whose first two columns are "key" and
// "label"; remaining columns become properties. The edge file's first
// four header columns are "key", "src", "dst" and "label". Property
// columns are strings by default; a ":int", ":float", ":bool" or
// ":string" suffix on the header name selects a typed parse (e.g.
// "age:int"). Any other ":suffix" — including an empty one — is not a
// type annotation: the whole column name, colon and all, becomes a
// string-valued property (so "created:stamp" is the string property
// named "created:stamp"). Empty cells leave the property unset (ν is
// partial). Cells that WriteJSON cannot write back are rejected, as
// Store.Apply rejects them: invalid UTF-8 anywhere, and NaN or ±Inf in a
// ":float" column.
func ReadCSV(nodes, edges io.Reader) (*Graph, error) {
	b := NewBuilder()
	if err := readNodeCSV(b, nodes); err != nil {
		return nil, err
	}
	if err := readEdgeCSV(b, edges); err != nil {
		return nil, err
	}
	return b.Build()
}

type propColumn struct {
	name string
	kind ValueKind
}

func parseHeader(fields []string, fixed []string, what string) ([]propColumn, error) {
	if len(fields) < len(fixed) {
		return nil, fmt.Errorf("graph: %s CSV header needs at least %v", what, fixed)
	}
	for i, want := range fixed {
		if !strings.EqualFold(strings.TrimSpace(fields[i]), want) {
			return nil, fmt.Errorf("graph: %s CSV header column %d is %q, want %q",
				what, i+1, fields[i], want)
		}
	}
	var props []propColumn
	for _, f := range fields[len(fixed):] {
		name := strings.TrimSpace(f)
		kind := KindString
		if idx := strings.LastIndexByte(name, ':'); idx >= 0 {
			switch strings.ToLower(name[idx+1:]) {
			case "int":
				kind = KindInt
				name = name[:idx]
			case "float":
				kind = KindFloat
				name = name[:idx]
			case "bool":
				kind = KindBool
				name = name[:idx]
			case "string":
				name = name[:idx]
			default:
				// Not a known type annotation (including the empty
				// suffix "name:"): keep the whole name, colon included,
				// as a string property. See the ReadCSV contract.
			}
		}
		if name == "" {
			return nil, fmt.Errorf("graph: %s CSV has an empty property column name", what)
		}
		props = append(props, propColumn{name: name, kind: kind})
	}
	return props, nil
}

func parseProps(cols []propColumn, cells []string) (map[string]Value, error) {
	var props map[string]Value
	for i, col := range cols {
		cell := strings.TrimSpace(cells[i])
		if cell == "" {
			continue
		}
		var v Value
		switch col.kind {
		case KindInt:
			n, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", col.name, err)
			}
			v = IntValue(n)
		case KindFloat:
			f, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", col.name, err)
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("column %q: %s is not a finite number", col.name, cell)
			}
			v = FloatValue(f)
		case KindBool:
			bv, err := strconv.ParseBool(cell)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", col.name, err)
			}
			v = BoolValue(bv)
		default:
			v = StringValue(cell)
		}
		if props == nil {
			props = make(map[string]Value, len(cols))
		}
		props[col.name] = v
	}
	return props, nil
}

// checkUTF8 rejects the record cr read last if a cell holds invalid
// UTF-8: WriteJSON would rewrite it to U+FFFD, so an export would not
// read back as the graph it saved.
func checkUTF8(cr *csv.Reader, rec []string) error {
	for i, cell := range rec {
		if !utf8.ValidString(cell) {
			line, col := cr.FieldPos(i)
			return fmt.Errorf("line %d, column %d: invalid UTF-8", line, col)
		}
	}
	return nil
}

func readNodeCSV(b *Builder, r io.Reader) error {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("graph: reading node CSV header: %w", err)
	}
	if err := checkUTF8(cr, header); err != nil {
		return fmt.Errorf("graph: node CSV %w", err)
	}
	cols, err := parseHeader(header, []string{"key", "label"}, "node")
	if err != nil {
		return err
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("graph: node CSV line %d: %w", line+1, err)
		}
		line++
		if err := checkUTF8(cr, rec); err != nil {
			return fmt.Errorf("graph: node CSV %w", err)
		}
		props, err := parseProps(cols, rec[2:])
		if err != nil {
			return fmt.Errorf("graph: node CSV line %d: %w", line, err)
		}
		b.AddNode(strings.TrimSpace(rec[0]), strings.TrimSpace(rec[1]), props)
	}
}

func readEdgeCSV(b *Builder, r io.Reader) error {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("graph: reading edge CSV header: %w", err)
	}
	if err := checkUTF8(cr, header); err != nil {
		return fmt.Errorf("graph: edge CSV %w", err)
	}
	cols, err := parseHeader(header, []string{"key", "src", "dst", "label"}, "edge")
	if err != nil {
		return err
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("graph: edge CSV line %d: %w", line+1, err)
		}
		line++
		if err := checkUTF8(cr, rec); err != nil {
			return fmt.Errorf("graph: edge CSV %w", err)
		}
		props, err := parseProps(cols, rec[4:])
		if err != nil {
			return fmt.Errorf("graph: edge CSV line %d: %w", line, err)
		}
		b.AddEdge(strings.TrimSpace(rec[0]), strings.TrimSpace(rec[1]),
			strings.TrimSpace(rec[2]), strings.TrimSpace(rec[3]), props)
	}
}
