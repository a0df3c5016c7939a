package graph

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// OpKind enumerates the mutation operations a Batch carries.
type OpKind uint8

const (
	OpAddNode OpKind = iota
	OpAddEdge
	OpDelNode
	OpDelEdge
)

func (k OpKind) String() string {
	switch k {
	case OpAddNode:
		return "add_node"
	case OpAddEdge:
		return "add_edge"
	case OpDelNode:
		return "del_node"
	case OpDelEdge:
		return "del_edge"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one mutation. Src/Dst/Label/Props are meaningful only for the
// kinds that use them; deletes carry just the key.
type Op struct {
	Kind  OpKind
	Key   string
	Src   string // add_edge: source node key
	Dst   string // add_edge: target node key
	Label string
	Props map[string]Value
}

// Batch is an ordered, atomic group of mutations: ops apply in order
// (later ops see earlier ones — an edge may reference a node added two
// lines up), and either the whole batch applies or none of it does.
type Batch struct {
	Ops []Op
}

// ndjsonOp is the NDJSON wire form of one op, reusing the JSON property
// encoding of ReadJSON/WriteJSON:
//
//	{"op":"add_node","key":"p9","label":"Person","props":{"name":{"kind":"string","str":"Ada"}}}
//	{"op":"add_edge","key":"k9","src":"p9","dst":"p1","label":"knows"}
//	{"op":"del_edge","key":"k3"}
//	{"op":"del_node","key":"p4"}
type ndjsonOp struct {
	Op    string               `json:"op"`
	Key   string               `json:"key"`
	Src   string               `json:"src,omitempty"`
	Dst   string               `json:"dst,omitempty"`
	Label string               `json:"label,omitempty"`
	Props map[string]jsonValue `json:"props,omitempty"`
}

var opKinds = map[string]OpKind{
	"add_node": OpAddNode,
	"add_edge": OpAddEdge,
	"del_node": OpDelNode,
	"del_edge": OpDelEdge,
}

// ReadBatchNDJSON parses a batch from NDJSON: one op object per line,
// blank lines ignored. A line holding anything after its object fails.
func ReadBatchNDJSON(r io.Reader) (Batch, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Batch{}, fmt.Errorf("graph: reading batch: %w", err)
	}
	var b Batch
	for line := 1; len(data) > 0; line++ {
		var raw []byte
		raw, data, _ = bytes.Cut(data, []byte{'\n'})
		if raw = bytes.TrimSpace(raw); len(raw) == 0 {
			continue
		}
		var jop ndjsonOp
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		err := dec.Decode(&jop)
		if _, next := dec.Token(); err == nil && next != io.EOF {
			err = errors.New("data after the op object")
		}
		var op Op
		if err == nil {
			op, err = jop.toOp()
		}
		if err != nil {
			return Batch{}, fmt.Errorf("graph: batch line %d: %w", line, err)
		}
		b.Ops = append(b.Ops, op)
	}
	return b, nil
}

func (jop *ndjsonOp) toOp() (Op, error) {
	kind, ok := opKinds[jop.Op]
	if !ok {
		return Op{}, fmt.Errorf("unknown op %q", jop.Op)
	}
	if jop.Key == "" {
		return Op{}, fmt.Errorf("%s: missing key", jop.Op)
	}
	if kind == OpAddEdge && (jop.Src == "" || jop.Dst == "") {
		return Op{}, fmt.Errorf("add_edge %q: missing src or dst", jop.Key)
	}
	props, err := decodeProps(jop.Props)
	if err != nil {
		return Op{}, fmt.Errorf("%s %q: %w", jop.Op, jop.Key, err)
	}
	return Op{Kind: kind, Key: jop.Key, Src: jop.Src, Dst: jop.Dst, Label: jop.Label, Props: props}, nil
}

// ReadBatchCSV parses a batch from CSV with the fixed header
// `op,key,src,dst,label`: one op per record, src/dst blank except for
// add_edge, property columns not supported (use NDJSON for ops with
// properties).
func ReadBatchCSV(r io.Reader) (Batch, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return Batch{}, fmt.Errorf("graph: batch CSV header: %w", err)
	}
	want := []string{"op", "key", "src", "dst", "label"}
	for i, col := range want {
		if strings.TrimSpace(header[i]) != col {
			return Batch{}, fmt.Errorf("graph: batch CSV header: column %d is %q, want %q", i, header[i], col)
		}
	}
	var b Batch
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Batch{}, fmt.Errorf("graph: batch CSV: %w", err)
		}
		if err := checkUTF8(cr, rec); err != nil {
			return Batch{}, fmt.Errorf("graph: batch CSV %w", err)
		}
		jop := ndjsonOp{Op: rec[0], Key: rec[1], Src: rec[2], Dst: rec[3], Label: rec[4]}
		op, err := jop.toOp()
		if err != nil {
			ln, _ := cr.FieldPos(0)
			return Batch{}, fmt.Errorf("graph: batch CSV line %d: %w", ln, err)
		}
		b.Ops = append(b.Ops, op)
	}
	return b, nil
}
