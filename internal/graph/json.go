package graph

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonValue is the wire form of a property value.
type jsonValue struct {
	Kind  string   `json:"kind"`
	Str   *string  `json:"str,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
	Bool  *bool    `json:"bool,omitempty"`
}

type jsonNode struct {
	Key   string               `json:"key"`
	Label string               `json:"label,omitempty"`
	Props map[string]jsonValue `json:"props,omitempty"`
}

type jsonEdge struct {
	Key   string               `json:"key"`
	Src   string               `json:"src"`
	Dst   string               `json:"dst"`
	Label string               `json:"label,omitempty"`
	Props map[string]jsonValue `json:"props,omitempty"`
}

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

func toJSONValue(v Value) jsonValue {
	switch v.Kind {
	case KindString:
		s := v.Str()
		return jsonValue{Kind: "string", Str: &s}
	case KindInt:
		i := v.Int()
		return jsonValue{Kind: "int", Int: &i}
	case KindFloat:
		f := v.Float()
		return jsonValue{Kind: "float", Float: &f}
	case KindBool:
		b := v.Bool()
		return jsonValue{Kind: "bool", Bool: &b}
	default:
		return jsonValue{Kind: "null"}
	}
}

func fromJSONValue(v jsonValue) (Value, error) {
	switch v.Kind {
	case "string":
		if v.Str == nil {
			return Value{}, fmt.Errorf("graph: string value missing payload")
		}
		return StringValue(*v.Str), nil
	case "int":
		if v.Int == nil {
			return Value{}, fmt.Errorf("graph: int value missing payload")
		}
		return IntValue(*v.Int), nil
	case "float":
		if v.Float == nil {
			return Value{}, fmt.Errorf("graph: float value missing payload")
		}
		return FloatValue(*v.Float), nil
	case "bool":
		if v.Bool == nil {
			return Value{}, fmt.Errorf("graph: bool value missing payload")
		}
		return BoolValue(*v.Bool), nil
	case "null", "":
		return Null(), nil
	default:
		return Value{}, fmt.Errorf("graph: unknown value kind %q", v.Kind)
	}
}

// WriteJSON serializes the graph's live nodes and edges, in ID order, as a
// single JSON document. A delta view writes what its compaction would.
func (g *Graph) WriteJSON(w io.Writer) error {
	doc := jsonGraph{
		Nodes: make([]jsonNode, 0, g.LiveNodes()),
		Edges: make([]jsonEdge, 0, g.LiveEdges()),
	}
	for _, n := range g.Nodes() {
		doc.Nodes = append(doc.Nodes, jsonNode{Key: n.Key, Label: n.Label, Props: toJSONProps(n.Props)})
	}
	for _, e := range g.Edges() {
		doc.Edges = append(doc.Edges, jsonEdge{Key: e.Key, Src: g.NodeKey(e.Src), Dst: g.NodeKey(e.Dst),
			Label: e.Label, Props: toJSONProps(e.Props)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func toJSONProps(props map[string]Value) map[string]jsonValue {
	if len(props) == 0 {
		return nil
	}
	out := make(map[string]jsonValue, len(props))
	for k, v := range props {
		out[k] = toJSONValue(v)
	}
	return out
}

// ReadJSON parses a graph previously written by WriteJSON (or authored by
// hand in the same format).
func ReadJSON(r io.Reader) (*Graph, error) {
	var doc jsonGraph
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("graph: decoding JSON: %w", err)
	}
	b := NewBuilder()
	for _, n := range doc.Nodes {
		props, err := decodeProps(n.Props)
		if err != nil {
			return nil, fmt.Errorf("graph: node %q: %w", n.Key, err)
		}
		b.AddNode(n.Key, n.Label, props)
	}
	for _, e := range doc.Edges {
		props, err := decodeProps(e.Props)
		if err != nil {
			return nil, fmt.Errorf("graph: edge %q: %w", e.Key, err)
		}
		b.AddEdge(e.Key, e.Src, e.Dst, e.Label, props)
	}
	return b.Build()
}

func decodeProps(in map[string]jsonValue) (map[string]Value, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(map[string]Value, len(in))
	for k, jv := range in {
		v, err := fromJSONValue(jv)
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}
