package graph

import "errors"

// Typed validation errors for graph construction and mutation. Builder,
// the CSV/JSON loaders and Store.Apply all wrap these sentinels, so
// callers branch with errors.Is instead of matching message text — the
// /ingest endpoint's 422 contract is exactly "errors.Is one of these".
var (
	// ErrDuplicateKey reports a node or edge key already used by a live
	// object (the paper requires N ∩ E = ∅, so the key space is shared).
	ErrDuplicateKey = errors.New("duplicate key")
	// ErrUnknownNode reports an edge whose src or dst key names no live
	// node.
	ErrUnknownNode = errors.New("unknown node")
	// ErrUnknownKey reports a delete of a key that names no live object
	// of the requested kind.
	ErrUnknownKey = errors.New("unknown key")
	// ErrInvalidValue reports a key, label, property name or string
	// value that is not valid UTF-8, or a NaN or infinite float: WriteJSON
	// would write the string with U+FFFD in place of the bad bytes, and
	// cannot write the float.
	ErrInvalidValue = errors.New("invalid value")
)
