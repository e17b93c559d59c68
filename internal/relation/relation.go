package relation

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Tuple is one row of a relation: values in schema column order.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports value-wise equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically column by column. Both tuples
// must conform to the same schema.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Encode appends a deterministic byte encoding of the whole tuple to dst.
// This is the plaintext that the hybrid scheme encrypts as an "etuple" in
// the DAS protocol and inside tuple sets in the other two protocols.
func (t Tuple) Encode(dst []byte) []byte {
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
}

// DecodeTuple decodes a tuple of the given schema from src. The entire
// input must be consumed.
func DecodeTuple(s Schema, src []byte) (Tuple, error) {
	t := make(Tuple, 0, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		v, n, err := DecodeValue(src)
		if err != nil {
			return nil, fmt.Errorf("relation: decode tuple column %d: %w", i, err)
		}
		if v.Kind() != s.Columns[i].Kind {
			return nil, fmt.Errorf("relation: decode tuple: column %d is %v, schema wants %v", i, v.Kind(), s.Columns[i].Kind)
		}
		src = src[n:]
		t = append(t, v)
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("relation: decode tuple: %d trailing bytes", len(src))
	}
	return t, nil
}

// Relation is a bag (multiset) of tuples under a schema. The in-memory
// representation keeps insertion order; multiset semantics are used for
// equality so that protocol results can be compared independent of
// delivery order.
type Relation struct {
	schema Schema
	tuples []Tuple
}

// New creates an empty relation with the given schema.
func New(s Schema) *Relation {
	return &Relation{schema: s}
}

// FromTuples creates a relation and appends the given tuples, validating
// each against the schema.
func FromTuples(s Schema, tuples ...Tuple) (*Relation, error) {
	r := New(s)
	for _, t := range tuples {
		if err := r.Append(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromTuples is FromTuples but panics on error; for tests and examples.
func MustFromTuples(s Schema, tuples ...Tuple) *Relation {
	r, err := FromTuples(s, tuples...)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples (with multiplicity).
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple. The caller must not mutate it.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice. The caller must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Append validates t against the schema and adds it to the relation.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("relation: %s: tuple arity %d, schema arity %d", r.schema.Relation, len(t), r.schema.Arity())
	}
	for i, v := range t {
		if v.Kind() != r.schema.Columns[i].Kind {
			return fmt.Errorf("relation: %s: column %s wants %v, got %v", r.schema.Relation, r.schema.Columns[i].Name, r.schema.Columns[i].Kind, v.Kind())
		}
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// MustAppend is Append but panics on error.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{schema: r.schema.Rename(r.schema.Relation), tuples: make([]Tuple, len(r.tuples))}
	for i, t := range r.tuples {
		c.tuples[i] = t.Clone()
	}
	return c
}

// Rename returns a shallow copy of the relation under a new name.
func (r *Relation) Rename(name string) *Relation {
	return &Relation{schema: r.schema.Rename(name), tuples: r.tuples}
}

// Sort orders the tuples lexicographically in place and returns the
// relation for chaining. Protocol results are sorted before comparison in
// tests.
func (r *Relation) Sort() *Relation {
	sort.Slice(r.tuples, func(i, j int) bool { return r.tuples[i].Compare(r.tuples[j]) < 0 })
	return r
}

// EqualMultiset reports whether two relations contain the same tuples with
// the same multiplicities, regardless of order. Schemas must be compatible
// (Equal). It does not mutate either relation.
func (r *Relation) EqualMultiset(o *Relation) bool {
	if !r.schema.Equal(o.schema) || len(r.tuples) != len(o.tuples) {
		return false
	}
	a := r.Clone().Sort()
	b := o.Clone().Sort()
	for i := range a.tuples {
		if !a.tuples[i].Equal(b.tuples[i]) {
			return false
		}
	}
	return true
}

// ActiveDomain returns the sorted set of distinct values appearing in the
// named column — domactive(A) in the paper's notation. The commutative and
// PM protocols operate on exactly this set.
func (r *Relation) ActiveDomain(column string) ([]Value, error) {
	i := r.schema.IndexOf(column)
	if i < 0 {
		return nil, fmt.Errorf("relation: %s has no column %q", r.schema.Relation, column)
	}
	vals := make([]Value, 0, len(r.tuples))
	for _, t := range r.tuples {
		vals = append(vals, t[i])
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].Compare(vals[b]) < 0 })
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || !out[len(out)-1].Equal(v) {
			out = append(out, v)
		}
	}
	return append([]Value(nil), out...), nil
}

// TupleSet returns Tup(a) for the named join column: all tuples whose value
// in that column equals a (paper, Section 4.1). The returned slice aliases
// the relation's tuples.
func (r *Relation) TupleSet(column string, a Value) ([]Tuple, error) {
	i := r.schema.IndexOf(column)
	if i < 0 {
		return nil, fmt.Errorf("relation: %s has no column %q", r.schema.Relation, column)
	}
	var out []Tuple
	for _, t := range r.tuples {
		if t[i].Equal(a) {
			out = append(out, t)
		}
	}
	return out, nil
}

// GroupByColumn partitions the relation's tuples by the value of the named
// column, returning the active domain (sorted) and the map from each value
// (by encoded key) to its tuple set. This is the bulk form of TupleSet used
// by the protocol implementations.
func (r *Relation) GroupByColumn(column string) ([]Value, map[string][]Tuple, error) {
	i := r.schema.IndexOf(column)
	if i < 0 {
		return nil, nil, fmt.Errorf("relation: %s has no column %q", r.schema.Relation, column)
	}
	groups := make(map[string][]Tuple)
	for _, t := range r.tuples {
		k := string(t[i].Encode(nil))
		groups[k] = append(groups[k], t)
	}
	dom, err := r.ActiveDomain(column)
	if err != nil {
		return nil, nil, err
	}
	return dom, groups, nil
}

// Filter returns a new relation containing the tuples for which keep
// returns true.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := New(r.schema)
	for _, t := range r.tuples {
		if keep(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// String renders the relation as an aligned text table, sorted output not
// implied; mainly for examples and debugging.
func (r *Relation) String() string {
	var b strings.Builder
	widths := make([]int, r.schema.Arity())
	header := make([]string, r.schema.Arity())
	for i, c := range r.schema.Columns {
		header[i] = c.Name
		widths[i] = len(c.Name)
	}
	rows := make([][]string, len(r.tuples))
	for ri, t := range r.tuples {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows[ri] = row
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	if r.schema.Relation != "" {
		fmt.Fprintf(&b, "-- %s (%d tuples)\n", r.schema.Relation, len(r.tuples))
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// KeyGroup is one group of a composite-key grouping: the (possibly
// multi-column) join key and the tuples carrying it.
type KeyGroup struct {
	Key    []Value
	Tuples []Tuple
}

// EncodeValues appends the canonical encodings of a value list — the
// composite-key analogue of Value.Encode, used by the protocols to treat a
// multi-attribute join key as one opaque byte string.
func EncodeValues(vals []Value, dst []byte) []byte {
	for _, v := range vals {
		dst = v.Encode(dst)
	}
	return dst
}

// GroupByColumns partitions the relation by the composite key over the
// named columns, returning groups sorted by key. With a single column this
// is the multi-column generalization of GroupByColumn; the protocols use
// it to compute Tup_i(a) for composite join keys (the paper's
// multi-attribute future-work extension).
func (r *Relation) GroupByColumns(cols []string) ([]KeyGroup, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: GroupByColumns needs at least one column")
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.schema.IndexOf(c)
		if idx[i] < 0 {
			return nil, fmt.Errorf("relation: %s has no column %q", r.schema.Relation, c)
		}
	}
	byKey := make(map[string]*KeyGroup)
	var order []string
	for _, t := range r.tuples {
		key := make([]Value, len(idx))
		for i, j := range idx {
			key[i] = t[j]
		}
		k := string(EncodeValues(key, nil))
		g, ok := byKey[k]
		if !ok {
			g = &KeyGroup{Key: key}
			byKey[k] = g
			order = append(order, k)
		}
		g.Tuples = append(g.Tuples, t)
	}
	sort.Strings(order)
	out := make([]KeyGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out, nil
}

// EncodeTupleSet serializes a tuple list compactly: a uvarint count
// followed by uvarint-length-prefixed canonical tuple encodings. This is
// the wire form of Tup_i(a) inside protocol payloads; it is far denser
// than generic encodings, which matters when a tuple set must fit into a
// homomorphic plaintext (PM inline payload mode).
func EncodeTupleSet(tuples []Tuple) []byte {
	out := binary.AppendUvarint(nil, uint64(len(tuples)))
	for _, t := range tuples {
		enc := t.Encode(nil)
		out = binary.AppendUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
	}
	return out
}

// uvarint is binary.Uvarint restricted to minimal encodings (k <= 0
// otherwise), so every accepted tuple set re-encodes to its input.
func uvarint(b []byte) (uint64, int) {
	v, k := binary.Uvarint(b)
	if k > 1 && b[k-1] == 0 {
		return 0, 0
	}
	return v, k
}

// DecodeTupleSet parses an EncodeTupleSet blob against a schema.
func DecodeTupleSet(s Schema, b []byte) ([]Tuple, error) {
	n, k := uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("relation: decode tuple set: bad count")
	}
	b = b[k:]
	// Every entry takes at least its one-byte length prefix, so a larger
	// count is corrupt and must not size the allocation.
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("relation: decode tuple set: count %d exceeds %d remaining bytes", n, len(b))
	}
	out := make([]Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		l, k := uvarint(b)
		if k <= 0 || uint64(len(b[k:])) < l {
			return nil, fmt.Errorf("relation: decode tuple set: truncated entry %d", i)
		}
		t, err := DecodeTuple(s, b[k:k+int(l)])
		if err != nil {
			return nil, err
		}
		b = b[k+int(l):]
		out = append(out, t)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("relation: decode tuple set: %d trailing bytes", len(b))
	}
	return out, nil
}
