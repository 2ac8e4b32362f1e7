package graph

// Names maps strings to small dense integer ids and back. Labels and
// attribute names are interned so hot matching loops compare int32s
// instead of strings. A Names is read-only: a Builder's Interner adds
// names, and the Graph it builds holds only the Names, so nothing
// reachable from a Graph can add one.
type Names struct {
	byName map[string]int32
	names  []string
}

// Lookup returns the id for s and whether it has been interned.
func (n *Names) Lookup(s string) (int32, bool) {
	id, ok := n.byName[s]
	return id, ok
}

// Name returns the string for id. It panics on ids never issued.
func (n *Names) Name(id int32) string { return n.names[id] }

// Len returns the number of interned strings (including the empty one).
func (n *Names) Len() int { return len(n.names) }

// Interner is the Names a Builder or a reader fills.
type Interner struct{ Names }

// NewInterner returns an empty interner. ID 0 is reserved for the empty
// string, which the query model uses as the wildcard label '⊥'.
func NewInterner() *Interner {
	in := &Interner{Names{byName: make(map[string]int32)}}
	in.Intern("")
	return in
}

// Intern returns the id for s, assigning a fresh one on first sight.
func (in *Interner) Intern(s string) int32 {
	if id, ok := in.byName[s]; ok {
		return id
	}
	id := int32(len(in.names))
	in.byName[s] = id
	in.names = append(in.names, s)
	return id
}
