// Package lang defines distributed languages and their configurations,
// following §2.2 of the paper: an input-output configuration is a pair
// (G, (x, y)) where G is a graph and x, y assign binary strings to nodes;
// a distributed language is a family of such configurations containing at
// least one output for every input configuration. Languages come in two
// flavours here: LCL languages defined by excluding a finite set of bad
// balls (§4, after Naor–Stockmeyer), and global languages such as AMOS
// whose specification is not local.
package lang

import (
	"errors"
	"fmt"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
)

// Config is an input-output configuration (G, (x, y)). X and Y are indexed
// by node; entries may be empty strings but both must cover all nodes.
// Outputs are a Column: one byte slab, not one slice per node.
// Membership in a language never depends on identities, so Config
// carries none.
type Config struct {
	G *graph.Graph
	X [][]byte
	Y Column
}

// Instance is an instance (G, x, id) of a construction task (§2.2.1):
// the identity assignment determines how algorithms behave but not what
// the language contains.
type Instance struct {
	G  *graph.Graph
	X  [][]byte
	ID ids.Assignment
}

// DecisionInstance is an instance (G, (x, y), id) of a decision task.
type DecisionInstance struct {
	G  *graph.Graph
	X  [][]byte
	Y  Column
	ID ids.Assignment
}

// Config extracts the identity-free configuration under decision.
func (d *DecisionInstance) Config() *Config {
	return &Config{G: d.G, X: d.X, Y: d.Y}
}

// Errors reported by validation.
var (
	ErrShape   = errors.New("lang: per-node slice length does not match node count")
	ErrNilG    = errors.New("lang: nil graph")
	ErrPromise = errors.New("lang: configuration violates the promise")
)

// EmptyInputs returns an all-empty input assignment for n nodes.
func EmptyInputs(n int) [][]byte {
	return make([][]byte, n)
}

// NewInstance validates and assembles a construction instance.
func NewInstance(g *graph.Graph, x [][]byte, id ids.Assignment) (*Instance, error) {
	if g == nil {
		return nil, ErrNilG
	}
	if len(x) != g.N() {
		return nil, fmt.Errorf("%w: |x|=%d, n=%d", ErrShape, len(x), g.N())
	}
	if id.Len() != g.N() {
		return nil, fmt.Errorf("%w: |id|=%d, n=%d", ErrShape, id.Len(), g.N())
	}
	if err := id.Validate(); err != nil {
		return nil, err
	}
	return &Instance{G: g, X: x, ID: id}, nil
}

// WithOutput attaches a constructed output to an instance, yielding the
// decision instance that a decider will examine.
func (in *Instance) WithOutput(y Column) (*DecisionInstance, error) {
	if y.Len() != in.G.N() {
		return nil, fmt.Errorf("%w: |y|=%d, n=%d", ErrShape, y.Len(), in.G.N())
	}
	return &DecisionInstance{G: in.G, X: in.X, Y: y, ID: in.ID}, nil
}

// Validate checks structural consistency of a configuration.
func (c *Config) Validate() error {
	if c.G == nil {
		return ErrNilG
	}
	if len(c.X) != c.G.N() {
		return fmt.Errorf("%w: |x|=%d, n=%d", ErrShape, len(c.X), c.G.N())
	}
	if c.Y.Len() != c.G.N() {
		return fmt.Errorf("%w: |y|=%d, n=%d", ErrShape, c.Y.Len(), c.G.N())
	}
	return nil
}

// Promise is a predicate restricting the instances an algorithm must
// handle, such as the paper's F_k.
type Promise interface {
	Name() string
	Holds(c *Config) bool
}

// Fk is the promise of the paper (§2.2.3): configurations whose graph has
// maximum degree at most K and whose input and output strings have length
// at most K bytes... the paper bounds string length in bits; we bound in
// bytes, which only widens the finite alphabet and changes no argument.
type Fk struct {
	K int
}

// Name implements Promise.
func (f Fk) Name() string { return fmt.Sprintf("F_%d", f.K) }

// Holds implements Promise.
func (f Fk) Holds(c *Config) bool {
	if c.Validate() != nil {
		return false
	}
	if c.G.MaxDegree() > f.K {
		return false
	}
	for v := 0; v < c.G.N(); v++ {
		if len(c.X[v]) > f.K || len(c.Y.At(v)) > f.K {
			return false
		}
	}
	return true
}

// CheckPromise returns a descriptive error when the promise fails.
func CheckPromise(p Promise, c *Config) error {
	if !p.Holds(c) {
		return fmt.Errorf("%w: %s", ErrPromise, p.Name())
	}
	return nil
}
