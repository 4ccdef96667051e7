package lang

import (
	"fmt"
)

// Language is a distributed language: a family of input-output
// configurations (§2.2.1). Contains must be independent of identities.
type Language interface {
	Name() string
	// Contains reports whether the configuration belongs to the language.
	// An error indicates a malformed configuration (shape mismatch), not
	// mere non-membership.
	Contains(c *Config) (bool, error)
}

// countSelected counts nodes whose output is exactly the selection mark.
func countSelected(c *Config) int {
	count := 0
	for v := range c.Y.Len() {
		if y := c.Y.At(v); len(y) == 1 && y[0] == Selected {
			count++
		}
	}
	return count
}

// AMOS is the language "at most one selected" of §2.3.1:
//
//	amos = { (G,(x,y)) : |{v : y(v) = ⋆}| <= 1 }.
//
// It is the canonical witness that LD ⊊ BPLD: it cannot be decided
// deterministically in D/2−1 rounds on diameter-D graphs, yet it is
// randomly decidable in zero rounds with guarantee (√5−1)/2.
type AMOS struct{}

// Name implements Language.
func (AMOS) Name() string { return "amos" }

// Contains implements Language.
func (AMOS) Contains(c *Config) (bool, error) {
	if err := c.Validate(); err != nil {
		return false, err
	}
	return countSelected(c) <= 1, nil
}

// Majority is the language requiring that a strict majority of nodes
// output the selection mark (§2.2.2's example of a language constructible
// but not decidable in constant time).
type Majority struct{}

// Name implements Language.
func (Majority) Name() string { return "majority" }

// Contains implements Language.
func (Majority) Contains(c *Config) (bool, error) {
	if err := c.Validate(); err != nil {
		return false, err
	}
	return 2*countSelected(c) > c.G.N(), nil
}

// AtLeastKSelected generalizes Majority to a fixed threshold; used as a
// non-local specification in decider stress tests.
type AtLeastKSelected struct{ K int }

// Name implements Language.
func (l AtLeastKSelected) Name() string { return fmt.Sprintf("at-least-%d-selected", l.K) }

// Contains implements Language.
func (l AtLeastKSelected) Contains(c *Config) (bool, error) {
	if err := c.Validate(); err != nil {
		return false, err
	}
	return countSelected(c) >= l.K, nil
}
