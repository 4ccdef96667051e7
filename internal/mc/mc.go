// Package mc is the Monte-Carlo measurement harness used by every
// experiment: it runs independent Bernoulli trials on a fixed worker pool
// and reports point estimates with Wilson confidence intervals. Trials are
// indexed, and callers derive all randomness from the trial index, so
// results are reproducible and independent of parallel scheduling.
package mc

import (
	"fmt"
	"io"
	"math"
	"runtime"
)

// Estimate is the outcome of a batch of Bernoulli trials.
type Estimate struct {
	Trials    int
	Successes int
}

// P returns the point estimate of the success probability.
func (e Estimate) P() float64 {
	if e.Trials == 0 {
		return math.NaN()
	}
	return float64(e.Successes) / float64(e.Trials)
}

// Wilson returns the Wilson score interval at the given z value
// (z = 1.96 for 95%, 2.58 for 99%). Preferred over the normal interval
// because experiment probabilities sit near 0 and 1.
func (e Estimate) Wilson(z float64) (lo, hi float64) {
	if e.Trials == 0 {
		return math.NaN(), math.NaN()
	}
	n := float64(e.Trials)
	p := e.P()
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the estimate as "p=0.618 (k/n)".
func (e Estimate) String() string {
	return fmt.Sprintf("p=%.4f (%d/%d)", e.P(), e.Successes, e.Trials)
}

// closeState releases a worker state that holds external resources
// (sockets, worker-process leases): states implementing io.Closer are
// closed when their worker retires, so transports injected through
// trial-state constructors cannot leak across a trial sweep.
func closeState(s any) {
	if c, ok := s.(io.Closer); ok {
		c.Close()
	}
}

// shardGroups sizes the worker pool for shard-group execution.
func shardGroups(shards int) int {
	if shards < 1 {
		shards = 1
	}
	groups := runtime.GOMAXPROCS(0) / shards
	if groups < 1 {
		groups = 1
	}
	return groups
}
