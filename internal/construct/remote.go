package construct

import (
	"errors"
	"fmt"

	"rlnc/internal/local"
)

// This file makes the construction algorithms process-portable: each
// registers a builder under a stable key so a shard-worker process
// (`rlnc shard-worker`) reconstructs an identical algorithm from the
// orchestrator's (key, params) pair, and implements RemoteSpec so remote
// sharded executors recognize it. Registration and reconstruction run in
// the same binary, so the mapping cannot skew. Parameters arrive from
// outside the process (a shipped job, a serve request), so each builder
// rejects every value its algorithm cannot run, all errors together.

func init() {
	local.RegisterRemoteAlgorithm("retry-coloring", func(p []int64) (local.WireAlgorithm, error) {
		if len(p) != 2 {
			return nil, fmt.Errorf("construct: retry-coloring wants (q, t), got %d params", len(p))
		}
		var errs []error
		if p[0] < 1 {
			errs = append(errs, fmt.Errorf("construct: retry-coloring q = %d, need q >= 1", p[0]))
		}
		if p[1] < 0 {
			errs = append(errs, fmt.Errorf("construct: retry-coloring t = %d, need t >= 0", p[1]))
		}
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		return retryAlgo{q: int(p[0]), t: int(p[1])}, nil
	})
	local.RegisterRemoteAlgorithm("luby-mis", func(p []int64) (local.WireAlgorithm, error) {
		return LubyMIS{}, nil
	})
	local.RegisterRemoteAlgorithm("edge-luby-matching", func(p []int64) (local.WireAlgorithm, error) {
		return EdgeLubyMatching{}, nil
	})
	local.RegisterRemoteAlgorithm("cole-vishkin", func(p []int64) (local.WireAlgorithm, error) {
		if len(p) != 1 {
			return nil, fmt.Errorf("construct: cole-vishkin wants (maxIDBits), got %d params", len(p))
		}
		if p[0] < 1 || p[0] > 63 {
			return nil, fmt.Errorf("construct: cole-vishkin maxIDBits = %d, need 1 <= maxIDBits <= 63", p[0])
		}
		return ColeVishkin{MaxIDBits: int(p[0])}, nil
	})
	local.RegisterRemoteAlgorithm("greedy-mis-from-coloring", func(p []int64) (local.WireAlgorithm, error) {
		if len(p) != 1 {
			return nil, fmt.Errorf("construct: greedy-mis wants (q), got %d params", len(p))
		}
		return GreedyMISFromColoring{Q: int(p[0])}, nil
	})
}

// RemoteSpec implements local.RemoteAlgorithm.
func (a retryAlgo) RemoteSpec() (string, []int64) {
	return "retry-coloring", []int64{int64(a.q), int64(a.t)}
}

// RemoteSpec implements local.RemoteAlgorithm.
func (LubyMIS) RemoteSpec() (string, []int64) { return "luby-mis", nil }

// RemoteSpec implements local.RemoteAlgorithm.
func (EdgeLubyMatching) RemoteSpec() (string, []int64) { return "edge-luby-matching", nil }

// RemoteSpec implements local.RemoteAlgorithm.
func (a ColeVishkin) RemoteSpec() (string, []int64) {
	return "cole-vishkin", []int64{int64(a.MaxIDBits)}
}

// RemoteSpec implements local.RemoteAlgorithm.
func (a GreedyMISFromColoring) RemoteSpec() (string, []int64) {
	return "greedy-mis-from-coloring", []int64{int64(a.Q)}
}
