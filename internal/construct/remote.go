package construct

import (
	"fmt"

	"rlnc/internal/local"
)

// This file makes the construction algorithms process-portable: each
// registers a builder under a stable key so a shard-worker process
// (`rlnc shard-worker`) reconstructs an identical algorithm from the
// orchestrator's (key, params) pair, and implements RemoteSpec so remote
// sharded executors recognize it. Registration and reconstruction run in
// the same binary, so the mapping cannot skew.

func init() {
	local.RegisterRemoteAlgorithm("retry-coloring", func(p []int64) (local.WireAlgorithm, error) {
		if len(p) != 2 {
			return nil, fmt.Errorf("construct: retry-coloring wants (q, t), got %d params", len(p))
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
