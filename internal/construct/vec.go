package construct

import "rlnc/internal/local"

// The wire algorithms below also implement the engine's lane-vectorized
// stepping seam (local.VecAlgorithm): one SoA process per node owns
// every lane's state and steps them in a single call per round. Every
// pass of two or more lanes picks the vector path up automatically —
// through the remote registry too, which reconstructs these same struct
// values on shard workers — and the scalar WireProcess remains the
// one-lane path (Engines, one-lane slab blocks) and the local.ScalarOnly
// reference the differential suite pins byte-identical outputs against.
var (
	_ local.VecAlgorithm = retryAlgo{}
	_ local.VecAlgorithm = ColeVishkin{}
)

// vecRow returns s resized to k entries, reusing the backing array when
// it fits (contents are then stale — StartVec rewrites every lane it
// uses) and allocating otherwise. Warm pooled processes never grow, so
// the steady-state trial loop stays allocation-free.
func vecRow[T any](s []T, k int) []T {
	if cap(s) >= k {
		return s[:k]
	}
	return make([]T, k)
}
