package construct

import "rlnc/internal/local"

// The wire algorithms below also implement the engine's lane-vectorized
// stepping seam (local.VecAlgorithm): a stateless kernel on the
// algorithm value steps one worker's whole node range of every lane per
// pass, over flat state rows the batch owns (local.VecRange). Every
// pass of two or more lanes picks the kernel up automatically — through
// the remote registry too, which reconstructs these same struct values
// on shard workers — and the scalar WireProcess remains the one-lane
// path (width-1 batches, one-lane slab blocks) and the local.ScalarOnly
// reference the differential suite pins byte-identical outputs against.
var (
	_ local.VecAlgorithm = retryAlgo{}
	_ local.VecAlgorithm = ColeVishkin{}
)
