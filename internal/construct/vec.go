package construct

import "rlnc/internal/local"

// Retry coloring and Cole–Vishkin step only through the engine's range
// kernel (local.VecAlgorithm): a stateless kernel on the algorithm value
// steps one worker's whole node range of every lane per pass, over flat
// state rows the batch owns (local.VecRange). Every pass takes it —
// width-1 batches, one-lane slab blocks and ragged tails included, and
// shard workers too, whose remote registry reconstructs these same
// struct values. They have no WireProcess; the frozen scalar copies the
// differential suite compares them against live in internal/shardtest's
// test code. The other construction algorithms are ProcessAlgorithms.
var (
	_ local.VecAlgorithm = retryAlgo{}
	_ local.VecAlgorithm = ColeVishkin{}
)
