package core

// StageTraits declares execution properties the Runner can exploit to
// run a stage faster. The zero value is the conservative contract:
// deep-cloned inputs and strictly serial execution.
type StageTraits struct {
	// Shardable means the stage's trajectory work is trajectory-local —
	// processing trajectory i reads and writes only ds.Trajectories[i]
	// (never another trajectory, and never a dataset-wide statistic over
	// them) — and its readings work touches ds.Readings as one
	// self-contained pass. The Runner may then split the dataset into
	// disjoint contiguous trajectory shards and apply the stage to every
	// shard concurrently; the readings travel with exactly one shard.
	Shardable bool
	// ReplacesTrajectories means the stage never mutates a trajectory's
	// point slice in place: it only swaps ds.Trajectories[i] for a fresh
	// value (it may freely rewrite ds.Readings, which every clone copies
	// by value). Such stages run on cheap copy-on-write clones that
	// share trajectory pointers with the parent dataset instead of
	// deep-copying every point.
	ReplacesTrajectories bool
}

// dataParallel is the trait set shared by every built-in stage: all of
// them are trajectory-local and replace-only.
var dataParallel = StageTraits{Shardable: true, ReplacesTrajectories: true}
