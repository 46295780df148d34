package core

// StageTraits declares execution properties the Runner can exploit to
// run a stage faster. The zero value is the conservative contract:
// every attempt works on a deep clone of its input.
type StageTraits struct {
	// ReplacesTrajectories means the stage never mutates a trajectory's
	// point slice in place: it only swaps ds.Trajectories[i] for a fresh
	// value (it may freely rewrite ds.Readings, which every clone copies
	// by value). Such stages run on cheap copy-on-write clones that
	// share trajectory pointers with the parent dataset instead of
	// deep-copying every point.
	ReplacesTrajectories bool
}

// replaceOnly is the trait set shared by every built-in stage: none of
// them edits a trajectory's points in place.
var replaceOnly = StageTraits{ReplacesTrajectories: true}
