package chaos

import (
	"context"
	"fmt"

	"sidq/internal/core"
	"sidq/internal/quality"
)

// Scenario is one chaos experiment: a pipeline with injected faults,
// the runner configuration it executes under, and the invariants
// Verify checks afterwards.
type Scenario struct {
	Name string
	// Stages builds a fresh (stateful) stage list per run.
	Stages func() []core.Stage
	// Runner builds the runner under test.
	Runner func() *core.Runner
	// WantErr is true when the run is expected to surface an error
	// (fail-fast scenarios); otherwise the run must complete cleanly.
	WantErr bool
	// GuardDims are the dimensions on which the final dataset must not
	// be materially worse than the input (nil = skip the check).
	GuardDims []quality.Dimension
}

// Result is what a scenario run produced, for inspection beyond the
// pass/fail of Verify.
type Result struct {
	Out     *core.Dataset
	Reports []core.StageReport
	Err     error
}

// DefaultGuardDims are the dimensions the harness guards by default:
// the ones every cleaning stage should improve or leave alone.
func DefaultGuardDims() []quality.Dimension {
	return []quality.Dimension{quality.Accuracy, quality.Consistency}
}

// Verify runs the scenario over ds and checks the resilience
// invariants: the run never panics, errors only when expected, and
// (under the skip policy) ends no worse than the input on the guarded
// dimensions. It returns the run result and the first violated
// invariant.
func Verify(ctx context.Context, sc Scenario, ds *core.Dataset) (Result, error) {
	var res Result
	stages := sc.Stages()
	r := sc.Runner()
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Errorf("runner panicked: %v", p)
			}
		}()
		res.Out, res.Reports, res.Err = r.Run(ctx, ds, stages)
	}()
	if sc.WantErr {
		if res.Err == nil {
			return res, fmt.Errorf("scenario %s: expected an error, got none", sc.Name)
		}
	} else if res.Err != nil {
		return res, fmt.Errorf("scenario %s: unexpected error: %w", sc.Name, res.Err)
	}
	if res.Out == nil {
		return res, fmt.Errorf("scenario %s: no output dataset", sc.Name)
	}
	if len(sc.GuardDims) > 0 {
		beforeA := ds.Assess()
		afterA := res.Out.Assess()
		worse := afterA.WorseThan(beforeA, 0.05)
		for _, w := range worse {
			for _, g := range sc.GuardDims {
				if w == g {
					return res, fmt.Errorf("scenario %s: output worse than input on %v (%v -> %v)",
						sc.Name, w, beforeA[w], afterA[w])
				}
			}
		}
	}
	return res, nil
}

// Suite returns the standard chaos scenarios over the given cleaning
// stages: every injected failure mode (panic, error) against the
// failure policy that must survive it, and a permanent error against
// the one that must surface it. The stages callback must return fresh
// stage values each call.
func Suite(seed int64, stages func() []core.Stage) []Scenario {
	flakyAll := func(opts FlakyOptions) func() []core.Stage {
		return func() []core.Stage {
			inner := stages()
			out := make([]core.Stage, len(inner))
			for i, st := range inner {
				o := opts
				o.Seed = seed + int64(i)
				out[i] = NewFlakyStage(st, o)
			}
			return out
		}
	}
	skip := func() *core.Runner { return &core.Runner{Policy: core.SkipStage} }
	return []Scenario{
		{
			Name:      "panic-skip",
			Stages:    flakyAll(FlakyOptions{PanicProb: 0.5}),
			Runner:    skip,
			GuardDims: DefaultGuardDims(),
		},
		{
			Name:      "error-skip",
			Stages:    flakyAll(FlakyOptions{ErrProb: 0.5}),
			Runner:    skip,
			GuardDims: DefaultGuardDims(),
		},
		{
			Name: "error-failfast",
			Stages: func() []core.Stage {
				return []core.Stage{NewFlakyStage(stages()[0], FlakyOptions{Seed: seed, ErrProb: 1})}
			},
			Runner:  func() *core.Runner { return &core.Runner{Policy: core.FailFast} },
			WantErr: true,
		},
	}
}
