package chaos

import (
	"context"
	"fmt"
	"time"

	"sidq/internal/core"
	"sidq/internal/obs"
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
	// MaxAttempts bounds the attempts any single stage report may
	// record (0 = no check) — the "retries are bounded" invariant.
	MaxAttempts int
	// GuardDims are the dimensions on which the final dataset must not
	// be materially worse than the input (nil = skip the check).
	GuardDims []quality.Dimension
	// CheckTrace, if set, receives the runner's recorded trace events
	// after the run — the hook for exact-count assertions like
	// "exactly N retries happened". Verify attaches a MemSink for it
	// unless the scenario's Runner already supplies a trace sink.
	CheckTrace func([]obs.TraceEvent) error
}

// Result is what a scenario run produced, for inspection beyond the
// pass/fail of Verify.
type Result struct {
	Out     *core.Dataset
	Reports []core.StageReport
	Err     error
	Trace   []obs.TraceEvent // events recorded by the harness sink (nil if the runner brought its own)
}

// DefaultGuardDims are the dimensions the harness guards by default:
// the ones every cleaning stage should improve or leave alone.
func DefaultGuardDims() []quality.Dimension {
	return []quality.Dimension{quality.Accuracy, quality.Consistency}
}

// Verify runs the scenario over ds and checks the resilience
// invariants: the run never panics, errors only when expected, keeps
// retries bounded, and (under skip/rollback policies) ends no worse
// than the input on the guarded dimensions. It returns the run result
// and the first violated invariant.
func Verify(ctx context.Context, sc Scenario, ds *core.Dataset) (Result, error) {
	var res Result
	p := core.NewPipeline(sc.Stages()...)
	r := sc.Runner()
	var sink *obs.MemSink
	if r.Trace == nil {
		sink = &obs.MemSink{}
		r.Trace = sink
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Errorf("runner panicked: %v", p)
			}
		}()
		res.Out, res.Reports, res.Err = p.RunContext(ctx, r, ds)
	}()
	if sink != nil {
		res.Trace = sink.Events()
	}
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
	for _, rep := range res.Reports {
		if sc.MaxAttempts > 0 && rep.Attempts > sc.MaxAttempts {
			return res, fmt.Errorf("scenario %s: stage %s used %d attempts (max %d)",
				sc.Name, rep.Stage, rep.Attempts, sc.MaxAttempts)
		}
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
	if sc.CheckTrace != nil {
		if sink == nil {
			return res, fmt.Errorf("scenario %s: CheckTrace set but the runner supplies its own trace sink", sc.Name)
		}
		if err := sc.CheckTrace(res.Trace); err != nil {
			return res, fmt.Errorf("scenario %s: trace check: %w", sc.Name, err)
		}
	}
	return res, nil
}

// Suite returns the standard chaos scenarios over the given cleaning
// stages: every injected failure mode (panic, error, stall, active
// corruption, transient flakiness) against every failure policy that
// must survive it. The stages callback must return fresh stage values
// each call.
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
	return []Scenario{
		{
			Name:        "panic-skip",
			Stages:      flakyAll(FlakyOptions{PanicProb: 0.5}),
			Runner:      func() *core.Runner { return &core.Runner{Policy: core.SkipStage} },
			MaxAttempts: 1,
			GuardDims:   DefaultGuardDims(),
		},
		{
			Name:        "error-skip",
			Stages:      flakyAll(FlakyOptions{ErrProb: 0.5}),
			Runner:      func() *core.Runner { return &core.Runner{Policy: core.SkipStage} },
			MaxAttempts: 1,
			GuardDims:   DefaultGuardDims(),
		},
		{
			Name: "error-failfast",
			Stages: func() []core.Stage {
				return []core.Stage{NewFlakyStage(stages()[0], FlakyOptions{Seed: seed, FailFirst: 1 << 30})}
			},
			Runner:  func() *core.Runner { return &core.Runner{Policy: core.FailFast} },
			WantErr: true,
		},
		{
			Name:   "transient-retry",
			Stages: flakyAll(FlakyOptions{FailFirst: 2}),
			Runner: func() *core.Runner {
				return &core.Runner{
					Policy: core.SkipStage,
					Retry:  core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond},
				}
			},
			MaxAttempts: 4,
			GuardDims:   DefaultGuardDims(),
			// FailFirst: 2 is fully deterministic: every stage fails
			// attempts 1 and 2, succeeds on 3, so the trace must hold
			// exactly two retry events per stage — not "at most", exactly.
			CheckTrace: func(evs []obs.TraceEvent) error {
				perStage := map[string]int{}
				for _, e := range evs {
					if e.Kind == obs.KindRetry {
						perStage[e.Name]++
					}
				}
				if len(perStage) == 0 {
					return fmt.Errorf("no retry events recorded")
				}
				for name, n := range perStage {
					if n != 2 {
						return fmt.Errorf("stage %s recorded %d retries, want exactly 2", name, n)
					}
				}
				return nil
			},
		},
		{
			Name: "hang-deadline",
			Stages: func() []core.Stage {
				return append([]core.Stage{HangStage{}}, stages()...)
			},
			Runner: func() *core.Runner {
				return &core.Runner{Policy: core.SkipStage, StageTimeout: 20 * time.Millisecond}
			},
			GuardDims: DefaultGuardDims(),
		},
		{
			Name: "corrupt-rollback",
			Stages: func() []core.Stage {
				return append([]core.Stage{CorruptStage{Seed: seed}}, stages()...)
			},
			Runner: func() *core.Runner {
				return &core.Runner{Policy: core.RollbackStage, GuardDims: DefaultGuardDims()}
			},
			GuardDims: DefaultGuardDims(),
		},
	}
}
