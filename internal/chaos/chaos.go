// Package chaos provides deterministic, seeded fault injection for
// sidq's quality middleware: a FlakyStage wrapper that makes any
// pipeline stage panic, error, or stall with configured probabilities,
// a FaultySource stream wrapper that corrupts an event stream the way
// unreliable IoT devices do (drops, duplicates, stragglers, corrupted
// coordinates), and a scenario harness asserting that the core.Runner
// survives every injected failure mode. Everything is reproducible
// from a seed — chaos here is a test instrument, not randomness.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sidq/internal/core"
)

// ErrInjected is the error returned by injected stage failures; use
// errors.Is to distinguish chaos faults from organic ones.
var ErrInjected = errors.New("chaos: injected fault")

// FlakyOptions configures a FlakyStage. Probabilities are evaluated
// per attempt in the order panic, error, delay; they need not sum
// to 1.
type FlakyOptions struct {
	Seed      int64
	PanicProb float64       // probability an attempt panics
	ErrProb   float64       // probability an attempt errors
	DelayProb float64       // probability an attempt stalls for Delay
	Delay     time.Duration // stall length (default 50ms)

	// FailFirst deterministically fails the first N attempts (as
	// errors) before the probabilistic behavior takes over — the shape
	// retry tests need.
	FailFirst int
}

// FlakyStage wraps a Stage with injected faults; a FlakyStage with zero
// options is transparent.
// It is safe for concurrent attempts (the runner abandons timed-out
// attempts whose goroutines may still be running).
type FlakyStage struct {
	Inner core.Stage
	opts  FlakyOptions

	mu       sync.Mutex
	rng      *rand.Rand
	attempts int
	panics   int
	errCount int
	delays   int
}

// NewFlakyStage wraps inner with the given fault options.
func NewFlakyStage(inner core.Stage, opts FlakyOptions) *FlakyStage {
	if opts.Delay <= 0 {
		opts.Delay = 50 * time.Millisecond
	}
	return &FlakyStage{Inner: inner, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Name implements Stage.
func (s *FlakyStage) Name() string { return "flaky(" + s.Inner.Name() + ")" }

// Task implements Stage.
func (s *FlakyStage) Task() core.Task { return s.Inner.Task() }

// Traits implements Stage by forwarding the inner stage's declared
// traits: fault injection itself mutates no trajectory, so a
// replace-only inner stage stays replace-only under chaos.
func (s *FlakyStage) Traits() core.StageTraits { return s.Inner.Traits() }

// Attempts returns how many attempts have been made against the stage.
func (s *FlakyStage) Attempts() int { s.mu.Lock(); defer s.mu.Unlock(); return s.attempts }

// Injected returns the number of injected panics, errors, and delays.
func (s *FlakyStage) Injected() (panics, errs, delays int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panics, s.errCount, s.delays
}

// fault draws this attempt's fate under the lock.
func (s *FlakyStage) fault() (doPanic, doErr bool, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.attempts <= s.opts.FailFirst {
		s.errCount++
		return false, true, 0
	}
	u := s.rng.Float64()
	switch {
	case u < s.opts.PanicProb:
		s.panics++
		return true, false, 0
	case u < s.opts.PanicProb+s.opts.ErrProb:
		s.errCount++
		return false, true, 0
	case u < s.opts.PanicProb+s.opts.ErrProb+s.opts.DelayProb:
		s.delays++
		return false, false, s.opts.Delay
	}
	return false, false, 0
}

// Apply implements Stage.
func (s *FlakyStage) Apply(ctx context.Context, ds *core.Dataset) error {
	doPanic, doErr, delay := s.fault()
	if doPanic {
		panic(fmt.Sprintf("%v (stage %s)", ErrInjected, s.Inner.Name()))
	}
	if doErr {
		return fmt.Errorf("%w (stage %s)", ErrInjected, s.Inner.Name())
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return s.Inner.Apply(ctx, ds)
}

// CorruptStage is a stage that actively damages the dataset — it
// scatters trajectory points with huge coordinate noise — for testing
// the quality-regression guard. It always "succeeds".
type CorruptStage struct {
	Seed  int64
	Sigma float64 // coordinate noise in meters (default 500)
}

// Name implements Stage.
func (s CorruptStage) Name() string { return "chaos-corrupt" }

// Task implements Stage.
func (s CorruptStage) Task() core.Task { return core.FaultCorrection }

// Traits implements Stage: points are scattered in place, so the
// stage needs a deep clone.
func (s CorruptStage) Traits() core.StageTraits { return core.StageTraits{} }

// Apply implements Stage.
func (s CorruptStage) Apply(ctx context.Context, ds *core.Dataset) error {
	sigma := s.Sigma
	if sigma <= 0 {
		sigma = 500
	}
	rng := rand.New(rand.NewSource(s.Seed))
	for _, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := range tr.Points {
			tr.Points[i].Pos.X += rng.NormFloat64() * sigma
			tr.Points[i].Pos.Y += rng.NormFloat64() * sigma
		}
	}
	for i := range ds.Readings {
		ds.Readings[i].Value += rng.NormFloat64() * sigma
	}
	return nil
}

// HangStage blocks until its context is cancelled (bounded by MaxHang)
// — for testing per-stage deadlines.
type HangStage struct {
	MaxHang time.Duration // safety bound (default 5s)
}

// Name implements Stage.
func (s HangStage) Name() string { return "chaos-hang" }

// Task implements Stage.
func (s HangStage) Task() core.Task { return core.FaultCorrection }

// Traits implements Stage.
func (s HangStage) Traits() core.StageTraits { return core.StageTraits{} }

// Apply implements Stage.
func (s HangStage) Apply(ctx context.Context, ds *core.Dataset) error {
	max := s.MaxHang
	if max <= 0 {
		max = 5 * time.Second
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(max):
		return fmt.Errorf("%w: hang stage ran to its safety bound", ErrInjected)
	}
}
