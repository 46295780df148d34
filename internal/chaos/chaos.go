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
	"sidq/internal/stid"
	"sidq/internal/trajectory"
)

// ErrInjected is the error returned by injected stage failures; use
// errors.Is to distinguish chaos faults from organic ones.
var ErrInjected = errors.New("chaos: injected fault")

// FlakyOptions configures a FlakyStage. Probabilities are evaluated
// per call in the order panic, error, delay; they need not sum to 1.
type FlakyOptions struct {
	Seed      int64
	PanicProb float64       // probability a call panics
	ErrProb   float64       // probability a call errors
	DelayProb float64       // probability a call stalls for Delay
	Delay     time.Duration // stall length (default 50ms)
}

// FlakyStage wraps a Stage with injected faults; a FlakyStage with zero
// options is transparent. Its counters are safe to read while a call
// the runner abandoned on cancellation is still running.
type FlakyStage struct {
	Inner core.Stage
	opts  FlakyOptions

	mu       sync.Mutex
	rng      *rand.Rand
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

// Injected returns the number of injected panics, errors, and delays.
func (s *FlakyStage) Injected() (panics, errs, delays int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panics, s.errCount, s.delays
}

// fault draws this call's fate under the lock.
func (s *FlakyStage) fault() (doPanic, doErr bool, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
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

// CleanPoints implements Stage: the call draws its fault, then hands
// the trajectory to the inner stage.
func (s *FlakyStage) CleanPoints(ctx context.Context, run *core.StageRun, tr *trajectory.Trajectory, dst []trajectory.Point) ([]trajectory.Point, error) {
	if err := s.inject(ctx); err != nil {
		return nil, err
	}
	return s.Inner.CleanPoints(ctx, run, tr, dst)
}

// CleanReadings implements Stage, drawing a fault as CleanPoints does.
func (s *FlakyStage) CleanReadings(ctx context.Context, run *core.StageRun, rs []stid.Reading) ([]stid.Reading, error) {
	if err := s.inject(ctx); err != nil {
		return nil, err
	}
	return s.Inner.CleanReadings(ctx, run, rs)
}

// inject draws one call's fault and acts it out: a panic, an error, or
// a stall that ctx cuts short.
func (s *FlakyStage) inject(ctx context.Context) error {
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
	return nil
}
