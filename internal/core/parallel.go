package core

// Stage execution. Every stage runs as one or more shards, each with
// the full clone -> attempt -> retry/backoff contract. A stage that
// declares StageTraits.Shardable on a runner with a worker pool runs
// over disjoint contiguous trajectory shards concurrently: a hard shard
// failure cancels its siblings (errgroup-style), and shard results
// merge back in trajectory order so the output is byte-identical to
// the serial path for deterministic stages. Readings travel with shard
// 0 only, mirroring the single readings pass a serial stage performs.
// Any other stage is the one-shard case over the whole dataset.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sidq/internal/quality"
	"sidq/internal/trajectory"
)

// ParallelRunner returns a runner with the default skip-stage policy
// that executes shardable stages and quality assessment across the
// given number of workers (workers <= 0 selects runtime.NumCPU()).
// For every worker count the run produces the same datasets, reports,
// and rollback decisions as the serial DefaultRunner, as long as the
// stages themselves are deterministic; only wall-clock time changes.
func ParallelRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Runner{Policy: SkipStage, Workers: workers}
}

// workerCount resolves the runner's Workers setting: 0 and 1 mean
// serial, negative selects runtime.NumCPU().
func (r *Runner) workerCount() int {
	switch {
	case r.Workers < 0:
		return runtime.NumCPU()
	case r.Workers == 0:
		return 1
	}
	return r.Workers
}

// cloneForStage returns the per-attempt working copy of ds for st: a
// copy-on-write clone when the stage declares it only replaces
// trajectory entries, a deep clone otherwise.
func cloneForStage(ds *Dataset, st Stage) *Dataset {
	if st.Traits().ReplacesTrajectories {
		return ds.CloneCOW()
	}
	return ds.Clone()
}

// shardDataset splits ds into up to k contiguous trajectory shards.
// Every shard is a view: it shares trajectory pointers (and the
// assessment context) with ds; stages only ever see per-attempt clones
// of a shard, never the view itself. Readings ride on shard 0 alone so
// a readings pass happens exactly once, as in the serial path.
func shardDataset(ds *Dataset, k int) []*Dataset {
	n := len(ds.Trajectories)
	if k > n {
		k = n
	}
	shards := make([]*Dataset, k)
	base, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		s := *ds
		s.Trajectories = ds.Trajectories[lo : lo+size : lo+size]
		if i != 0 {
			s.Readings = nil
		}
		shards[i] = &s
		lo += size
	}
	return shards
}

// shardOut is one shard's terminal state: the post-stage shard and nil
// or a *PartialError on success, a hard error (and no dataset) on
// failure.
type shardOut struct {
	ds       *Dataset
	err      error
	attempts int
}

// runStage executes one stage over cur and returns the (possibly new)
// dataset and the report; on failure, skip or rollback the caller keeps
// cur. The stage runs sharded when the runner has a pool, the stage
// declared trajectory-locality and there is more than one trajectory
// to split; otherwise cur is the only shard, jitter draws straight
// from Runner.Rand, and no shard metrics or trace events are emitted.
// A hard failure in any shard fails the stage as a whole — a failed
// stage contributes nothing. The results are named so the deferred
// duration-stamping and observation see the report actually returned.
func (r *Runner) runStage(ctx context.Context, st Stage, cur *Dataset, before quality.Assessment) (out *Dataset, rep StageReport) {
	rep = StageReport{
		Stage:  st.Name(),
		Task:   st.Task(),
		Before: before,
	}
	start := time.Now()
	defer func() {
		rep.Duration = time.Since(start)
		r.observeStage(&rep)
	}()

	shards, rngs, what := []*Dataset{cur}, []*rand.Rand{r.Rand}, "attempt"
	if k := r.workerCount(); k > 1 && st.Traits().Shardable && len(cur.Trajectories) >= 2 {
		shards, what = shardDataset(cur, k), "shard attempt"
		// Per-shard jitter RNGs are derived before any worker starts so
		// the parent RNG stream is consumed in a spawn-order-independent
		// way.
		rngs = make([]*rand.Rand, len(shards))
		if r.Rand != nil {
			for i := range rngs {
				rngs[i] = rand.New(rand.NewSource(r.Rand.Int63()))
			}
		}
	}
	sharded := len(shards) > 1

	outs := make([]shardOut, len(shards))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	spawned := time.Now()
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			began := time.Now()
			outs[i] = r.runShard(runCtx, st, shards[i], rngs[i], what)
			if sharded {
				r.obsShard(st.Name(), i, began.Sub(spawned), time.Since(began))
			}
			if err := outs[i].err; err != nil && !isPartial(err) {
				cancel() // a failed shard cancels its siblings
			}
		}(i)
	}
	wg.Wait()

	for i := range outs {
		if outs[i].attempts > rep.Attempts {
			rep.Attempts = outs[i].attempts
		}
	}
	// Prefer reporting a genuine failure over a sibling's cancellation
	// echo.
	var hardErr error
	for i := range outs {
		if e := outs[i].err; e != nil && !isPartial(e) {
			if hardErr == nil {
				hardErr = e
			}
			if !errors.Is(e, context.Canceled) {
				hardErr = e
				break
			}
		}
	}
	if hardErr != nil {
		rep.Err = hardErr
		if r.Policy == SkipStage || r.Policy == RollbackStage {
			rep.Skipped = true
			r.event(st.Name(), "skipped after %d attempts: %v", rep.Attempts, hardErr)
			r.obsSkip(st.Name(), rep.Attempts, hardErr)
		}
		return cur, rep
	}

	work, err := mergeShards(cur, st.Name(), outs)
	rep.Err = err
	if pe := (*PartialError)(nil); errors.As(err, &pe) {
		rep.Meta = map[string]int{"failed": pe.Failed, "total": pe.Total}
	}
	rep.After = work.AssessN(r.workerCount())
	if r.Policy == RollbackStage {
		if worse := r.regressions(rep.After, before); len(worse) > 0 {
			rep.RolledBack = true
			r.event(st.Name(), "rolled back: regressed %v", worse)
			r.obsRollback(st.Name())
			return cur, rep
		}
	}
	return work, rep
}

// mergeShards folds successful shard results into the post-stage
// dataset and its degraded-success error, if any. One shard is its own
// result. Several merge deterministically — trajectories in shard
// (= original) order, readings from the shard that carried them — and
// their partial errors fold into one dataset-level PartialError: all
// built-in partially-failing stages denominate Total in trajectories,
// so clean shards contribute their trajectory count, matching what the
// serial stage would have reported.
func mergeShards(cur *Dataset, stage string, outs []shardOut) (*Dataset, error) {
	if len(outs) == 1 {
		return outs[0].ds, outs[0].err
	}
	merged := new(Dataset)
	*merged = *cur
	merged.Trajectories = make([]*trajectory.Trajectory, 0, len(cur.Trajectories))
	merged.Readings = outs[0].ds.Readings
	var failed, total int
	var last error
	sawPartial := false
	for i := range outs {
		merged.Trajectories = append(merged.Trajectories, outs[i].ds.Trajectories...)
		if pe := (*PartialError)(nil); errors.As(outs[i].err, &pe) {
			sawPartial = true
			failed += pe.Failed
			total += pe.Total
			if pe.Last != nil {
				last = pe.Last
			}
		} else {
			total += len(outs[i].ds.Trajectories)
		}
	}
	if !sawPartial {
		return merged, nil
	}
	return merged, &PartialError{Stage: stage, Failed: failed, Total: total, Last: last}
}

// runShard is the runner's one retry loop: every attempt clones the
// shard (copy-on-write when the stage allows it), so a failed or
// timed-out attempt never leaks partial mutations. It returns the
// post-stage shard on success (possibly with a PartialError), or the
// terminal error after retries are exhausted or ctx is cancelled (by
// the caller, or by a failing sibling shard). what names an attempt in
// OnEvent messages.
func (r *Runner) runShard(ctx context.Context, st Stage, shard *Dataset, rng *rand.Rand, what string) shardOut {
	attempts := r.Retry.attempts()
	var out shardOut
	for attempt := 1; attempt <= attempts; attempt++ {
		out.attempts = attempt
		work := cloneForStage(shard, st)
		err := r.attempt(ctx, st, work)
		if err == nil || isPartial(err) {
			out.ds, out.err = work, err
			return out
		}
		out.err = err
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			r.obsAttemptFailure(st.Name(), attempt, err, false)
			break // the run (or shard group) is cancelled; retrying cannot help
		}
		r.obsAttemptFailure(st.Name(), attempt, err, attempt < attempts)
		if attempt < attempts {
			if d := r.Retry.Delay(attempt, rng); d > 0 {
				sleep := r.Sleep
				if sleep == nil {
					sleep = time.Sleep
				}
				sleep(d)
			}
			r.event(st.Name(), "%s %d/%d failed, retrying: %v", what, attempt, attempts, err)
		}
	}
	return out
}
