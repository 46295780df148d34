package core

import (
	"context"
	"sync"

	"sidq/internal/trajectory"
)

// columnarScratch is the per-application conversion scratch: one source
// and one destination Columns reused across every trajectory of a
// dataset (and across stage applications via the pool).
type columnarScratch struct {
	src, dst trajectory.Columns
}

var columnarScratchPool = sync.Pool{New: func() any { return new(columnarScratch) }}

// applyColumnar rewrites every trajectory of ds through a batch kernel
// over struct-of-arrays columns: src holds the trajectory, and kernel
// fills dst, which arrives with undefined contents (capacity is reused
// across trajectories, so kernels reset it). The conversion scratch is
// pooled, so a steady-state pipeline allocates only each trajectory's
// output points. Every entry is materialized fresh (the Stage
// contract), so the helper is safe on copy-on-write clones; concurrent
// pipeline runs draw independent scratch from the pool.
func applyColumnar(ctx context.Context, ds *Dataset, kernel func(dst, src *trajectory.Columns)) error {
	scr := columnarScratchPool.Get().(*columnarScratch)
	defer columnarScratchPool.Put(scr)
	for i, tr := range ds.Trajectories {
		if err := ctx.Err(); err != nil {
			return err
		}
		scr.src.FromTrajectory(tr)
		kernel(&scr.dst, &scr.src)
		ds.Trajectories[i] = scr.dst.Trajectory(tr.ID)
	}
	return nil
}
