package uquery

import (
	"sort"
	"sync"

	"sidq/internal/distrib"
	"sidq/internal/geo"
	"sidq/internal/index"
)

// DistStore is a partitioned point store for scale-out range queries:
// a spatial partitioner routes each point to a partition, which indexes
// its points in an index.Grid over its cell, and queries fan out to the
// partitions on a worker pool. A point outside the bounds lands in the
// border partition the partitioner clamps it to, and a query visits
// every partition its corners clamp to, so it finds every stored point.
// It reproduces the architecture (and the scaling shape) of distributed
// spatial stores on a single machine.
type DistStore struct {
	part   *distrib.GridPartitioner
	nx     int // partitions per row
	exec   *distrib.Executor
	parts  []distPart
	closed bool
}

// distPart is one partition: its points, a grid of their indices, and
// the lock its tasks take (same-partition tasks serialize anyway).
type distPart struct {
	mu     sync.Mutex
	points []PointEvent
	grid   *index.Grid
}

// NewDistStore creates a store over bounds with nx x ny partitions and
// the given worker count.
func NewDistStore(bounds geo.Rect, nx, ny, workers int) *DistStore {
	part := distrib.NewGridPartitioner(bounds, nx, ny)
	s := &DistStore{
		part:  part,
		nx:    max(nx, 1),
		exec:  distrib.NewExecutor(workers, 256),
		parts: make([]distPart, part.NumPartitions()),
	}
	for i := range s.parts {
		cell := part.CellRect(i)
		size := cell.Width() / 10
		if size <= 0 {
			size = 1
		}
		s.parts[i].grid = index.NewGrid(cell, size, 1<<16)
	}
	return s
}

// InsertBatch inserts points and waits for them to be indexed.
func (s *DistStore) InsertBatch(points []PointEvent) error {
	var wg sync.WaitGroup
	for _, e := range points {
		p := s.part.Partition(e.Pos)
		dp := &s.parts[p]
		wg.Add(1)
		if err := s.exec.Submit(p, func() {
			dp.mu.Lock()
			dp.grid.Insert(len(dp.points), geo.Rect{Min: e.Pos, Max: e.Pos})
			dp.points = append(dp.points, e)
			dp.mu.Unlock()
			wg.Done()
		}); err != nil {
			wg.Done()
			return err
		}
	}
	wg.Wait()
	return nil
}

// Range fans the query out to every partition a stored point in rect
// can have been routed to and merges the results, sorted by id for
// determinism.
func (s *DistStore) Range(rect geo.Rect) ([]PointEvent, error) {
	results := make([][]PointEvent, len(s.parts))
	lo, hi := s.part.Partition(rect.Min), s.part.Partition(rect.Max)
	var wg sync.WaitGroup
	for py := lo / s.nx; py <= hi/s.nx; py++ {
		for px := lo % s.nx; px <= hi%s.nx; px++ {
			p := py*s.nx + px
			dp := &s.parts[p]
			wg.Add(1)
			if err := s.exec.Submit(p, func() {
				dp.mu.Lock()
				for _, c := range dp.grid.RectCells(rect, nil) {
					for _, i := range dp.grid.Cell(c) {
						if e := dp.points[i]; rect.Contains(e.Pos) {
							results[p] = append(results[p], e)
						}
					}
				}
				dp.mu.Unlock()
				wg.Done()
			}); err != nil {
				wg.Done()
				return nil, err
			}
		}
	}
	wg.Wait()
	var out []PointEvent
	for _, r := range results {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Close stops the worker pool.
func (s *DistStore) Close() {
	if !s.closed {
		s.closed = true
		s.exec.Close()
	}
}
