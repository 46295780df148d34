package uquery

import (
	"sort"
	"sync"

	"sidq/internal/distrib"
	"sidq/internal/geo"
	"sidq/internal/index"
)

// DistStore is a partitioned point store for scale-out range queries:
// points are routed to per-partition grid indexes by a spatial
// partitioner, and queries fan out to the overlapping partitions on a
// worker pool. It reproduces the architecture (and the scaling shape)
// of distributed spatial stores on a single machine.
type DistStore struct {
	part   *distrib.GridPartitioner
	exec   *distrib.Executor
	grids  []*index.Grid
	mu     []sync.Mutex // per-partition; same-partition tasks serialize anyway
	closed bool
}

// NewDistStore creates a store over bounds with nx x ny partitions and
// the given worker count.
func NewDistStore(bounds geo.Rect, nx, ny, workers int) *DistStore {
	part := distrib.NewGridPartitioner(bounds, nx, ny)
	n := part.NumPartitions()
	s := &DistStore{
		part:  part,
		exec:  distrib.NewExecutor(workers, 256),
		grids: make([]*index.Grid, n),
		mu:    make([]sync.Mutex, n),
	}
	for i := range s.grids {
		cell := part.CellRect(i)
		size := cell.Width() / 10
		if size <= 0 {
			size = 1
		}
		s.grids[i] = index.NewGrid(cell, size)
	}
	return s
}

// InsertBatch inserts entries and waits for them to be indexed.
func (s *DistStore) InsertBatch(entries []index.PointEntry) error {
	var wg sync.WaitGroup
	for _, e := range entries {
		e := e
		p := s.part.Partition(e.Pos)
		wg.Add(1)
		if err := s.exec.Submit(p, func() {
			s.mu[p].Lock()
			s.grids[p].Insert(e)
			s.mu[p].Unlock()
			wg.Done()
		}); err != nil {
			wg.Done()
			return err
		}
	}
	wg.Wait()
	return nil
}

// Range fans the query out to every overlapping partition and merges
// the results (sorted by id for determinism).
func (s *DistStore) Range(rect geo.Rect) ([]index.PointEntry, error) {
	n := s.part.NumPartitions()
	results := make([][]index.PointEntry, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		if !s.part.CellRect(p).Intersects(rect) {
			continue
		}
		p := p
		wg.Add(1)
		if err := s.exec.Submit(p, func() {
			s.mu[p].Lock()
			results[p] = s.grids[p].Range(rect)
			s.mu[p].Unlock()
			wg.Done()
		}); err != nil {
			wg.Done()
			return nil, err
		}
	}
	wg.Wait()
	var out []index.PointEntry
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
