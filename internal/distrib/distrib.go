// Package distrib provides the distributed-computing substrate used by
// sidq's scalable query experiments: spatial partitioners that map
// points to partitions, and a goroutine-backed partitioned executor.
// It reproduces the *shape* of the distributed spatial-processing
// systems the paper surveys (throughput scaling with workers,
// skew-induced imbalance) on a single machine.
package distrib

import (
	"errors"
	"hash/fnv"
	"sync"

	"sidq/internal/geo"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("distrib: executor closed")

// GridPartitioner tiles a fixed extent into nx x ny cells; each cell is
// a partition. Points outside the extent clamp to border cells. Spatial
// locality is preserved, which helps range queries but concentrates
// skewed data.
type GridPartitioner struct {
	bounds geo.Rect
	nx, ny int
}

// NewGridPartitioner returns a grid partitioner over bounds.
func NewGridPartitioner(bounds geo.Rect, nx, ny int) *GridPartitioner {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	if bounds.IsEmpty() || bounds.Area() == 0 {
		bounds = geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}
	}
	return &GridPartitioner{bounds: bounds, nx: nx, ny: ny}
}

// Partition maps a point to its cell in [0, NumPartitions()).
func (g *GridPartitioner) Partition(p geo.Point) int {
	cx := int(float64(g.nx) * (p.X - g.bounds.Min.X) / g.bounds.Width())
	cy := int(float64(g.ny) * (p.Y - g.bounds.Min.Y) / g.bounds.Height())
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cy*g.nx + cx
}

// NumPartitions returns the number of cells.
func (g *GridPartitioner) NumPartitions() int { return g.nx * g.ny }

// CellRect returns the spatial extent of partition i.
func (g *GridPartitioner) CellRect(i int) geo.Rect {
	cx, cy := i%g.nx, i/g.nx
	w, h := g.bounds.Width()/float64(g.nx), g.bounds.Height()/float64(g.ny)
	min := geo.Pt(g.bounds.Min.X+float64(cx)*w, g.bounds.Min.Y+float64(cy)*h)
	return geo.Rect{Min: min, Max: min.Add(geo.Pt(w, h))}
}

// HashPartitioner spreads points over n partitions by hashing
// quantized coordinates. It destroys locality but balances skew.
type HashPartitioner struct {
	n     int
	quant float64
}

// NewHashPartitioner returns a hash partitioner with n partitions;
// coordinates are quantized to quant meters before hashing (default 1).
func NewHashPartitioner(n int, quant float64) *HashPartitioner {
	if n < 1 {
		n = 1
	}
	if quant <= 0 {
		quant = 1
	}
	return &HashPartitioner{n: n, quant: quant}
}

// Partition maps a point to its partition in [0, NumPartitions()).
func (h *HashPartitioner) Partition(p geo.Point) int {
	hash := fnv.New64a()
	var buf [16]byte
	qx := int64(p.X / h.quant)
	qy := int64(p.Y / h.quant)
	for i := 0; i < 8; i++ {
		buf[i] = byte(qx >> (8 * i))
		buf[8+i] = byte(qy >> (8 * i))
	}
	hash.Write(buf[:])
	return int(hash.Sum64() % uint64(h.n))
}

// Executor runs tasks on a fixed pool of workers. Tasks submitted for
// the same partition run on the same worker in submission order, which
// gives partitioned state single-writer semantics without locks.
type Executor struct {
	workers []chan func()
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
}

// NewExecutor starts an executor with n workers (min 1) and the given
// per-worker queue depth.
func NewExecutor(n, queueDepth int) *Executor {
	if n < 1 {
		n = 1
	}
	if queueDepth < 1 {
		queueDepth = 64
	}
	e := &Executor{
		workers: make([]chan func(), n),
	}
	for i := range e.workers {
		ch := make(chan func(), queueDepth)
		e.workers[i] = ch
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for task := range ch {
				task()
			}
		}()
	}
	return e
}

// Submit enqueues a task for the worker owning the given partition.
func (e *Executor) Submit(partition int, task func()) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if partition < 0 {
		partition = -partition
	}
	e.workers[partition%len(e.workers)] <- task
	return nil
}

// Close stops accepting tasks, drains the queues, and waits for all
// workers to exit. It is idempotent.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, ch := range e.workers {
		close(ch)
	}
	e.wg.Wait()
}
