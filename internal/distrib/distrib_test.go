package distrib

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sidq/internal/geo"
)

func TestGridPartitionerCoversAndClamps(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}
	p := NewGridPartitioner(bounds, 4, 4)
	if p.NumPartitions() != 16 {
		t.Fatalf("partitions = %d", p.NumPartitions())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		pt := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		part := p.Partition(pt)
		if part < 0 || part >= 16 {
			t.Fatalf("partition out of range: %d", part)
		}
		if !p.CellRect(part).Contains(pt) {
			t.Fatalf("point %v not in cell %d rect %v", pt, part, p.CellRect(part))
		}
	}
	// Outside points clamp.
	if got := p.Partition(geo.Pt(-50, -50)); got != 0 {
		t.Fatalf("clamp low = %d", got)
	}
	if got := p.Partition(geo.Pt(500, 500)); got != 15 {
		t.Fatalf("clamp high = %d", got)
	}
}

func TestGridPartitionerLocality(t *testing.T) {
	p := NewGridPartitioner(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}, 10, 10)
	a := p.Partition(geo.Pt(5, 5))
	b := p.Partition(geo.Pt(6, 6))
	if a != b {
		t.Fatal("nearby points should share a cell")
	}
}

func TestHashPartitionerBalanceUnderSkew(t *testing.T) {
	// All points in one tiny hot spot: grid concentrates them in one
	// partition; hash (with fine quantization) spreads them.
	grid := NewGridPartitioner(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, 4, 4)
	hash := NewHashPartitioner(16, 0.5)
	rng := rand.New(rand.NewSource(2))
	gridCounts := make([]int, 16)
	hashCounts := make([]int, 16)
	for i := 0; i < 4000; i++ {
		pt := geo.Pt(rng.Float64()*30, rng.Float64()*30) // hot corner
		gridCounts[grid.Partition(pt)]++
		hashCounts[hash.Partition(pt)]++
	}
	gmax, hmax := 0, 0
	for i := 0; i < 16; i++ {
		if gridCounts[i] > gmax {
			gmax = gridCounts[i]
		}
		if hashCounts[i] > hmax {
			hmax = hashCounts[i]
		}
	}
	if gmax != 4000 {
		t.Fatalf("grid should concentrate skew, max = %d", gmax)
	}
	if hmax > 1000 {
		t.Fatalf("hash failed to spread skew, max = %d", hmax)
	}
}

func TestHashPartitionerDeterministic(t *testing.T) {
	h := NewHashPartitioner(8, 1)
	pt := geo.Pt(123.4, 567.8)
	if h.Partition(pt) != h.Partition(pt) {
		t.Fatal("hash partition not deterministic")
	}
}

func TestExecutorRunsAllTasks(t *testing.T) {
	e := NewExecutor(4, 16)
	var count int64
	var wg sync.WaitGroup
	for i := 0; i < 1000; i++ {
		wg.Add(1)
		i := i
		if err := e.Submit(i, func() {
			atomic.AddInt64(&count, 1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	e.Close()
	if count != 1000 {
		t.Fatalf("ran %d tasks", count)
	}
}

func TestExecutorPartitionAffinitySerializes(t *testing.T) {
	// Tasks on the same partition must run in order on one goroutine:
	// an unsynchronized counter must end exactly at N.
	e := NewExecutor(8, 32)
	counter := 0
	var wg sync.WaitGroup
	const n = 2000
	for i := 0; i < n; i++ {
		wg.Add(1)
		if err := e.Submit(7, func() {
			counter++ // safe only if same-partition tasks serialize
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	e.Close()
	if counter != n {
		t.Fatalf("counter = %d, want %d (affinity broken)", counter, n)
	}
}

func TestExecutorCloseIdempotentAndRejects(t *testing.T) {
	e := NewExecutor(2, 4)
	e.Close()
	e.Close() // must not panic
	if err := e.Submit(0, func() {}); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestExecutorNegativePartition(t *testing.T) {
	e := NewExecutor(2, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	if err := e.Submit(-5, func() { wg.Done() }); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	e.Close()
}
