package exp

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"sidq/internal/core"
	"sidq/internal/obs"
)

// obsRegistry is the metrics registry experiment pipelines report
// into. It is process-global (experiments have a fixed Run(seed)
// signature) and atomic so it may be read while experiments run
// concurrently. Nil (the default) leaves pipelines uninstrumented.
var obsRegistry atomic.Pointer[obs.Registry]

// SetObsRegistry installs the registry experiment pipelines record
// stage metrics into (nil detaches). Tables are unaffected; only the
// registry's contents change.
func SetObsRegistry(reg *obs.Registry) { obsRegistry.Store(reg) }

// ObsRegistry returns the registry installed by SetObsRegistry, or
// nil.
func ObsRegistry() *obs.Registry { return obsRegistry.Load() }

// pipelineRunner is the runner experiment pipelines execute on: the
// default policy with the installed registry attached.
func pipelineRunner() *core.Runner {
	return &core.Runner{Policy: core.SkipStage, Obs: ObsRegistry()}
}

// Rendered is one experiment's output, ready to print.
type Rendered struct {
	ID   string
	Name string
	Text string
}

// RunSelected runs the experiments whose upper-cased IDs appear in ids
// (nil or empty selects all), up to workerCount of them at once (<= 0
// selects runtime.NumCPU()). Results come back in All() order
// regardless of completion order, and each table is bit-identical to a
// serial run: experiments share no mutable state.
func RunSelected(seed int64, workerCount int, ids map[string]bool) []Rendered {
	if workerCount <= 0 {
		workerCount = runtime.NumCPU()
	}

	var selected []Experiment
	for _, e := range All() {
		if len(ids) == 0 || ids[strings.ToUpper(e.ID)] {
			selected = append(selected, e)
		}
	}
	out := make([]Rendered, len(selected))
	sem := make(chan struct{}, workerCount)
	var wg sync.WaitGroup
	for i, e := range selected {
		i, e := i, e
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			tb := e.Run(seed)
			out[i] = Rendered{ID: e.ID, Name: e.Name, Text: tb.Render()}
		}()
	}
	wg.Wait()
	return out
}
