package exp

import (
	"fmt"
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

// Select resolves ids — the elements of a `sidqbench -exp` list, or a
// Figure-2 cell's Measured — against All(), ignoring case. An id that
// matches exactly selects that experiment; otherwise it selects the
// experiments whose id is it plus one letter (E1 is E1a, E1b and E1c;
// E4 is just E4, not E4b too). An id that selects nothing is an error
// naming the valid ones. The result is in All() order, each experiment
// once.
func Select(ids []string) ([]Experiment, error) {
	all := All()
	picked := make([]bool, len(all))
	for _, id := range ids {
		id = strings.ToUpper(strings.TrimSpace(id))
		var exact, family []int
		for i, e := range all {
			up := strings.ToUpper(e.ID)
			last := len(up) - 1
			switch {
			case up == id:
				exact = append(exact, i)
			case up[:last] == id && up[last] >= 'A' && up[last] <= 'Z':
				family = append(family, i)
			}
		}
		if len(exact) > 0 {
			family = exact
		}
		if len(family) == 0 {
			valid := make([]string, len(all))
			for i, e := range all {
				valid[i] = e.ID
			}
			return nil, fmt.Errorf("unknown experiment %q; the ids are %s", id, strings.Join(valid, ", "))
		}
		for _, i := range family {
			picked[i] = true
		}
	}
	var out []Experiment
	for i, e := range all {
		if picked[i] {
			out = append(out, e)
		}
	}
	return out, nil
}

// RunSelected runs the given experiments, up to workerCount of them at
// once (<= 0 selects runtime.NumCPU()). Results come back in the order
// given regardless of completion order, and each table is bit-identical
// to a serial run: experiments share no mutable state.
func RunSelected(seed int64, workerCount int, selected []Experiment) []Rendered {
	if workerCount <= 0 {
		workerCount = runtime.NumCPU()
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
