// Command benchmark is sidq's serving benchmark: four workloads over
// real loopback HTTP against an unmodified server.OpenService in this
// process, end-to-end metrics, per-layer metrics from a traced run, and
// a check of every output. See README.md beside this file.
//
//	sh benchmark/run.sh -seed 41                 every workload, every end-to-end metric
//	sh benchmark/run.sh -seed 41 -trace 1        the traced pass too: per-layer metrics and span files
//	sh benchmark/run.sh -workload clean_batch -seed 7 -seconds 10 -trace 0
//	sh benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one metric. bound is the share of the baseline's
// median by which an end-to-end metric may get worse before that counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the service sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.15},
	{"rmse_ratio", "ratio", "lower", 0.20},
}

// perLayer is one layer each. A workload that does not cross a layer
// reports 0 for it. The first three are end-to-end in kind but exist on
// three workloads only, so they cannot sit in the list above.
var perLayer = []metricDef{
	{"wal_bytes_per_point", "bytes", "lower", 0},
	{"recover_s", "s", "lower", 0},
	{"write_p99_ms", "ms", "lower", 0},

	{"server.handle_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.results_us", "us", "lower", 0},
	{"server.requests", "count", "higher", 0},
	{"server.shed", "count", "lower", 0},
	{"server.snapshots", "count", "lower", 0},
	{"server.replayed_records", "count", "lower", 0},
	{"server.retention_pass_ms", "ms", "lower", 0},

	{"stream.fanout_us", "us", "lower", 0},
	{"stream.reorder_us", "us", "lower", 0},
	{"stream.late", "count", "lower", 0},
	{"stream.emitted", "count", "higher", 0},
	{"stream.emit_ratio", "ratio", "higher", 0},

	{"store.append_us", "us", "lower", 0},
	{"store.read_us", "us", "lower", 0},
	{"store.open_s", "s", "lower", 0},
	{"store.appends", "count", "higher", 0},
	{"store.append_bytes", "bytes", "lower", 0},
	{"store.fsyncs", "count", "lower", 0},
	{"store.fsync_ms", "ms", "lower", 0},
	{"store.segments_sealed", "count", "lower", 0},
	{"store.segments_removed", "count", "higher", 0},
	{"store.disk_bytes", "bytes", "lower", 0},
	{"store.records_scanned_per_hit", "ratio", "lower", 0},

	{"index.insert_us", "us", "lower", 0},
	{"index.search_us", "us", "lower", 0},
	{"index.candidates_per_query", "count", "lower", 0},
	{"index.row_yield", "ratio", "higher", 0},

	{"uncertain.match_us", "us", "lower", 0},
	{"uncertain.matched_ratio", "ratio", "higher", 0},
	{"roadnet.knearest_us", "us", "lower", 0},
	{"roadnet.snapdists_us", "us", "lower", 0},
	{"roadnet.engine_build_s", "s", "lower", 0},
	{"roadnet.cache_hit_ratio", "ratio", "higher", 0},
	{"roadnet.heap_pops", "count", "lower", 0},
	{"roadnet.ch_many", "count", "lower", 0},
	{"roadnet.many_sweeps", "count", "lower", 0},

	{"trajectory.decode_us", "us", "lower", 0},
	{"trajectory.encode_us", "us", "lower", 0},
	{"core.plan_run_us", "us", "lower", 0},
	{"core.stages_per_op", "count", "lower", 0},
	{"quality.assess_us", "us", "lower", 0},
	{"core.dedup_us", "us", "lower", 0},
	{"core.impute_us", "us", "lower", 0},
	{"outlier.stage_us", "us", "lower", 0},
	{"refine.stage_us", "us", "lower", 0},

	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"gen.body_bytes_per_op", "bytes", "lower", 0},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print one JSON result line last (default: all four)")
	seed := fs.Int64("seed", 41, "seed of the generated feed")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run — per-layer metrics and benchmark/out/trace_<workload>.json")
	runs := fs.Int("runs", 1, "with all workloads: untraced runs per workload; result.json keeps every value")
	smoke := fs.Bool("smoke", false, "tiny sizes: every code path, every check, about a second per workload")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	rootFlag := fs.String("root", "", "checkout root (default: the directory holding BENCHMARK.json, here or one up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	root, err := findRoot(*rootFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	// Data directories live under the checkout, and go away on every way
	// out: normal return, failed check, SIGINT.
	scratch := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratch, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{
		seed: *seed, seconds: *seconds, size: fullSize,
		clients: min(maxClients, runtime.NumCPU()),
		tmp:     tmp, outDir: filepath.Join(root, "benchmark", "out"),
	}
	if *smoke {
		cfg.size = smokeSize
	}
	if *workload != "" {
		cfg.workload, cfg.trace = *workload, *trace == 1
		return runOne(ctx, cfg)
	}
	return runAll(ctx, cfg, *runs, *trace == 1)
}

// findRoot locates the checkout: the benchmark is started either from
// the root (run.sh, the driver) or from benchmark/ (go run .).
func findRoot(given string) (string, error) {
	candidates := []string{".", ".."}
	if given != "" {
		candidates = []string{given}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "BENCHMARK.json")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("BENCHMARK.json not found here or one directory up; start from the checkout root or pass -root")
}

// subDir gives each run of a set its own scratch directory.
func subDir(cfg runConfig, name string) (runConfig, error) {
	cfg.tmp = filepath.Join(cfg.tmp, name)
	return cfg, os.MkdirAll(cfg.tmp, 0o755)
}

func printMetrics(workload string, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", workload, d.name, m[d.name], d.unit)
	}
}

// runOne is the driver's entry: one workload, one run, and as the last
// line of standard output one JSON object.
func runOne(ctx context.Context, cfg runConfig) int {
	res, err := runWorkload(ctx, cfg)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		if res.attempted == 0 || ctx.Err() != nil {
			return 1 // nothing ran, or interrupted: no result to print
		}
	} else {
		printMetrics(cfg.workload, defs, res.metrics)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: err == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{res.metrics[d.name], d.unit}
	}
	b, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", jerr)
		return 1
	}
	fmt.Println(string(b))
	if err != nil {
		return 1
	}
	return 0
}

// resultFile is benchmark/out/result.json: where the numbers were
// taken, and every value of every metric.
type resultFile struct {
	Env       resultEnv                     `json:"env"`
	Workloads map[string]map[string]*series `json:"workloads"`
}

type resultEnv struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Seed       int64          `json:"seed"`
	Clients    int            `json:"clients"`
	Seconds    float64        `json:"seconds"`
	Smoke      bool           `json:"smoke,omitempty"`
	LoadShape  string         `json:"load_shape"`
	Service    map[string]any `json:"service"`
	TakenAt    string         `json:"taken_at"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// runAll is the one command that prints every metric of every
// workload and writes result.json.
func runAll(ctx context.Context, cfg runConfig, runs int, traced bool) int {
	out := resultFile{
		Env: resultEnv{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Seed: cfg.seed, Clients: cfg.clients, Seconds: cfg.seconds, Smoke: cfg.size == smokeSize,
			LoadShape: "closed loop, one keep-alive connection per client, ack-gated sessions, warm-up of a tenth of the window in the same sessions",
			Service:   configRecord(), TakenAt: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]map[string]*series{},
	}
	record := func(w string, defs []metricDef, m map[string]float64) {
		if out.Workloads[w] == nil {
			out.Workloads[w] = map[string]*series{}
		}
		for _, d := range defs {
			s := out.Workloads[w][d.name]
			if s == nil {
				s = &series{Unit: d.unit}
				out.Workloads[w][d.name] = s
			}
			s.Values = append(s.Values, m[d.name])
			s.Median = median(s.Values)
		}
	}
	passes := make([]bool, runs) // untraced runs, then the traced one
	if traced {
		passes = append(passes, true)
	}
	for _, w := range workloadNames {
		for i, trace := range passes {
			c, err := subDir(cfg, fmt.Sprintf("%s-%d", w, i))
			if err == nil {
				c.workload, c.trace = w, trace
				var res runResult
				if res, err = runWorkload(ctx, c); err == nil {
					defs := endToEnd
					if c.trace {
						defs = perLayer
					}
					record(w, defs, res.metrics)
					err = os.RemoveAll(c.tmp)
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
				return 1
			}
		}
		medians := map[string]float64{}
		for name, s := range out.Workloads[w] {
			medians[name] = s.Median
		}
		printMetrics(w, endToEnd, medians)
		if traced {
			printMetrics(w, perLayer, medians)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		if err = os.MkdirAll(cfg.outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
