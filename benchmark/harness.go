package main

// The harness: an unmodified server.OpenService behind a net/http
// server on a loopback port in this process, keep-alive clients with
// one connection each, the closed-loop window, and the helpers that
// read the program's own counters and take kill -9 images of its data
// directory.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sidq/internal/roadnet"
	"sidq/internal/server"
	"sidq/internal/store"
)

const (
	maxClients      = 2 // the load comes from min(maxClients, nproc) goroutines
	streamLanes     = 4 // the service default
	sessionMaxSpeed = 30.0
	cleanMaxSpeed   = 30.0
	drainEvery      = 8 // chunks between GET .../results

	// fsync=batch flushes acked records to the files every 25 ms; an
	// image copied sooner after the last ack than this could miss some.
	batchSettle = 100 * time.Millisecond
)

// serviceConfig is the sidqserve flag defaults, plus what a workload
// adds: a road network, or the retention settings of history_mixed.
func serviceConfig(dir string, network *roadnet.Graph, retention bool) server.Config {
	cfg := server.Config{
		MaxBodyBytes:   32 << 20,
		MaxInFlight:    64,
		RequestTimeout: 30 * time.Second,
		Logger:         server.DiscardLogger(),
		Stream: server.StreamConfig{
			MaxSessions: 32,
			IdleTTL:     5 * time.Minute,
			Lateness:    streamLateness,
			Network:     network,
		},
		Durability: server.DurabilityConfig{
			Dir:           dir,
			Fsync:         store.FsyncBatch,
			SnapshotEvery: 16,
		},
	}
	if retention {
		// No background pass fires during a run; the one pass the
		// workload times is driven by hand.
		cfg.Durability.Retain = time.Hour
		cfg.Durability.RetainEvery = 24 * time.Hour
		cfg.Durability.SegmentBytes = 1 << 20
	}
	return cfg
}

// configRecord is what result.json says about the service settings.
func configRecord() map[string]any {
	cfg := serviceConfig("", nil, true)
	d := cfg.Durability
	return map[string]any{
		"fsync": d.Fsync.String(), "snapshot_every": d.SnapshotEvery, "lanes": streamLanes, "lateness_s": cfg.Stream.Lateness,
		"max_in_flight": cfg.MaxInFlight, "request_timeout": cfg.RequestTimeout.String(), "logger": "discard",
		"session_maxspeed": sessionMaxSpeed, "clean_maxspeed": cleanMaxSpeed,
		"history_mixed_retention": fmt.Sprintf("retain=%v retain-every=%v segment-bytes=%d", d.Retain, d.RetainEvery, d.SegmentBytes),
	}
}

// live is one running service with its listener.
type live struct {
	cfg  server.Config
	svc  *server.Service
	srv  *http.Server
	base string
	done chan error
}

func startService(cfg server.Config) (*live, error) {
	svc, err := server.OpenService(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &live{cfg: cfg, svc: svc, base: "http://" + ln.Addr().String(), done: make(chan error, 1),
		srv: &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second}}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// closes the service.
func (l *live) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
	l.svc.Close()
}

// client is one closed-loop load goroutine's HTTP side: one keep-alive
// connection, and the count of what it attempted and what failed.
type client struct {
	base      string
	hc        *http.Client
	attempted int
	failed    int
	sent      int64        // request body bytes
	body      bytes.Buffer // the last response body
	chunk     []byte       // request body scratch
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do issues one request and reads the whole response into c.body. A
// transport error, a non-2xx status or a 429 counts as failed. start
// and end bracket the round trip as the client saw it.
func (c *client) do(method, path string, body []byte) (resp *http.Response, start, end time.Time, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, start, end, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/csv")
	}
	c.attempted++
	c.sent += int64(len(body))
	start = time.Now()
	resp, err = c.hc.Do(req)
	if err == nil {
		c.body.Reset()
		_, err = c.body.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end = time.Now()
	if err != nil {
		c.failed++
		return nil, start, end, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.failed++
		return resp, start, end, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode,
			strings.TrimSpace(string(c.body.Bytes()[:min(c.body.Len(), 200)])))
	}
	return resp, start, end, nil
}

// --- the closed-loop window ----------------------------------------

// windowResult is what a measured window saw: the client-observed
// latency of every op in milliseconds, all clients together.
type windowResult struct {
	primary   []float64
	secondary []float64 // history_mixed's ingest chunks
	elapsed   time.Duration
	allocKB   float64 // TotalAlloc delta over the window
}

// recorder is what a client's op function reports into.
type recorder struct {
	primary, secondary []float64
}

func ms(start, end time.Time) float64 { return float64(end.Sub(start).Nanoseconds()) / 1e6 }

func (r *recorder) op(start, end time.Time)    { r.primary = append(r.primary, ms(start, end)) }
func (r *recorder) write(start, end time.Time) { r.secondary = append(r.secondary, ms(start, end)) }

// parallel runs fn once per client and returns the first error.
func parallel(clients int, fn func(c int) error) error {
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) { errs <- fn(c) }(c)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runWindow drives step on every client, closed loop, for warm (not
// recorded) and then measure, calling between in the gap. A client
// issues its next op only when the last one has answered. The first
// error stops every client.
func runWindow(ctx context.Context, clients int, warm, measure time.Duration, step func(client int, rec *recorder) error, between func() error) (windowResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	loop := func(d time.Duration, recs []recorder) error {
		until := time.Now().Add(d)
		return parallel(clients, func(c int) error {
			for ctx.Err() == nil && time.Now().Before(until) {
				if err := step(c, &recs[c]); err != nil {
					cancel()
					return fmt.Errorf("client %d: %w", c, err)
				}
			}
			return nil
		})
	}
	var res windowResult
	err := loop(warm, make([]recorder, clients))
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		err = between()
	}
	if err != nil {
		return res, err
	}
	recs := make([]recorder, clients)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = loop(measure, recs)
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	for _, r := range recs {
		res.primary = append(res.primary, r.primary...)
		res.secondary = append(res.secondary, r.secondary...)
	}
	if err == nil {
		err = ctx.Err()
	}
	return res, err
}

// --- the program's own counters -------------------------------------

// scrape reads GET /v1/metrics into a name -> value map. Histograms
// appear as their _sum and _count series.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counterDelta is after - before for every series.
func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumPrefix adds up every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// --- data directories ------------------------------------------------

// copyDir copies the regular files of src into a new directory dst: the
// image a kill -9 at this moment would leave behind.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
