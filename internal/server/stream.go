package server

// The stream and history routes (listed in the package comment): the
// HTTP shell over internal/session. An ingest chunk is point CSV rows
// "id,t,x,y" (that exact line may lead as a header), parsed fully
// before any of it is applied, so a malformed or disconnected chunk is
// rejected atomically.
//
// Each handler parses its query, decodes its body, makes one engine
// call and encodes the answer (two where an unknown session must be
// answered before a body is read or a format judged). No handler sees a
// session, its lock or the WAL; what the engine refuses comes back as a
// typed error and streamError is the one table that turns those into
// statuses.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sidq/internal/geo"
	"sidq/internal/session"
	"sidq/internal/trajectory"
)

// StreamConfig, DurabilityConfig and RetentionStats are the engine's:
// the service hands the first two over as they are.
type (
	StreamConfig     = session.StreamConfig
	DurabilityConfig = session.DurabilityConfig
	RetentionStats   = session.RetentionStats
)

const defaultLanes = 4 // lanes per session when ?lanes= is absent

// RunRetentionOnce is one retention pass as of now: what the background
// loop runs on a timer, here for operational tooling and for tests with
// a made-up clock. A no-op unless the service is durable and configured
// with a Retain duration.
func (s *Service) RunRetentionOnce(now time.Time) RetentionStats { return s.engine.Retain(now) }

// EvictIdleStreams is one janitor sweep as of now, returning how many
// sessions it reclaimed: what the background janitor runs on a timer.
func (s *Service) EvictIdleStreams(now time.Time) int { return s.engine.EvictIdle(now) }

// every runs fn on a ticker until Close: the janitor and the retention
// loop. The engine keeps no clock; these are where time enters it.
func (s *Service) every(period time.Duration, fn func(now time.Time)) {
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				fn(time.Now())
			}
		}
	}()
}

// startJanitor spawns the eviction loop once — on the first session
// open, or at startup when recovery restored sessions — so services
// that never stream pay nothing.
func (s *Service) startJanitor() {
	s.janitorOnce.Do(func() {
		s.every(s.cfg.Stream.JanitorEvery, func(now time.Time) { s.engine.EvictIdle(now) })
	})
}

// handleStream dispatches the /v1/stream/ subtree, each route with the
// request's scratch.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer sc.release()
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	switch {
	case rest == "open":
		if allowed(w, r, http.MethodPost) {
			s.handleStreamOpen(w, r, sc)
		}
	case rest == "ingest":
		if allowed(w, r, http.MethodPost) {
			s.handleStreamIngest(w, r, sc)
		}
	case strings.HasSuffix(rest, "/results"):
		if allowed(w, r, http.MethodGet) {
			s.handleStreamResults(w, r, sc, strings.TrimSuffix(rest, "/results"))
		}
	case rest != "" && !strings.Contains(rest, "/"):
		if allowed(w, r, http.MethodDelete) {
			s.handleStreamClose(w, sc, rest)
		}
	default:
		http.NotFound(w, r)
	}
}

func (s *Service) handleStreamOpen(w http.ResponseWriter, r *http.Request, sc *scratch) {
	lateness, err1 := queryFloat(r, "lateness", s.cfg.Stream.Lateness, nonNegative)
	maxSpeed, err2 := queryFloat(r, "maxspeed", 20, nonNegative)
	lanes, err3 := queryIntRange(r, "lanes", defaultLanes, 1, session.MaxLanes)
	if err := cmp.Or(err1, err2, err3); err != nil { // the first one wrong, in that order
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, err := s.engine.OpenSession(lateness, maxSpeed, lanes, time.Now())
	if err != nil {
		streamError(w, err)
		return
	}
	s.startJanitor()
	sc.writeJSON(w, http.StatusCreated, map[string]interface{}{
		"session":  id,
		"lateness": lateness,
		"maxspeed": maxSpeed,
		"lanes":    lanes,
	})
}

func (s *Service) handleStreamIngest(w http.ResponseWriter, r *http.Request, sc *scratch) {
	// Everything the query string can get wrong is answered before the
	// body is read: a bad ?seq= or an unknown session must not cost a
	// full parse first.
	id := queryValue(r, "session")
	if id == "" {
		http.Error(w, "missing query parameter session", http.StatusBadRequest)
		return
	}
	clientSeq, err := queryUint(r, "seq")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.engine.Has(id) {
		http.Error(w, "unknown session "+id, http.StatusNotFound)
		return
	}
	err = sc.parseBody(r, func(body []byte) (err error) {
		sc.events, err = parsePointChunk(sc.events, body)
		return err
	})
	if err != nil {
		bodyError(w, err)
		return
	}
	// The engine keeps nothing of the events: it copies what it needs.
	ack, err := s.engine.Ingest(id, sc.events, clientSeq, time.Now())
	if err != nil {
		streamError(w, err)
		return
	}
	w.Header().Set("X-Sidq-Session", id)
	sc.writeJSON(w, http.StatusOK, ack)
}

func (s *Service) handleStreamResults(w http.ResponseWriter, r *http.Request, sc *scratch, id string) {
	if !s.engine.Has(id) {
		http.Error(w, "unknown session "+id, http.StatusNotFound)
		return
	}
	f := queryValue(r, "flush")
	flush := f == "1" || f == "true"
	csv, err := queryFormat(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	results, srcs, err := s.engine.Drain(id, flush, time.Now())
	if err != nil {
		streamError(w, err)
		return
	}
	defer session.Results.Put(results) // the session forgot the slab at the drain
	w.Header().Set("X-Sidq-Session", id)
	w.Header().Set("X-Sidq-Drained", strconv.Itoa(len(results)))
	rb := &sc.rows
	if csv {
		// Sources in the session's first-appearance order, rows in emitted
		// order: a fully drained in-order session equals the batch path.
		w.Header().Set("Content-Type", "text/csv")
		sc.g.Grow(len(results))
		for _, res := range results {
			sc.g.Add(res.Source, res.T, res.X, res.Y)
		}
		if err := rb.writeCSV(w, &sc.g, srcs); err != nil {
			s.writeError(r, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, res := range results {
		err := rb.appendRow(rb.sourceJSON(res.Source), res.T, res.X, res.Y, res.Edge)
		if err == nil {
			err = rb.flushTo(w, trajectory.RowFlushBytes)
		}
		if err != nil {
			s.writeError(r, err)
			return
		}
	}
	if err := rb.flushTo(w, 0); err != nil {
		s.writeError(r, err)
	}
}

func (s *Service) handleStreamClose(w http.ResponseWriter, sc *scratch, id string) {
	sum, err := s.engine.CloseSession(id)
	if err != nil {
		streamError(w, err)
		return
	}
	sc.writeJSON(w, http.StatusOK, map[string]interface{}{
		"session":  sum.Session,
		"ingested": sum.Ingested,
		"emitted":  sum.Emitted,
		"late":     sum.Late,
		"outliers": sum.Outliers,
		"dropped":  sum.Dropped,
	})
}

func (s *Service) handleHistoryRange(w http.ResponseWriter, r *http.Request) {
	if !allowed(w, r, http.MethodGet) {
		return
	}
	if !s.engine.Durable() {
		http.Error(w, "history disabled: start the server with a -data directory", http.StatusNotFound)
		return
	}
	var b [6]float64
	for i, key := range [...]string{"minx", "miny", "mint", "maxx", "maxy", "maxt"} {
		def := math.Inf(-1)
		if i >= 3 {
			def = math.Inf(1)
		}
		var err error
		if b[i], err = queryFloat(r, key, def, anyNumber); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	minX, minY, minT, maxX, maxY, maxT := b[0], b[1], b[2], b[3], b[4], b[5]
	if minX > maxX || minY > maxY || minT > maxT {
		http.Error(w, "empty range: min bound exceeds max", http.StatusBadRequest)
		return
	}
	csv, err := queryFormat(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.engine.History(geo.Rect{Min: geo.Pt(minX, minY), Max: geo.Pt(maxX, maxY)}, minT, maxT)
	w.Header().Set("X-Sidq-Chunks", strconv.Itoa(h.Chunks))
	w.Header().Set("X-Sidq-History-Min-Seq", strconv.FormatUint(h.MinSeq, 10))

	sc := getScratch()
	defer sc.release()
	rb := &sc.rows
	if csv {
		// CSV groups rows per source, so the whole result set has to be
		// read — into per-source groups — before the first output byte, and
		// its size is known when the headers go out. Use ndjson for wide
		// windows.
		var points int
		points, err = h.Scan(func(src []byte, t, x, y float64) error {
			sc.g.Add(string(src), t, x, y) // Add keeps no reference to src
			return nil
		})
		if err == nil {
			w.Header().Set("X-Sidq-Points", strconv.Itoa(points))
			w.Header().Set("Content-Type", "text/csv")
			err = rb.writeCSV(w, &sc.g, sc.g.IDs())
		}
	} else {
		// ndjson rows go to the client as the row buffer fills, so the
		// engine and this handler hold one chunk record and one buffer of
		// rows whatever the window, and the row count is unknown when the
		// headers are set (no X-Sidq-Points).
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, err = h.Scan(func(src []byte, t, x, y float64) error {
			if err := rb.appendRow(rb.sourceJSONBytes(src), t, x, y, nil); err != nil {
				return err
			}
			return rb.flushTo(w, trajectory.RowFlushBytes)
		})
		if err == nil {
			err = rb.flushTo(w, 0)
		}
	}
	if err != nil {
		if rb.wrote == 0 {
			http.Error(w, "history read: "+err.Error(), http.StatusInternalServerError)
			return
		}
		// Mid-stream failure: the 200 is long gone, so the response is
		// cut, and the client sees a failed read rather than a clean end
		// short of the rows it asked for.
		s.writeError(r, err)
		panic(http.ErrAbortHandler)
	}
}

// streamError is the error→status table for what the engine refuses:
// shedding is a 429 the client should back off from; a closed, evicted
// or never-opened session is a 404 (its id names nothing); a WAL that
// could not persist the call is a 503, which tells the client the data
// was NOT accepted.
func streamError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, session.ErrSessionLimit), errors.Is(err, session.ErrLaneFull), errors.Is(err, session.ErrResultsFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, session.ErrSessionGone), errors.Is(err, session.ErrUnknownSession):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, session.ErrDurability):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// chunkIDTable is how many distinct source ids a chunk's idTable
// finds by linear scan before it moves them into a map. A map of up to
// 8 ids stays off the heap too, so the table spares an allocation only
// from 9 ids on: 1.8 kB at 16. The scan compares last bytes first, so a
// full table of ids that differ there, such as numbered ones, parses
// 1.1 times as slowly as a map would; ids that all share their last
// byte pay a full compare each, and 1.4 times (EXPERIMENTS.md).
const chunkIDTable = 16

// idTable interns a chunk's source ids: each distinct id is cloned once,
// so no event holds a view of the body. Up to chunkIDTable ids are kept
// in an array on the parser's stack and found by a linear scan; the
// first id past them moves the table into more, the chunk's map, and
// from then on the map alone is searched, so a chunk naming many
// sources costs one map lookup a row, as a map alone would, plus
// chunkIDTable inserts.
type idTable struct {
	ids [chunkIDTable]string
	n   int
}

// intern returns the chunk's one copy of id. more is empty until the
// table fills; the parser makes it, so that it can stay on the
// parser's stack as the table does.
func (t *idTable) intern(more map[string]string, id string) string {
	if len(more) > 0 {
		if src, ok := more[id]; ok {
			return src
		}
		src := strings.Clone(id)
		more[src] = src
		return src
	}
	last := id[len(id)-1]
	for _, src := range t.ids[:t.n] {
		if src[len(src)-1] == last && src == id {
			return src
		}
	}
	src := strings.Clone(id)
	if t.n < len(t.ids) {
		t.ids[t.n] = src
		t.n++
		return src
	}
	for _, s := range t.ids {
		more[s] = s
	}
	more[src] = src
	return src
}

// parsePointChunk decodes a chunk of "id,t,x,y" CSV rows (header
// optional) into events appended to dst[:0], a slab that grows with the
// rows found, not the body's newline count. The whole chunk is parsed
// before anything is applied; any malformed row rejects the chunk, and
// the slab comes back empty. The events hold one copy of each distinct
// source id and no view of body.
func parsePointChunk(dst []session.Event, body []byte) ([]session.Event, error) {
	events := dst[:0]
	var ids idTable
	more := map[string]string{}
	err := trajectory.ScanCSV(body, false, func(id string, t, x, y float64) error {
		if id == "" {
			return errors.New("empty source id")
		}
		for _, v := range [3]float64{t, x, y} {
			// A NaN event time would break the reorder buffer's ordering.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("bad point %v,%v,%v for %q: not finite", t, x, y, id)
			}
		}
		events = append(events, session.Event{
			Time:  t,
			Value: session.Sample{Src: ids.intern(more, id), Pt: trajectory.Point{T: t, Pos: geo.Pt(x, y)}},
		})
		return nil
	})
	if err != nil {
		clear(events)
		return events[:0], fmt.Errorf("parse point csv: %w", err)
	}
	return events, nil
}

// paramError reports a malformed query parameter, naming the offender
// and what would have been accepted, so the client can tell
// `maxspeed=abc` apart from a body problem.
type paramError struct {
	key, value, want string
}

func (e *paramError) Error() string {
	return fmt.Sprintf("invalid query parameter %s=%q: want %s", e.key, e.value, e.want)
}

// floatRule is what a float query parameter must satisfy, and how to
// say so. NaN satisfies none of them.
type floatRule struct {
	ok   func(v float64) bool
	want string
}

var (
	// positive: maxspeed and interval of the batch routes.
	positive = floatRule{func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }, "a positive number"}
	// nonNegative: lateness=0 is strict in-order mode and maxspeed=0
	// disables a session's speed gate.
	nonNegative = floatRule{func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }, "a number ≥ 0"}
	// anyNumber: range bounds are signed coordinates, and ±Inf is how a
	// client spells "unbounded".
	anyNumber = floatRule{func(float64) bool { return true }, "a number"}
)

// queryValue is the value url.ParseQuery gives key in r's query, read
// without building the map: the pairs split on '&', a pair holding a
// ';' or one whose key or value does not unescape is skipped, and the
// first value left under key wins. It allocates only to unescape a
// pair that holds an escape. These are the rules of url.ParseQuery in
// Go 1.24.0, which reads any number of pairs; a later toolchain that
// caps the count would answer "" past the cap where queryValue still
// reads on, and TestQueryValueMatchesParseQuery would say so.
func queryValue(r *http.Request, key string) string {
	for q := r.URL.RawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// queryFloat parses a float query parameter under rule. An empty or
// absent parameter selects the default; anything else that does not
// parse or breaks the rule is a *paramError, so callers answer 400
// rather than silently substituting the default.
func queryFloat(r *http.Request, key string, def float64, rule floatRule) (float64, error) {
	s := queryValue(r, key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || !rule.ok(v) {
		return 0, &paramError{key, s, rule.want}
	}
	return v, nil
}

// queryUint parses a non-negative integer query parameter (0 when
// absent).
func queryUint(r *http.Request, key string) (uint64, error) {
	s := queryValue(r, key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, &paramError{key, s, "a non-negative integer"}
	}
	return v, nil
}

// queryIntRange parses an integer query parameter within [lo, hi].
func queryIntRange(r *http.Request, key string, def, lo, hi int) (int, error) {
	s := queryValue(r, key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < lo || v > hi {
		return 0, &paramError{key, s, fmt.Sprintf("an integer in [%d, %d]", lo, hi)}
	}
	return v, nil
}

// queryFormat reads ?format=: ndjson unless csv.
func queryFormat(r *http.Request) (csv bool, err error) {
	switch f := queryValue(r, "format"); f {
	case "", "ndjson":
		return false, nil
	case "csv":
		return true, nil
	default:
		return false, &paramError{"format", f, "ndjson or csv"}
	}
}
