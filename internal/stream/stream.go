// Package stream provides a small event-time stream-processing engine:
// out-of-order reordering under a bounded-lateness watermark, tumbling
// windows, and keyed fan-out across lanes. It is the substrate for
// sidq's continuous queries and online cleaning over SID streams, whose
// deferred and disordered arrival is one of the quality issues the
// paper highlights.
package stream

import (
	"sort"
)

// Event is a timestamped element flowing through the engine.
type Event[T any] struct {
	Time  float64
	Value T
}

// Reorderer restores event-time order for a stream with bounded
// disorder: events are buffered until the watermark (max event time
// seen minus the allowed lateness) passes them. Events older than the
// watermark on arrival are counted as late and dropped.
type Reorderer[T any] struct {
	lateness  float64
	buf       []Event[T]
	out       []Event[T] // the last released batch; the next one reuses it
	watermark float64
	late      int
	emitted   int
}

// NewReorderer returns a reorderer tolerating the given lateness
// (seconds, >= 0).
func NewReorderer[T any](lateness float64) *Reorderer[T] {
	if lateness < 0 {
		lateness = 0
	}
	return &Reorderer[T]{lateness: lateness, watermark: negInf}
}

const negInf = -1.797693134862315708145274237317043567981e308

// Push feeds one event and returns any events released in order by the
// advanced watermark. The returned slice is the reorderer's own: it is
// valid until the next Push/Flush on this reorderer.
func (r *Reorderer[T]) Push(e Event[T]) []Event[T] {
	if e.Time < r.watermark {
		r.late++
		obsCount(&pkgObs.late, 1)
		return nil
	}
	r.insert(e)
	if wm := e.Time - r.lateness; wm > r.watermark {
		r.watermark = wm
	}
	return r.release(r.watermark)
}

func (r *Reorderer[T]) insert(e Event[T]) {
	i := sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Time > e.Time })
	r.buf = append(r.buf, Event[T]{})
	copy(r.buf[i+1:], r.buf[i:])
	r.buf[i] = e
	obsPending(1)
}

func (r *Reorderer[T]) release(upTo float64) []Event[T] {
	n := sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Time > upTo })
	if n == 0 {
		return nil
	}
	out := append(r.out[:0], r.buf[:n]...)
	r.out = out
	r.buf = r.buf[:copy(r.buf, r.buf[n:])]
	r.emitted += len(out)
	obsCount(&pkgObs.emitted, uint64(len(out)))
	obsPending(-int64(len(out)))
	return out
}

// Flush releases all remaining buffered events in order and advances
// the watermark past them: a Push after Flush with an event time at or
// before the flushed maximum is late by definition (it would otherwise
// be emitted behind events already released, breaking the engine's
// global-order guarantee). Like Push's, the returned slice is valid
// until the next Push/Flush on this reorderer: the buffer itself is
// handed out and the previous batch becomes the new buffer.
func (r *Reorderer[T]) Flush() []Event[T] {
	out := r.buf
	if n := len(out); n > 0 {
		// buf is kept time-sorted, so the maximum is the last element.
		if t := out[n-1].Time; t > r.watermark {
			r.watermark = t
		}
	}
	r.buf, r.out = r.out[:0], out
	r.emitted += len(out)
	obsCount(&pkgObs.emitted, uint64(len(out)))
	obsPending(-int64(len(out)))
	return out
}

// LateCount returns the number of events dropped as too late.
func (r *Reorderer[T]) LateCount() int { return r.late }

// Pending returns the number of buffered (not yet released) events.
func (r *Reorderer[T]) Pending() int { return len(r.buf) }

// Window is a closed time window with the events assigned to it.
type Window[T any] struct {
	Start, End float64 // [Start, End)
	Events     []Event[T]
}

// TumblingWindows assigns in-order events to fixed-width windows and
// emits each window when an event at or past its end arrives. Feed it
// events in event-time order (e.g. downstream of a Reorderer).
type TumblingWindows[T any] struct {
	width   float64
	current int64 // active window index
	buf     []Event[T]
	started bool
}

// NewTumblingWindows returns a tumbling windower of the given width in
// seconds (must be positive; defaults to 1 otherwise).
func NewTumblingWindows[T any](width float64) *TumblingWindows[T] {
	if width <= 0 {
		width = 1
	}
	return &TumblingWindows[T]{width: width}
}

func (w *TumblingWindows[T]) indexOf(t float64) int64 {
	i := int64(t / w.width)
	if t < 0 && float64(i)*w.width > t {
		i--
	}
	return i
}

// Push feeds one in-order event and returns any windows closed by it.
func (w *TumblingWindows[T]) Push(e Event[T]) []Window[T] {
	idx := w.indexOf(e.Time)
	var closed []Window[T]
	if !w.started {
		w.started = true
		w.current = idx
	}
	for idx > w.current {
		closed = append(closed, w.closeCurrent())
		w.current++
	}
	w.buf = append(w.buf, e)
	return closed
}

func (w *TumblingWindows[T]) closeCurrent() Window[T] {
	obsCount(&pkgObs.windows, 1)
	win := Window[T]{
		Start:  float64(w.current) * w.width,
		End:    float64(w.current+1) * w.width,
		Events: w.buf,
	}
	w.buf = nil
	return win
}

// Flush closes and returns the active window if it holds any events.
func (w *TumblingWindows[T]) Flush() []Window[T] {
	if len(w.buf) == 0 {
		return nil
	}
	return []Window[T]{w.closeCurrent()}
}
