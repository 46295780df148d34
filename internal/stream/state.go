package stream

// Snapshot/restore support for stream-session durability: the session
// engine writes a reorderer's state into its WAL snapshot records so a
// crash-restarted session resumes with an identical watermark and
// pending buffer (see DESIGN.md "Durability & recovery").

// ReordererState is a reorderer's complete state, field by field, as a
// snapshot record carries it.
type ReordererState[T any] struct {
	Lateness  float64
	Buf       []Event[T] // pending events, time-sorted
	Watermark float64
	Late      int
	Emitted   int
}

// State returns the reorderer's complete state without copying it: Buf
// is the live buffer, valid until the next Push or Flush, and is only
// to be read.
func (r *Reorderer[T]) State() ReordererState[T] {
	return ReordererState[T]{
		Lateness:  r.lateness,
		Buf:       r.buf,
		Watermark: r.watermark,
		Late:      r.late,
		Emitted:   r.emitted,
	}
}

// NewReordererFromState rebuilds a reorderer that behaves identically
// to the one State was called on: same watermark, same pending events,
// same counters. The buffer is copied; st keeps no hold on it.
func NewReordererFromState[T any](st ReordererState[T]) *Reorderer[T] {
	r := NewReorderer[T](st.Lateness)
	r.buf = append([]Event[T](nil), st.Buf...)
	if st.Watermark > r.watermark {
		r.watermark = st.Watermark
	}
	r.late = st.Late
	r.emitted = st.Emitted
	obsPending(int64(len(r.buf)))
	return r
}
