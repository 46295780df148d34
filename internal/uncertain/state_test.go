package uncertain

import (
	"testing"

	"sidq/internal/roadnet"
	"sidq/internal/simulate"
)

// TestOnlineMatcherStateRoundTrip: snapshot a matcher mid-stream,
// restore, feed the identical suffix to both — every future commit must
// match exactly. This is the equivalence the crash-recovery acceptance
// test builds on.
func TestOnlineMatcherStateRoundTrip(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 8, NY: 8, Spacing: 110, Jitter: 6, Seed: 11})
	snapper := roadnet.NewSnapper(g, 100)
	trip := simulate.Trips(g, simulate.TripOptions{NumObjects: 1, MinHops: 14, Speed: 11, SampleInterval: 1, Seed: 12})[0]
	noisy := simulate.AddGaussianNoise(trip, 8, 13)
	opt := MatchOptions{EmissionSigma: 12}
	const lag = 5

	for cut := 0; cut <= noisy.Len(); cut += 3 {
		orig := NewOnlineMatcher(g, snapper, opt, lag)
		for _, p := range noisy.Points[:cut] {
			orig.Push(p)
		}
		restored := NewOnlineMatcherFromState(g, snapper, opt, lag, orig.State())
		if restored.Pending() != orig.Pending() {
			t.Fatalf("cut %d: pending %d != %d", cut, restored.Pending(), orig.Pending())
		}
		var a, b []Matched
		for _, p := range noisy.Points[cut:] {
			a = append(a, orig.Push(p)...)
			b = append(b, restored.Push(p)...)
		}
		a = append(a, orig.Flush()...)
		b = append(b, restored.Flush()...)
		if len(a) != len(b) {
			t.Fatalf("cut %d: %d commits vs %d", cut, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cut %d: commit %d diverged:\n  orig     %+v\n  restored %+v", cut, i, a[i], b[i])
			}
		}
	}
}

// TestOnlineMatcherStateIsolation: State is the live lattice, read in
// place; a matcher restored from it owns a copy, so writes to the state
// afterwards do not reach it.
func TestOnlineMatcherStateIsolation(t *testing.T) {
	g := roadnet.GridCity(roadnet.GridCityOptions{NX: 5, NY: 5, Spacing: 100, Seed: 8})
	snapper := roadnet.NewSnapper(g, 100)
	trip := simulate.Trips(g, simulate.TripOptions{NumObjects: 1, MinHops: 6, Speed: 10, SampleInterval: 1, Seed: 9})[0]
	m := NewOnlineMatcher(g, snapper, MatchOptions{}, 4)
	for _, p := range trip.Points[:4] {
		m.Push(p)
	}
	st := m.State()
	if &st.Logp[0][0] != &m.logp[0][0] || &st.Pts[0] != &m.pts[0] {
		t.Fatal("State copied the lattice")
	}
	restored := NewOnlineMatcherFromState(g, snapper, MatchOptions{}, 4, st)
	for i := range st.Logp {
		for j := range st.Logp[i] {
			st.Logp[i][j] = 1e300
		}
	}
	st.Pts[0].T = -1
	for i := range restored.logp {
		for j := range restored.logp[i] {
			if restored.logp[i][j] == 1e300 {
				t.Fatal("the restored matcher aliases the lattice it was built from")
			}
		}
	}
	if restored.pts[0].T == -1 {
		t.Fatal("the restored matcher aliases the points it was built from")
	}
}
