package obs

import "testing"

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter(`x_total{a="b"}`)
	c1.Inc()
	if c2 := r.Counter(`x_total{a="b"}`); c2 != c1 {
		t.Fatal("same series name returned a different counter")
	}
	if c3 := r.Counter(`x_total{a="c"}`); c3 == c1 {
		t.Fatal("different labels returned the same counter")
	}
	if r.Histogram("h_ns") == nil || r.Gauge("g") == nil {
		t.Fatal("nil metric")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r.Gauge("dual")
}

func TestRegistryBadNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "sp ace", `x{unterminated="y"`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for name %q", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestMemSink(t *testing.T) {
	var m MemSink
	m.Record(TraceEvent{Name: "a", Kind: KindSkip, N: 1})
	m.Record(TraceEvent{Name: "a", Kind: KindSkip, N: 2})
	m.Record(TraceEvent{Name: "b", Kind: KindStage})
	if got := m.Count(KindSkip); got != 2 {
		t.Fatalf("Count(skip) = %d, want 2", got)
	}
	if got := m.CountName(KindSkip, "a"); got != 2 {
		t.Fatalf("CountName(skip, a) = %d, want 2", got)
	}
	if got := m.CountName(KindSkip, "b"); got != 0 {
		t.Fatalf("CountName(skip, b) = %d, want 0", got)
	}
	if got := len(m.Events()); got != 3 {
		t.Fatalf("Events len = %d, want 3", got)
	}
	m.Reset()
	if got := len(m.Events()); got != 0 {
		t.Fatalf("after Reset: %d events", got)
	}
}

func TestFuncSink(t *testing.T) {
	n := 0
	s := FuncSink(func(TraceEvent) { n++ })
	s.Record(TraceEvent{})
	s.Record(TraceEvent{})
	if n != 2 {
		t.Fatalf("FuncSink calls = %d, want 2", n)
	}
}
