package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterStriping(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for slot := 0; slot < 32; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(slot, 1)
			}
		}(slot)
	}
	wg.Wait()
	if got := c.Load(); got != 32000 {
		t.Fatalf("Load = %d, want 32000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// 0 and negatives land in bucket 0.
	h.Observe(0, 0)
	h.Observe(0, -5)
	// 1 is bucket 1; [2,4) bucket 2; [4,8) bucket 3.
	h.Observe(0, 1)
	h.Observe(1, 3)
	h.Observe(2, 7)
	b := h.Buckets()
	if b[0] != 2 || b[1] != 1 || b[2] != 1 || b[3] != 1 {
		t.Fatalf("buckets = %v", b[:5])
	}
	if s := h.Summary(); s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 90 values near 1µs, 10 near 1ms: p50 must sit in the 1µs decade,
	// p99 in the 1ms decade.
	for i := 0; i < 90; i++ {
		h.Observe(i, 1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(i, 1_000_000)
	}
	s := h.Summary()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 < 512 || s.P50 > 2048 {
		t.Fatalf("p50 = %d, want ~1024", s.P50)
	}
	if s.P99 < 512*1024 || s.P99 > 2*1024*1024 {
		t.Fatalf("p99 = %d, want ~1M", s.P99)
	}
	if s.Max < 1_000_000 {
		t.Fatalf("max = %d", s.Max)
	}
}

func TestHistogramP999Accuracy(t *testing.T) {
	var h Histogram
	// 10000 observations: 9990 near 1µs, 9 near 100µs, 1 near 10ms. The
	// 99.9th percentile rank (9990, zero-based) is the first of the 100µs
	// observations, so P999 must report the midpoint of the bucket holding
	// 100_000 (bucket 17, [65536,131072), midpoint 98304) — not the 1µs
	// bulk and not the 10ms max.
	for i := 0; i < 9990; i++ {
		h.Observe(i, 1000)
	}
	for i := 0; i < 9; i++ {
		h.Observe(i, 100_000)
	}
	h.Observe(0, 10_000_000)
	s := h.Summary()
	if s.Count != 10000 {
		t.Fatalf("count = %d", s.Count)
	}
	want := bucketMid(bucketOf(100_000))
	if want != 98304 {
		t.Fatalf("bucket midpoint for 100µs = %d, want 98304", want)
	}
	if s.P999 != want {
		t.Fatalf("p999 = %d, want %d", s.P999, want)
	}
	// Ordering invariant: percentiles are monotone and the tail estimate
	// sits strictly between p99 (1µs bulk) and the max (10ms outlier).
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
	if s.P99 >= s.P999 {
		t.Fatalf("p99 %d should be below p999 %d for this distribution", s.P99, s.P999)
	}
	// With every observation in one bucket, all percentiles collapse to
	// that bucket's midpoint.
	var u Histogram
	for i := 0; i < 1000; i++ {
		u.Observe(i, 3000)
	}
	us := u.Summary()
	if us.P999 != us.P50 || us.P999 != bucketMid(bucketOf(3000)) {
		t.Fatalf("uniform p999 = %d, p50 = %d", us.P999, us.P50)
	}
}

func TestRegistryReuseAndReset(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	h1 := r.Histogram("h")
	if h1 != r.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}
	c1.Add(0, 7)
	h1.Observe(0, 100)
	snap := r.Snapshot()
	if snap.Counters["a"] != 7 || snap.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	r.Reset()
	snap = r.Snapshot()
	if snap.Counters["a"] != 0 || snap.Histograms["h"].Count != 0 {
		t.Fatalf("after reset: %+v", snap)
	}
	cn, hn := r.Names()
	if len(cn) != 1 || len(hn) != 1 {
		t.Fatalf("names: %v %v", cn, hn)
	}
}

func TestRegistryConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared").Add(g, 1)
				r.Histogram("hs").Observe(g, int64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 1600 {
		t.Fatalf("shared = %d", got)
	}
}

func TestEnableGate(t *testing.T) {
	prev := Enable(false)
	defer Enable(prev)
	if Enabled() {
		t.Fatal("expected disabled")
	}
	// The probe's instruments live in the process-wide Default registry,
	// which outlives one run of this test (-count=N): check deltas.
	p := NewProbe("gate-test")
	txns0 := Default.Counter("txn.gate-test.count").Load()
	commits0 := Default.Histogram("txn.gate-test.commit_ns").Summary().Count
	sp := p.Start(0, "fn")
	sp.BeginDone(1)
	sp.ExecDone()
	sp.Committed(false)
	if n := Default.Counter("txn.gate-test.count").Load() - txns0; n != 0 {
		t.Fatalf("disabled probe recorded %d txns", n)
	}
	Enable(true)
	sp = p.Start(0, "fn")
	sp.BeginDone(2)
	sp.ExecDone()
	sp.Committed(false)
	if n := Default.Counter("txn.gate-test.count").Load() - txns0; n != 1 {
		t.Fatalf("enabled probe recorded %d txns, want 1", n)
	}
	if s := Default.Histogram("txn.gate-test.commit_ns").Summary(); s.Count-commits0 != 1 {
		t.Fatalf("commit histogram count = %d, want 1", s.Count-commits0)
	}
}

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	sp := p.Start(0, "x")
	sp.BeginDone(1)
	sp.VLogAppend(10)
	sp.ExecDone()
	sp.FlushFence(3)
	sp.Committed(true)
	sp.Aborted()
	p.LogAppend(KindLogAppend, 0, 1, 8)
	p.RecoveryEvent(0, 1, "x")
	if p.Engine() != "" {
		t.Fatal("nil probe engine name")
	}
}

func TestVarsHandler(t *testing.T) {
	prev := Enable(true)
	defer Enable(prev)
	Default.Counter("vars.test").Add(0, 3)
	h := VarsHandler(map[string]func() any{
		"pool": func() any { return map[string]int{"stores": 42} },
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if _, ok := doc["metrics"]; !ok {
		t.Fatal("missing metrics key")
	}
	if !strings.Contains(rec.Body.String(), `"stores": 42`) {
		t.Fatalf("extra var missing:\n%s", rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "vars.test") {
		t.Fatalf("counter missing:\n%s", rec.Body.String())
	}
}

func TestDebugMuxRoutes(t *testing.T) {
	ring := NewRingSink(8)
	mux := DebugMux(nil, ring)
	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/debug/trace"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", path, rec.Code)
		}
	}
}
