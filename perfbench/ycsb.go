package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"clobbernvm"
	"clobbernvm/internal/clobber"
	"clobbernvm/internal/pds"
)

// ycsb-load: the paper's Fig 6/7 traffic. One closed-loop worker on slot 0
// inserts fresh 8-byte keys with 256-byte values (§5.2) into a prepopulated
// clobber hashmap built through the public clobbernvm.Create.
const (
	ycsbKeySize   = 8
	ycsbValueSize = 256
	ycsbPrepop    = 50_000
	// ycsbCountWindow is the number of measured inserts the persist and
	// allocator counters are read over: a fixed window, so the per-op
	// counts repeat exactly from run to run.
	ycsbCountWindow = 100_000
	ycsbRootSlot    = 2
)

// splitmix64 is a bijective mixer: distinct inputs give distinct keys.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

type ycsbGen struct{ mix uint64 }

func newYCSBGen(seed int64) ycsbGen {
	return ycsbGen{mix: splitmix64(uint64(seed) * 0x2545F4914F6CDD1D)}
}

func (g ycsbGen) key(i int) []byte {
	k := make([]byte, ycsbKeySize)
	binary.LittleEndian.PutUint64(k, splitmix64(uint64(i)^g.mix))
	return k
}

// value is the i-th key's 256-byte value, a pure function of (seed, i), so
// the read-back can regenerate and compare it byte for byte.
func (g ycsbGen) value(i int) []byte {
	v := make([]byte, ycsbValueSize)
	h := splitmix64(uint64(i) + g.mix)
	for o := 0; o < len(v); o += 8 {
		h = splitmix64(h)
		binary.LittleEndian.PutUint64(v[o:], h)
	}
	return v
}

// ycsbWorld is one provisioned library deployment.
type ycsbWorld struct {
	db    *clobbernvm.DB
	hm    *pds.HashMap
	store pds.Store
	eng   *clobber.Engine
}

// ycsbPoolBytes sizes the pool for the prepopulation plus the most inserts
// a run of the given length can make.
func ycsbPoolBytes(seconds float64) uint64 {
	const perInsert = 320 // heap bytes per 8 B key + 256 B value (288 used), with headroom
	maxInserts := uint64(ycsbPrepop) + uint64(seconds*ycsbMaxRate)
	return 32<<20 + maxInserts*perInsert
}

// ycsbMaxRate bounds the insert rate the pool is sized for, about 1.35 times
// what the reference machine sustains; a faster build stops its run early
// rather than run out of persistent memory.
const ycsbMaxRate = 70_000

func newYCSBWorld(cfg config, rec *recorder) (*ycsbWorld, error) {
	db, err := clobbernvm.Create(clobbernvm.Options{
		PoolSize: ycsbPoolBytes(cfg.seconds),
		Latency:  clobbernvm.DefaultLatency,
	})
	if err != nil {
		return nil, err
	}
	db.Pool().Prefault()
	var eng pds.Engine = db.Engine()
	if rec != nil {
		eng = &tracedEngine{Engine: eng, rec: rec}
	}
	h, err := pds.NewHashMap(eng, ycsbRootSlot)
	if err != nil {
		return nil, err
	}
	var store pds.Store = h
	if rec != nil {
		store = &tracedStore{Store: h, rec: rec}
	}
	g := newYCSBGen(cfg.seed)
	for i := 0; i < ycsbPrepop; i++ {
		if err := h.Insert(0, g.key(i), g.value(i)); err != nil {
			return nil, fmt.Errorf("prepopulate: %w", err)
		}
	}
	return &ycsbWorld{db: db, hm: h, store: store, eng: db.Engine()}, nil
}

// counters is a snapshot of the library's cumulative counters.
type counters struct {
	pool                           poolSnap
	engEntries, engBytes, vlogByte int64
	committed                      int64
	allocs, frees, bytes, refills  int64
}

func runYCSB(cfg config, r *report) error {
	var rec *recorder
	var setups []float64
	var w *ycsbWorld
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w = nil
			releaseMemory()
		}
		if cfg.trace {
			rec = newRecorder()
		}
		start := time.Now()
		var err error
		if w, err = newYCSBWorld(cfg, rec); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()

	g := newYCSBGen(cfg.seed)
	lat := &samples{v: make([]int64, 0, int(cfg.seconds*ycsbMaxRate))}
	maxInserts := int(cfg.seconds * ycsbMaxRate)
	var c0, c1 counters
	var hs *heapSampler
	if cfg.trace {
		hs = startHeapSampler()
	}
	gc0 := readGC()
	c0 = w.snap()
	deadline := now() + int64(cfg.seconds*1e9)
	start := now()
	n := 0
	for ; n < maxInserts; n++ {
		if n == ycsbCountWindow {
			c1 = w.snap()
		}
		i := ycsbPrepop + n
		key, val := g.key(i), g.value(i)
		t0 := now()
		if t0 >= deadline {
			break
		}
		err := w.store.Insert(0, key, val)
		t1 := now()
		if err != nil {
			r.failed++
			r.violate("insert %d: %v", i, err)
			lat.add(missed)
			continue
		}
		lat.add(t1 - t0)
	}
	elapsed := float64(now()-start) / 1e9
	rate := steadyInsertRate(lat.v)
	p99w := windowP99(lat.v) // before anything sorts lat
	gc1 := readGC()
	var heapPeak float64
	if hs != nil {
		heapPeak = hs.finish()
	}
	if n < ycsbCountWindow {
		c1 = w.snap()
	}
	window := n
	if window > ycsbCountWindow {
		window = ycsbCountWindow
	}
	r.attempted = int64(n)

	// Correctness: every inserted key reads back its exact value, and the
	// hashmap's structural invariants hold.
	for i := 0; i < ycsbPrepop+n; i++ {
		got, ok, err := w.store.Get(0, g.key(i))
		if err != nil || !ok || !bytes.Equal(got, g.value(i)) {
			r.failed++
			r.violate("read-back key %d: found=%v err=%v", i, ok, err)
		}
	}
	r.attempted += int64(ycsbPrepop + n)
	if err := w.hm.CheckInvariants(0); err != nil {
		r.violate("hashmap invariants: %v", err)
	}

	userBytes := float64(window * (ycsbKeySize + ycsbValueSize))
	d := c1.sub(c0)
	fmt.Println("ycsb-load: 1 worker, clobber hashmap, 8 B keys, 256 B values")
	line("setup_s", median(setups), "s", len(setups))
	line("ops_per_s", rate, "ops/s", n)
	line("ops_per_s (whole run)", float64(n)/elapsed, "ops/s", n)
	line("insert_p99_us (windowed)", p99w, "us", lat.n())
	latency("insert", lat)
	line("space_amp", float64(d.bytes)/userBytes, "ratio", window)
	line("failed_frac", float64(r.failed)/float64(r.attempted), "ratio", int(r.attempted))
	line("peak_rss_mb", peakRSSMiB(), "MiB", 1)
	if !cfg.trace {
		r.metric("setup_s", median(setups), "s", len(setups))
		r.metric("ops_per_s", rate, "ops/s", n)
		p50, _ := lat.pct(0.5)
		r.metric("p50_us", usOf(p50), "us", lat.n())
		r.metric("p99_us", p99w, "us", lat.n())
		r.metric("peak_rss_mb", peakRSSMiB(), "MiB", 1)
		return nil
	}
	p50, _ := lat.pct(0.5)
	l := newLayers(r)
	l.counters(d, window, window, userBytes, clobbernvm.DefaultLatency)
	l.runtime(gc0, gc1, heapPeak)
	st := collect(rec, func(uint64) bool { return true }, nil)
	l.pct("pds.insert_us_p50", &st.insert, 0.5)
	l.pct("clobber.run_us_p50", &st.run, 0.5)
	l.pct("clobber.run_us_p99", &st.run, 0.99)
	l.pct("clobber.self_us_p50", &st.runSelf, 0.5)
	l.pct("pds.body_us_p50", &st.body, 0.5)
	l.set("trace.e2e_p50_us", usOf(p50), lat.n())
	l.accounted(usOf(p50), &st.insertSelf, &st.runSelf, &st.body)
	l.close()
	rec.writeOut(traceDir, fmt.Sprintf("ycsb-load-%d.csv", cfg.seed), traceDumpSpans)
	return nil
}

func (w *ycsbWorld) snap() counters {
	es := w.eng.Stats().Snapshot()
	a, f, b, rf := w.eng.Allocator().Stats().Snapshot()
	return counters{pool: snapPool(w.db.Pool()), engEntries: es.LogEntries, engBytes: es.LogBytes,
		vlogByte: es.VLogBytes, committed: es.Committed, allocs: a, frees: f, bytes: b, refills: rf}
}

func (c counters) sub(o counters) counters {
	return counters{pool: c.pool.sub(o.pool), engEntries: c.engEntries - o.engEntries,
		engBytes: c.engBytes - o.engBytes, vlogByte: c.vlogByte - o.vlogByte, committed: c.committed - o.committed,
		allocs: c.allocs - o.allocs, frees: c.frees - o.frees, bytes: c.bytes - o.bytes,
		refills: c.refills - o.refills}
}

func (c counters) add(o counters) counters {
	return counters{pool: c.pool.add(o.pool), engEntries: c.engEntries + o.engEntries,
		engBytes: c.engBytes + o.engBytes, vlogByte: c.vlogByte + o.vlogByte, committed: c.committed + o.committed,
		allocs: c.allocs + o.allocs, frees: c.frees + o.frees, bytes: c.bytes + o.bytes,
		refills: c.refills + o.refills}
}

// steadyInsertRate is the median, over rateWindow stretches of the run, of
// the inserts completed per second, read from the per-insert latencies of a
// closed loop (each insert starts when the previous one ends). A host stall
// slows a few stretches and leaves the median alone.
func steadyInsertRate(lat []int64) float64 {
	var rates []float64
	var span int64
	count := 0
	for _, ns := range lat {
		if ns == missed {
			continue
		}
		span += ns
		count++
		if span >= int64(rateWindow) {
			rates = append(rates, float64(count)/(float64(span)/1e9))
			span, count = 0, 0
		}
	}
	return median(rates)
}
