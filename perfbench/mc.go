package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"clobbernvm/internal/memcache"
)

// Serving workloads: loopback TCP against the memcachedsim stack over two
// connections (one per CPU of the reference machine): an open-loop ladder
// of Poisson offered rates below capacity, closed-loop phases with one
// request in flight per connection, and saturating phases that keep the
// server's queue full to measure its capacity.
type mcWorkload struct {
	name     string
	poolMB   uint64
	capacity uint64
	preload  uint32 // keys [0, preload) are stored before the run
	mix      mix
	// ladder is the offered rates in ops/s, ascending, all below capacity;
	// ladder[ref] is the fixed reference rate that the open-loop reference
	// figures are read at.
	ladder []float64
	ref    int
}

const (
	mcConns = 2
	// sloLimitUS is the p99 latency limit a ladder rate must meet.
	sloLimitUS = 1000
	// lateBoundUS bounds the generator's lateness (send minus due, the
	// median over windows of the window p99). A ladder step above it is
	// invalid, because its latencies would measure the generator, not the
	// server, and so is a run whose reference rate is invalid. The other
	// steps are too short (a few windows each) for a host stall not to
	// invalidate one now and then, so they do not decide the run.
	lateBoundUS   = 200
	warmupSeconds = 0.3
	// closedConns connections send the closed-loop requests, one in flight
	// each, closedPerSecond of them per measured second of the run.
	closedConns     = 2
	closedPerSecond = 4000
	// The saturating phases keep satDepth requests in flight on each of
	// closedConns connections, satPerSecond of them per connection and
	// measured second of the run.
	satDepth     = 16
	satPerSecond = 60000
	// minGenIdle is the least share of a saturating phase the generator
	// must spend waiting for replies. A generator that is busier than that
	// may be the bottleneck itself, and the capacity it reports its own.
	minGenIdle = 0.2
	// refShare is the share of the open-loop seconds spent at the
	// reference rate; the other ladder rates split the rest.
	refShare = 0.4
)

var hotRead = mcWorkload{
	name:     "mc-hot-read",
	poolMB:   64,
	capacity: 1 << 18, // memcachedsim's default
	preload:  2048,
	mix:      mix{keys: 2048, zipfS: 1.2, getFrac: 0.9, setFrac: 0.1, valueSize: 64},
	ladder:   []float64{10e3, 20e3, 40e3, 80e3, 120e3, 160e3, 200e3},
	ref:      1,
}

func runHotRead(cfg config, r *report) error { return runServing(cfg, r, hotRead) }

// openShare is the share of the measured seconds the open-loop steps take;
// the closed-loop and saturating phases, sized in requests, take about the
// rest.
const openShare = 0.4

// steps lays out the run: a short unmeasured warm-up at the reference
// rate, then one round per ladder rate other than the reference, in
// ascending order. A round is a closed-loop phase, a phase at the reference
// rate, a step at its own rate, and a saturating phase. The closed-loop,
// reference and saturating figures pool their phases, so they sample the
// whole run rather than one stretch of it: a host busy for a second or two
// shifts one phase, not the figure.
func (w mcWorkload) steps(seconds float64) []step {
	ref := w.ladder[w.ref]
	steps := []step{{rate: ref, seconds: warmupSeconds}}
	rounds := float64(len(w.ladder) - 1)
	open := seconds * openShare / rounds
	for i, rate := range w.ladder {
		if i == w.ref {
			continue
		}
		steps = append(steps,
			step{closed: int(closedPerSecond * seconds / rounds)},
			step{rate: ref, seconds: open * refShare, measured: true, ref: true},
			step{rate: rate, seconds: open * (1 - refShare), measured: true},
			step{closed: int(satPerSecond * seconds / rounds), depth: satDepth})
	}
	return steps
}

func (w mcWorkload) preloadInto(b memcache.Backend) error {
	v := make([]byte, w.mix.valueSize)
	for k := uint32(0); k < w.preload; k++ {
		fillValue(v, 0, k, 0)
		if err := b.SetFlags(0, []byte(keyName(k)), v, 0); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func runServing(cfg config, r *report, w mcWorkload) error {
	// One extra P for the generator's event loop, which never gives its P
	// back: the server keeps every P it would have when deployed alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1))
	var rec *recorder
	var s *stack
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s = nil
			releaseMemory()
		}
		if cfg.trace {
			rec = newRecorder()
		}
		start := time.Now()
		var err error
		if s, err = newStack(w.poolMB, w.capacity, rec, cfg.hooks); err != nil {
			return err
		}
		if err := w.preloadInto(s.sup); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	defer enableObs()()

	srv, err := memcache.NewServer(s.backend, "127.0.0.1:0", mcServerConns,
		memcache.WithIdleTimeout(memcache.DefaultIdleTimeout),
		memcache.WithDrainTimeout(memcache.DefaultDrainTimeout))
	if err != nil {
		return err
	}
	defer srv.Close()
	conns := make([]net.Conn, mcConns)
	for c := range conns {
		if conns[c], err = net.Dial("tcp", srv.Addr()); err != nil {
			return err
		}
		defer conns[c].Close()
		if err := hello(conns[c], c); err != nil {
			return err
		}
	}

	steps := w.steps(cfg.seconds)
	ops := schedule(cfg.seed, w.mix, steps, mcConns)
	g, err := newGenerator(ops, steps, conns, w.mix)
	if err != nil {
		return err
	}
	g.delay = cfg.hooks.genDelay
	// starts[i] and ends[i] bracket step i's counters; the collection
	// between steps falls outside both.
	starts, ends := make([]stepSnap, len(steps)), make([]stepSnap, len(steps))
	g.onStep = func(i int) {
		if i > 0 {
			ends[i-1] = takeStepSnap(s)
		}
		if i < len(steps) {
			// Collect between steps, untimed, so each step starts from the
			// same heap state instead of inheriting its predecessor's
			// garbage.
			runtime.GC()
			starts[i] = takeStepSnap(s)
		}
	}
	var hs *heapSampler
	if cfg.trace {
		hs = startHeapSampler()
	}
	g.run()
	var heapPeak float64
	if hs != nil {
		heapPeak = hs.finish()
	}
	for _, c := range conns {
		c.Close()
	}
	srv.Close()

	if g.broken {
		r.violate("a connection broke mid-run")
	}
	validate(ops, w, r)
	r.attempted = int64(len(ops))
	if err := s.sup.CheckInvariants(); err != nil {
		r.violate("cache invariants after the run: %v", err)
	}

	res := w.summarize(steps, ops)
	fmt.Printf("%s: %d connections, open-loop ladder, closed-loop and saturating phases, %d keys, %.0f%% get / %.0f%% set / %.0f%% delete, %d B values\n",
		w.name, mcConns, w.mix.keys, w.mix.getFrac*100, w.mix.setFrac*100, math.Max(0, 1-w.mix.getFrac-w.mix.setFrac)*100, w.mix.valueSize)
	line("setup_s", median(setups), "s", len(setups))
	res.print()
	line("failed_frac", float64(r.failed)/float64(r.attempted), "ratio", int(r.attempted))
	line("peak_rss_mb", peakRSSMiB(), "MiB", 1)
	if res.lateP99 > lateBoundUS {
		r.violate("INVALID: generator late p99 %.1f us at the reference rate, above the %d us bound", res.lateP99, lateBoundUS)
	}
	if res.satIdle < minGenIdle {
		r.violate("INVALID: the generator waited for replies only %.3f of the saturating phases, under %.2f: it may be the bottleneck", res.satIdle, minGenIdle)
	}
	if !cfg.trace {
		r.metric("setup_s", median(setups), "s", len(setups))
		r.metric("ops_per_s", res.peakRate, "ops/s", res.satN)
		r.metric("p50_us", res.satP50, "us", res.satN)
		r.metric("p99_us", res.satP99, "us", res.satN)
		r.metric("peak_rss_mb", peakRSSMiB(), "MiB", 1)
		return nil
	}
	// The layers are read over the closed-loop phases: their requests meet
	// no queue and no generator lateness, so a request's latency splits
	// exactly into server, cache and engine time, and their op count is
	// fixed, so the per-op counts compare run to run.
	l := newLayers(r)
	closed := closedSteps(steps)
	var d counters
	var gc0, gc1 gcSnap
	var hits, misses, evictions int64
	var sets, userBytes, n int
	for _, si := range closed {
		st, a, b := &steps[si], starts[si], ends[si]
		d = d.add(b.c.sub(a.c))
		gc1.pauseNS += b.gc.pauseNS - a.gc.pauseNS
		gc1.cycles += b.gc.cycles - a.gc.cycles
		hits, misses, evictions = hits+b.hits-a.hits, misses+b.misses-a.misses, evictions+b.evictions-a.evictions
		n += st.n
		for _, o := range ops[st.first : st.first+st.n] {
			if o.kind == opSet {
				sets++
				userBytes += len(keyName(o.key)) + w.mix.valueSize
			}
		}
	}
	l.counters(d, n, int(d.committed), float64(userBytes), s.current().pool.Latency())
	l.runtime(gc0, gc1, heapPeak)
	if hits+misses > 0 {
		l.set("cache.hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	if sets > 0 {
		l.set("cache.evictions_per_set", float64(evictions)/float64(sets), sets)
	}
	l.set("gen.late_p50_us", res.lateP50, res.refN)
	l.set("gen.late_p99_us", res.lateP99, res.refN)
	l.set("gen.sat_idle_frac", res.satIdle, res.satN)

	client := clientLatencies(rec, g, steps)
	stats := collect(rec, func(id uint64) bool { _, ok := client[id]; return ok },
		func(id uint64) (int64, bool) { v, ok := client[id]; return v, ok })
	l.pct("server.self_us_p50", &stats.server, 0.5)
	l.pct("server.self_us_p99", &stats.server, 0.99)
	l.pct("cache.self_us_p50", &stats.cacheSelf, 0.5)
	l.pct("cache.self_us_p99", &stats.cacheSelf, 0.99)
	var busy, span float64
	for _, si := range closed {
		st := &steps[si]
		busy += stats.busyFrac(st.start, st.end) * float64(st.end-st.start)
		span += float64(st.end - st.start)
	}
	l.set("cache.busy_frac", busy/span, len(stats.busyStart))
	l.pct("clobber.run_us_p50", &stats.run, 0.5)
	l.pct("clobber.run_us_p99", &stats.run, 0.99)
	l.pct("clobber.self_us_p50", &stats.runSelf, 0.5)
	l.pct("clobber.runro_us_p50", &stats.runRO, 0.5)
	l.pct("pds.body_us_p50", &stats.body, 0.5)
	l.set("trace.e2e_p50_us", res.closedP50, res.closedN)
	engine := &samples{}
	engine.v = append(append(engine.v, stats.run.v...), stats.runRO.v...)
	l.accounted(res.closedP50, &stats.server, &stats.cacheSelf, engine)
	l.close()
	rec.writeOut(traceDir, fmt.Sprintf("%s-%d.csv", w.name, cfg.seed), traceDumpSpans)
	return nil
}

// hello sends connection c's handshake: one get of a key naming the
// connection, so a traced run can tell which server slot serves it.
func hello(conn net.Conn, c int) error {
	if _, err := fmt.Fprintf(conn, "get hello%d\r\n", c); err != nil {
		return err
	}
	buf := make([]byte, 5)
	if _, err := conn.Read(buf); err != nil || string(buf) != "END\r\n" {
		return fmt.Errorf("handshake on connection %d: %q %v", c, buf, err)
	}
	return nil
}

// stepSnap is the state of the stack's counters at a step boundary.
type stepSnap struct {
	c                       counters
	gc                      gcSnap
	hits, misses, evictions int64
}

func takeStepSnap(s *stack) stepSnap {
	h, m, e := s.sup.Counters()
	return stepSnap{c: snapInc(s.current()), gc: readGC(), hits: h, misses: m, evictions: e}
}

// clientLatencies maps the backend span id of every closed-loop request to
// its client-observed latency. The k-th request a connection sends is
// the k-th Backend call on the server slot that serves it; the slot is the
// one whose first call was the connection's handshake.
func clientLatencies(rec *recorder, g *generator, steps []step) map[uint64]int64 {
	out := map[uint64]int64{}
	for c, gc := range g.conns {
		slot := -1
		for s := range rec.slots {
			if rec.slots[s].firstKey == fmt.Sprintf("hello%d", c) {
				slot = s
			}
		}
		if slot < 0 {
			continue
		}
		for k, i := range gc.ops {
			if o := &g.ops[i]; steps[o.step].oneInFlight() {
				// +2: the handshake is call 1, the connection's first
				// request call 2.
				out[uint64(slot)<<slotShift|uint64(k+2)] = latencyOf(o)
			}
		}
	}
	return out
}

// closedSteps returns the indexes of the closed-loop phases with one
// request in flight per connection.
func closedSteps(steps []step) []int {
	var out []int
	for i := range steps {
		if steps[i].oneInFlight() {
			out = append(out, i)
		}
	}
	return out
}

// satSteps returns the saturating phases.
func satSteps(steps []step) []*step {
	var out []*step
	for i := range steps {
		if steps[i].depth > 1 {
			out = append(out, &steps[i])
		}
	}
	return out
}

// lateness is how long after its due time the generator sent a request.
func lateness(o *op) int64 { return o.sent - o.due }

// latencyOf is a request's latency from its due time; a failed, refused
// or wrong reply misses every limit.
func latencyOf(o *op) int64 {
	if o.res == resNone || o.res == resError || o.bad != badNone {
		return missed
	}
	return o.done - o.due
}

// windowSize is the number of consecutive requests one tail-latency window
// holds: its p99 has ten samples beyond it.
const windowSize = 1000

// windowP99 is the median, over consecutive windows of windowSize values
// (in due-time order), of each window's p99. A virtual machine's occasional
// multi-millisecond stalls (host preemption) land in a few windows and leave
// the median alone, so the figure measures the server's own tail; the
// whole-step tail is printed beside it.
func windowP99(vals []int64) float64 {
	var ps []float64
	for i := 0; i+windowSize <= len(vals); i += windowSize {
		s := samples{v: append([]int64(nil), vals[i:i+windowSize]...)}
		v, _ := s.pct(0.99)
		ps = append(ps, usOf(v))
	}
	return median(ps)
}

// rateWindow is the window a steady completion rate is counted in.
const rateWindow = 10 * time.Millisecond

// steadyRate is the interquartile mean, over rateWindow windows of the
// steps (the first and last of each left out), of the replies completed per
// second. A host stall empties a few windows and leaves the middle half
// alone. Steps too short for windows give their plain completion rate.
func steadyRate(ops []op, sts []*step) float64 {
	var rates []float64
	var total int
	var dur int64
	for _, st := range sts {
		total += st.n
		dur += st.end - st.start
		n := int((st.end - st.start) / int64(rateWindow))
		if n < 3 {
			continue
		}
		counts := make([]int, n)
		for i := st.first; i < st.first+st.n; i++ {
			if w := int((ops[i].done - st.start) / int64(rateWindow)); ops[i].done > 0 && w >= 0 && w < n {
				counts[w]++
			}
		}
		for _, c := range counts[1 : n-1] {
			rates = append(rates, float64(c)/rateWindow.Seconds())
		}
	}
	if len(rates) < 4 {
		return float64(total) / (float64(max(dur, 1)) / 1e9)
	}
	sort.Float64s(rates)
	mid := rates[len(rates)/4 : len(rates)-len(rates)/4]
	var sum float64
	for _, r := range mid {
		sum += r
	}
	return sum / float64(len(mid))
}

// stepResult summarizes one ladder step.
type stepResult struct {
	rate, achieved    float64
	p50, p99, lateP99 float64
	n, backlog        int
	pass              bool
	valid             bool    // lateP99 within lateBoundUS
	score             float64 // p99 over the limit, at least 2 on a throughput miss; <= 1 passes
}

// servingResult is everything a serving run reports.
type servingResult struct {
	steps                    []stepResult
	p50, p99, getP99, setP99 float64
	lateP50, lateP99         float64 // at the reference rate
	refN                     int
	sloRate, peakRate        float64
	all                      samples // every reference-rate latency
	// The closed-loop phase: one request in flight per connection.
	closedP50, closedP99, closedRate float64
	closedN                          int
	// The saturating phases: latency per request with satDepth in flight
	// per connection, and the share of their time the generator was idle.
	satP50, satP99, satIdle float64
	satN                    int
}

func (w mcWorkload) summarize(steps []step, ops []op) servingResult {
	var res servingResult
	for i, rate := range w.ladder {
		var sts []*step
		for si := range steps {
			st := &steps[si]
			if st.measured && st.rate == rate && st.ref == (i == w.ref) {
				sts = append(sts, st)
			}
		}
		sr, all, get, set, late := evalSteps(ops, sts)
		res.steps = append(res.steps, sr)
		if i == w.ref {
			res.p50, res.p99, res.refN = sr.p50, sr.p99, sr.n
			res.getP99, res.setP99 = windowP99(get.v), windowP99(set.v)
			lp50, _ := late.pct(0.5)
			res.lateP50, res.lateP99 = usOf(lp50), sr.lateP99
			res.all = all
		}
	}
	var lat samples
	var dur float64
	for _, si := range closedSteps(steps) {
		st := &steps[si]
		for i := st.first; i < st.first+st.n; i++ {
			lat.add(latencyOf(&ops[i]))
		}
		dur += float64(st.end-st.start) / 1e9
	}
	res.closedP99 = windowP99(lat.v)
	p50, _ := lat.pct(0.5)
	res.closedP50, res.closedN = usOf(p50), lat.n()
	res.closedRate = float64(lat.n()) / dur
	var sat samples
	var idle, span int64
	sats := satSteps(steps)
	for _, st := range sats {
		for i := st.first; i < st.first+st.n; i++ {
			sat.add(latencyOf(&ops[i]))
		}
		idle += st.idle
		span += st.end - st.start
	}
	res.satP99 = windowP99(sat.v)
	p50, _ = sat.pct(0.5)
	res.satP50, res.satN = usOf(p50), sat.n()
	res.satIdle = float64(idle) / float64(max(span, 1))
	res.peakRate = steadyRate(ops, sats)
	res.sloRate = sloRate(res.steps)
	return res
}

// evalSteps pools the requests of steps at one offered rate and judges
// them against the SLO. It returns the raw latencies (all, gets, sets) and
// lateness in due order as well.
func evalSteps(ops []op, sts []*step) (sr stepResult, all, get, set, late samples) {
	done, backlog := 0, 0
	var dur float64
	for _, st := range sts {
		sr.rate = st.rate
		sr.n += st.n
		dur += float64(st.end-st.start) / 1e9
		for i := st.first; i < st.first+st.n; i++ {
			o := &ops[i]
			l := latencyOf(o)
			all.add(l)
			switch o.kind {
			case opGet:
				get.add(l)
			case opSet:
				set.add(l)
			}
			late.add(lateness(o))
			if o.done > 0 && o.done <= st.end {
				done++
			}
			if o.done == 0 || o.done > st.end+sloLimitUS*1e3 {
				backlog++
			}
		}
	}
	sr.achieved, sr.backlog = float64(done)/dur, backlog
	// The windowed tails need due order: read them before a percentile
	// sorts the samples.
	sr.p99, sr.lateP99 = windowP99(all.v), windowP99(late.v)
	p50, _ := all.pct(0.5)
	sr.p50 = usOf(p50)
	// The SLO: p99 within the limit, at least 99% of the requests answered
	// within their step, and no backlog left growing at its end. The score
	// is the p99's share of the limit; failing the throughput or backlog
	// test scores at least 2.
	sr.score = sr.p99 / sloLimitUS
	if float64(done) < 0.99*float64(sr.n) || float64(backlog) > 0.01*float64(sr.n) {
		sr.score = math.Max(sr.score, 2)
	}
	sr.valid = sr.lateP99 <= lateBoundUS
	sr.pass = sr.score <= 1
	return sr, all, get, set, late
}

// sloRate is the highest rate meeting the SLO, interpolated between the
// highest passing ladder step and the next one on the log of their SLO
// scores, so the figure moves smoothly instead of by whole ladder steps. A
// lower step that a host stall made miss does not cap it; the first step
// invalidated by generator lateness does, since no step from there on
// measures the server.
func sloRate(steps []stepResult) float64 {
	for i, s := range steps {
		if !s.valid {
			steps = steps[:i]
			break
		}
	}
	if len(steps) == 0 {
		return 0
	}
	best := -1
	for i, s := range steps {
		if s.pass {
			best = i
		}
	}
	switch {
	case best < 0:
		// Even the lowest rate misses the SLO: scale it down by its score.
		return steps[0].achieved / math.Max(steps[0].score, 1)
	case best == len(steps)-1:
		return steps[best].achieved
	}
	lo, hi := steps[best], steps[best+1]
	a, b := math.Log(math.Max(lo.score, 1e-6)), math.Log(hi.score)
	f := (0 - a) / (b - a)
	return lo.achieved + f*(hi.rate-lo.achieved)
}

func (res servingResult) print() {
	fmt.Printf("  %-10s %-10s %-10s %-10s %-10s %-8s %-8s %s\n", "offered", "achieved", "p50_us", "p99_us", "late_p99", "n", "backlog", "slo")
	for _, s := range res.steps {
		verdict := fmt.Sprint(s.pass)
		if !s.valid {
			verdict = "invalid"
		}
		fmt.Printf("  %-10.0f %-10.0f %-10.1f %-10.1f %-10.1f %-8d %-8d %s\n", s.rate, s.achieved, s.p50, s.p99, s.lateP99, s.n, s.backlog, verdict)
	}
	line("closed_ops_per_s", res.closedRate, "ops/s", res.closedN)
	line("closed_p50_us", res.closedP50, "us", res.closedN)
	line("closed_p99_us", res.closedP99, "us", res.closedN)
	line("p50_us (saturating)", res.satP50, "us", res.satN)
	line("p99_us (saturating)", res.satP99, "us", res.satN)
	line("ref_p50_us", res.p50, "us", res.refN)
	line("ref_p99_us", res.p99, "us", res.refN)
	latency("ref_all", &res.all)
	line("get_p99_us", res.getP99, "us", res.refN)
	line("set_p99_us", res.setP99, "us", res.refN)
	line("slo_ops_per_s", res.sloRate, "ops/s", len(res.steps))
	line("peak_ops_per_s", res.peakRate, "ops/s", res.satN)
	line("gen.late_p50_us", res.lateP50, "us", res.refN)
	line("gen.late_p99_us", res.lateP99, "us", res.refN)
	line("gen.sat_idle_frac", res.satIdle, "ratio", res.satN)
}
