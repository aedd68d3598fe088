package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"clobbernvm/internal/memcache"
	"clobbernvm/internal/nvm"
)

// crash-recover: an in-process supervisor over memcachedsim's rebuild path.
// One closed-loop client calls the Backend directly with self-validating
// values; every crashEvery acknowledged ops it arms a power failure at a
// seeded persistence event, then times the outage from the interrupted
// call's ErrInterrupted to the first acknowledged op after it, and audits
// that every acknowledged write survived with its exact value and that the
// cache's invariants hold.
const (
	crashPoolMB    = 64 // -pool-mb: smaller than memcachedsim's 512 so a rebuild copies less
	crashKeys      = 512
	crashValueSize = 128
	// crashEvery acknowledged ops separate two armed crashes: 1 op in 40
	// waits out a recovery, so the p99 of op latency is a recovery time.
	crashEvery = 40
	// crashArmMax bounds the seeded persistence-event ordinal a crash is
	// armed at; a set or delete makes dozens of events, so the crash lands
	// within the next few writes.
	crashArmMax = 200
	// retryWait paces retries refused while the supervisor recovers.
	retryWait = 100 * time.Microsecond
)

// crashModel is the client's view of what the cache must hold.
type crashModel struct {
	present bool
	seq     uint64
}

func runCrashRecover(cfg config, r *report) error {
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
		if s, err = newStack(crashPoolMB, 0, rec, cfg.hooks); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	defer enableObs()()

	c := &crashClient{s: s, r: r, rng: newRand(cfg.seed), model: make([]crashModel, crashKeys),
		val: make([]byte, crashValueSize)}
	var hs *heapSampler
	if cfg.trace {
		hs = startHeapSampler()
	}
	gc0 := readGC()
	base := s.total()
	deadline := now() + int64(cfg.seconds*1e9)
	start := now()
	for now() < deadline && r.correct {
		if err := c.cycle(); err != nil {
			return err
		}
	}
	elapsed := float64(now()-start-c.auditNS) / 1e9
	gc1 := readGC()
	var heapPeak float64
	if hs != nil {
		heapPeak = hs.finish()
	}
	r.attempted = c.attempted

	fmt.Printf("crash-recover: supervisor over memcachedsim's rebuild, %d MiB pool, %d keys, %d B values, a crash every %d acknowledged ops\n",
		crashPoolMB, crashKeys, crashValueSize, crashEvery)
	line("setup_s", median(setups), "s", len(setups))
	line("ops_per_s", float64(c.acked)/elapsed, "ops/s", int(c.acked))
	latency("op", &c.lat)
	p50, _ := c.recover.pct(0.5)
	line("recover_ms", usOf(p50)/1e3, "ms", c.recover.n())
	if t := c.recover.tail(); t > 0 {
		v, b := c.recover.pct(t)
		fmt.Printf("  %-30s %14.4f %-6s n=%d beyond=%d\n", "recover_"+pctName(t)+"_ms", usOf(v)/1e3, "ms", c.recover.n(), b)
	}
	line("crashes", float64(c.recover.n()), "count", c.recover.n())
	line("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", int(r.attempted))
	line("peak_rss_mb", peakRSSMiB(), "MiB", 1)
	if c.recover.n() == 0 {
		r.violate("no crash was recovered in %.1f s", cfg.seconds)
	}
	if !cfg.trace {
		p50, _ := c.lat.pct(0.5)
		p99, _ := c.lat.pct(0.99)
		r.metric("setup_s", median(setups), "s", len(setups))
		r.metric("ops_per_s", float64(c.acked)/elapsed, "ops/s", int(c.acked))
		r.metric("p50_us", usOf(p50), "us", c.lat.n())
		r.metric("p99_us", usOf(p99), "us", c.lat.n())
		r.metric("peak_rss_mb", peakRSSMiB(), "MiB", 1)
		return nil
	}

	l := newLayers(r)
	// Counters summed over every incarnation the run went through, the
	// recoveries' own traffic included.
	d := s.total().sub(base)
	l.counters(d, int(c.acked), int(d.committed), float64(c.userBytes), nvm.DefaultLatency)
	l.runtime(gc0, gc1, heapPeak)
	c.recoveryLayers(l, rec)
	stats := collect(rec, func(uint64) bool { return true }, nil)
	l.pct("cache.self_us_p50", &stats.cacheSelf, 0.5)
	l.pct("cache.self_us_p99", &stats.cacheSelf, 0.99)
	l.pct("clobber.run_us_p50", &stats.run, 0.5)
	l.pct("clobber.run_us_p99", &stats.run, 0.99)
	l.pct("clobber.self_us_p50", &stats.runSelf, 0.5)
	l.pct("clobber.runro_us_p50", &stats.runRO, 0.5)
	l.pct("pds.body_us_p50", &stats.body, 0.5)
	p50, _ = c.lat.pct(0.5)
	l.set("trace.e2e_p50_us", usOf(p50), c.lat.n())
	l.close()
	rec.writeOut(traceDir, fmt.Sprintf("crash-recover-%d.csv", cfg.seed), traceDumpSpans)
	return nil
}

// crashClient is the closed-loop client and its model of the cache.
type crashClient struct {
	s     *stack
	r     *report
	rng   *rng
	model []crashModel
	val   []byte
	seq   uint64

	attempted, acked int64
	userBytes        int64
	lat, recover     samples
	auditNS          int64
	lastAck          int64
	// pending is the write the last crash interrupted, until the audit
	// after its recovery settles whether it took effect.
	pending *crashOp
	// Per recovery, for the traced phase breakdown.
	interrupted, firstAck []int64
	reexecuted, rolled    []int
}

// cycle runs crashEvery acknowledged ops, arms a crash, drives ops until
// the crash interrupts one, waits the recovery out, and audits.
func (c *crashClient) cycle() error {
	for i := 0; i < crashEvery; i++ {
		if _, err := c.op(); err != nil {
			return err
		}
	}
	sup := c.s.sup
	if err := sup.Arm(nvm.CrashAtAny, 1+c.rng.int63n(crashArmMax)); err != nil {
		return fmt.Errorf("arm: %w", err)
	}
	for c.pending == nil {
		p, err := c.op()
		if err != nil {
			return err
		}
		c.pending = p
	}
	tI := now()
	// The next op is retried until the supervisor serves again; its
	// latency from the first attempt includes the whole outage.
	for {
		p, err := c.op()
		if err != nil {
			return err
		}
		if p == nil {
			break
		}
	}
	c.recover.add(c.lastAck - tI)
	c.interrupted = append(c.interrupted, tI)
	c.firstAck = append(c.firstAck, c.lastAck)
	if rep, err := sup.LastReport(); err == nil {
		c.reexecuted = append(c.reexecuted, rep.Reexecuted)
		c.rolled = append(c.rolled, rep.RolledBack)
	}
	a := now()
	c.audit()
	c.pending = nil
	// Collect the crashed world now, untimed, so every recovery starts
	// from the same heap and the run's peak memory does not depend on when
	// the collector happened to run.
	runtime.GC()
	c.auditNS += now() - a
	return nil
}

// crashOp is an op whose outcome a crash left undetermined.
type crashOp struct {
	key  uint32
	kind uint8
	seq  uint64
}

// op draws and runs one op, retrying it while the supervisor recovers.
// It returns the op when a crash interrupted it (its effect is then
// undetermined until the audit), and nil when it was acknowledged.
func (c *crashClient) op() (*crashOp, error) {
	key := uint32(c.rng.intn(crashKeys))
	kind := opGet
	switch u := c.rng.float(); {
	case u < 0.5:
		kind = opSet
	case u < 0.7:
		kind = opDel
	}
	name := []byte(keyName(key))
	b := c.s.backend
	start := now()
	c.attempted++
	for {
		var err error
		switch kind {
		case opSet:
			c.seq++
			fillValue(c.val, c.seq, key, 1)
			err = b.SetFlags(0, name, c.val, 0)
			if err == nil {
				c.model[key] = crashModel{present: true, seq: c.seq}
				c.userBytes += int64(len(name) + len(c.val))
			}
		case opDel:
			var existed bool
			existed, err = b.Delete(0, name)
			if err == nil {
				// A delete of the interrupted write's key may find it
				// either way.
				undecided := c.pending != nil && c.pending.key == key
				if existed != c.model[key].present && !undecided {
					c.fail("delete of key %d reported existed=%v, model says %v", key, existed, c.model[key].present)
				}
				c.model[key] = crashModel{}
			}
		default:
			var v []byte
			var found bool
			v, _, _, found, err = b.GetWithCAS(0, name)
			if err == nil {
				c.check(key, v, found)
			}
		}
		switch {
		case err == nil:
			c.lastAck = now()
			c.acked++
			c.lat.add(c.lastAck - start)
			return nil, nil
		case errors.Is(err, memcache.ErrInterrupted):
			return &crashOp{key: key, kind: kind, seq: c.seq}, nil
		case errors.Is(err, memcache.ErrRecovering):
			// Refused while recovering: the op did not run. Wait a little
			// rather than spin on a CPU the recovery needs.
			time.Sleep(retryWait)
		default:
			return nil, fmt.Errorf("op on key %d: %w", key, err)
		}
	}
}

// check validates a read of key against the model. When c.pending names
// this key, the write the crash interrupted may or may not have taken
// effect, and the read settles which.
func (c *crashClient) check(key uint32, v []byte, found bool) {
	matches := func(m crashModel) bool {
		if found != m.present {
			return false
		}
		if !found {
			return true
		}
		seq, _, err := decodeValue(v, key, crashValueSize)
		return err == nil && seq == m.seq
	}
	want := c.model[key]
	if matches(want) {
		return
	}
	if p := c.pending; p != nil && p.key == key && p.kind != opGet {
		alt := crashModel{}
		if p.kind == opSet {
			alt = crashModel{present: true, seq: p.seq}
		}
		if matches(alt) {
			c.model[key] = alt
			return
		}
	}
	c.fail("key %d: found=%v, want present=%v seq=%d", key, found, want.present, want.seq)
}

// audit reads every key back after a recovery and checks the cache's
// structural invariants.
func (c *crashClient) audit() {
	b := c.s.backend
	for k := uint32(0); k < crashKeys; k++ {
		c.attempted++
		v, _, _, found, err := b.GetWithCAS(0, []byte(keyName(k)))
		if err != nil {
			c.fail("audit read of key %d: %v", k, err)
			continue
		}
		c.check(k, v, found)
	}
	c.attempted++
	if err := c.s.sup.CheckInvariants(); err != nil {
		c.fail("cache invariants after recovery: %v", err)
	}
}

func (c *crashClient) fail(format string, args ...any) {
	c.r.failed++
	c.r.violate(format, args...)
}

// recoveryLayers reports the recovery timeline: from each interrupted call
// to the rebuild, the rebuild's phases, the cache reopen (txfunc
// re-registration), engine recovery, and the wait to the first
// acknowledged op.
func (c *crashClient) recoveryLayers(l *layers, rec *recorder) {
	c.s.mu.Lock()
	rebuilds := append([]rebuildTiming(nil), c.s.rebuilds...)
	c.s.mu.Unlock()
	recovers := map[uint64]span{}
	for _, sp := range rec.shared {
		if sp.kind == kRecover {
			recovers[sp.id] = sp
		}
	}
	var drain, image, attach, engine, reopen, recov, resume []float64
	for i := range c.interrupted {
		if i >= len(rebuilds) {
			break
		}
		t := rebuilds[i]
		sp, ok := recovers[1<<63|uint64(i+1)]
		if !ok {
			continue
		}
		ms := func(a, b int64) float64 { return float64(b-a) / 1e6 }
		drain = append(drain, ms(c.interrupted[i], t.start))
		image = append(image, ms(t.start, t.imageEnd))
		attach = append(attach, ms(t.imageEnd, t.pmemEnd))
		engine = append(engine, ms(t.pmemEnd, t.engEnd))
		reopen = append(reopen, ms(t.engEnd, sp.start))
		recov = append(recov, ms(sp.start, sp.end))
		resume = append(resume, ms(sp.end, c.firstAck[i]))
	}
	n := len(drain)
	l.set("recovery.drain_snapshot_ms", median(drain), n)
	l.set("recovery.image_ms", median(image), n)
	l.set("recovery.pmem_attach_ms", median(attach), n)
	l.set("recovery.engine_attach_ms", median(engine), n)
	l.set("recovery.reopen_ms", median(reopen), n)
	l.set("recovery.recover_ms", median(recov), n)
	l.set("recovery.resume_ms", median(resume), n)
	var re, rb int
	for i := range c.reexecuted {
		re += c.reexecuted[i]
		rb += c.rolled[i]
	}
	if len(c.reexecuted) > 0 {
		l.set("recovery.reexecuted_per_crash", float64(re)/float64(len(c.reexecuted)), len(c.reexecuted))
		l.set("recovery.rolled_back_per_crash", float64(rb)/float64(len(c.reexecuted)), len(c.reexecuted))
	}
	p50, _ := c.recover.pct(0.5)
	parts := []float64{median(drain), median(image), median(attach), median(engine), median(reopen), median(recov), median(resume)}
	var sum float64
	for _, p := range parts {
		sum += p
	}
	l.accountedSum(sum, usOf(p50)/1e3, n)
}
