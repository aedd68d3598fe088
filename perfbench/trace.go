package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"clobbernvm/internal/memcache"
	"clobbernvm/internal/pds"
	"clobbernvm/internal/txn"
)

// epoch is the benchmark's time origin; every timestamp is nanoseconds
// since it on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanKind names a layer boundary the benchmark wraps.
type spanKind uint8

const (
	kNone    spanKind = iota
	kInsert           // pds Store.Insert, including its bucket lock
	kBackend          // memcache.Backend call, between server and supervisor
	kRun              // engine Run
	kRunRO            // engine RunRO
	kBody             // txfunc body under Run or recovery
	kROBody           // read-only function body under RunRO
	kRecover          // engine RecoverReport
	kRebuild          // the supervisor's RebuildFunc
)

var kindNames = [...]string{"none", "pds.insert", "memcache.backend", "clobber.run", "clobber.runro",
	"pds.body", "pds.robody", "recovery.recover", "recovery.rebuild"}

func (k spanKind) String() string { return kindNames[k] }

// span is one timed interval at a layer boundary. Spans of one request share
// id; parent is the kind of the enclosing span that caused this one.
type span struct {
	id         uint64
	start, end int64
	kind       spanKind
	parent     spanKind
}

func (s span) dur() int64 { return s.end - s.start }

// slotRec is the per-worker-slot span buffer. A slot is used by one
// goroutine at a time (the engine's own contract), so it needs no lock.
type slotRec struct {
	spans []span
	seq   uint64
	cur   uint64   // id of the open outer span
	outer spanKind // kind of the open outer span
	// firstKey is the key of the slot's first Backend get, which tells a
	// serving run which connection the slot serves.
	firstKey string
	_        [64]byte
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	slots [txn.MaxSlots]slotRec

	// args binds a Run's argument list to its slot and request id, so the
	// txfunc wrapper (which sees only the args) can find its parent.
	argMu sync.Mutex
	args  map[*txn.Args]uint64 // slot<<56 | id-without-slot

	// shared holds spans from outside any slot: recovery.
	sharedMu sync.Mutex
	shared   []span
	cycle    atomic.Uint64
}

func newRecorder() *recorder { return &recorder{args: map[*txn.Args]uint64{}} }

const slotShift = 48

// begin opens an outer span (Backend call, Store.Insert) on slot and returns
// its id and start time.
func (r *recorder) begin(slot int, kind spanKind) (uint64, int64) {
	s := &r.slots[slot]
	s.seq++
	s.cur = uint64(slot)<<slotShift | s.seq
	s.outer = kind
	return s.cur, now()
}

// end closes the outer span opened by begin.
func (r *recorder) end(slot int, id uint64, start int64, kind spanKind) {
	s := &r.slots[slot]
	s.spans = append(s.spans, span{id: id, start: start, end: now(), kind: kind})
	s.cur, s.outer = 0, kNone
}

func (r *recorder) add(slot int, sp span) {
	r.slots[slot].spans = append(r.slots[slot].spans, sp)
}

func (r *recorder) addShared(sp span) {
	r.sharedMu.Lock()
	r.shared = append(r.shared, sp)
	r.sharedMu.Unlock()
}

// recoveryID is the id all spans of the current recovery cycle share.
func (r *recorder) recoveryID() uint64 { return 1<<63 | r.cycle.Load() }

// all returns every recorded span. Call it only after the run's goroutines
// have stopped.
func (r *recorder) all() []span {
	var out []span
	for i := range r.slots {
		out = append(out, r.slots[i].spans...)
	}
	return append(out, r.shared...)
}

// spansOf returns slot's spans in recording order.
func (r *recorder) spansOf(slot int) []span { return r.slots[slot].spans }

// traceDir receives the span dumps of traced runs, under the build
// directory the benchmark's checkout already ignores.
const (
	traceDir       = ".bench_build/trace"
	traceDumpSpans = 200_000
)

// writeOut writes the first max spans as one line each under dir, so a run
// can be inspected after the fact. Failures only lose the dump.
func (r *recorder) writeOut(dir, name string, max int) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, sp := range r.all() {
		if i >= max {
			break
		}
		fmt.Fprintf(w, "%#x,%s,%s,%d,%d\n", sp.id, sp.parent, sp.kind, sp.start, sp.end)
	}
	_ = w.Flush()
}

// tracedEngine wraps a pds.Engine: Run and RunRO become spans, every txfunc
// registered through it gets a body span, and RecoverReport is forwarded so
// the supervisor still finds a txn.RecoveryReporter.
type tracedEngine struct {
	pds.Engine
	rec *recorder
}

var _ txn.RecoveryReporter = (*tracedEngine)(nil)

func (e *tracedEngine) Register(name string, fn txn.TxFunc) {
	rec := e.rec
	e.Engine.Register(name, func(m txn.Mem, args *txn.Args) error {
		start := now()
		err := fn(m, args)
		end := now()
		rec.argMu.Lock()
		b, ok := rec.args[args]
		rec.argMu.Unlock()
		if ok {
			slot := int(b >> 56)
			rec.add(slot, span{id: b &^ (0xff << 56), start: start, end: end, kind: kBody, parent: kRun})
		} else {
			rec.addShared(span{id: rec.recoveryID(), start: start, end: end, kind: kBody, parent: kRecover})
		}
		return err
	})
}

func (e *tracedEngine) Run(slot int, name string, args *txn.Args) error {
	if args == nil {
		args = txn.NoArgs
	}
	s := &e.rec.slots[slot]
	id, parent := s.cur, s.outer
	e.rec.argMu.Lock()
	e.rec.args[args] = uint64(slot)<<56 | id
	e.rec.argMu.Unlock()
	defer func() {
		e.rec.argMu.Lock()
		delete(e.rec.args, args)
		e.rec.argMu.Unlock()
	}()
	start := now()
	err := e.Engine.Run(slot, name, args)
	e.rec.add(slot, span{id: id, start: start, end: now(), kind: kRun, parent: parent})
	return err
}

func (e *tracedEngine) RunRO(slot int, fn txn.ROFunc) error {
	s := &e.rec.slots[slot]
	id, parent := s.cur, s.outer
	var bodyStart, bodyEnd int64
	start := now()
	err := e.Engine.RunRO(slot, func(m txn.Mem) error {
		bodyStart = now()
		err := fn(m)
		bodyEnd = now()
		return err
	})
	e.rec.add(slot, span{id: id, start: start, end: now(), kind: kRunRO, parent: parent})
	if bodyEnd > 0 {
		e.rec.add(slot, span{id: id, start: bodyStart, end: bodyEnd, kind: kROBody, parent: kRunRO})
	}
	return err
}

// RecoverReport forwards the hardened recovery, timing it as one span.
func (e *tracedEngine) RecoverReport() (txn.RecoveryReport, error) {
	start := now()
	var rep txn.RecoveryReport
	var err error
	if rr, ok := e.Engine.(txn.RecoveryReporter); ok {
		rep, err = rr.RecoverReport()
	} else {
		rep.Recovered, err = e.Engine.Recover()
	}
	e.rec.addShared(span{id: e.rec.recoveryID(), start: start, end: now(), kind: kRecover, parent: kRebuild})
	return rep, err
}

// tracedStore wraps a pds.Store so Insert is a span enclosing the engine's
// Run (the bucket lock wait included).
type tracedStore struct {
	pds.Store
	rec *recorder
}

func (s *tracedStore) Insert(slot int, key, value []byte) error {
	id, start := s.rec.begin(slot, kInsert)
	err := s.Store.Insert(slot, key, value)
	s.rec.end(slot, id, start, kInsert)
	return err
}

// tracedBackend wraps the memcache.Backend the server serves: every data
// call is a span enclosing the supervisor's gate, the cache lock and the
// engine call.
type tracedBackend struct {
	memcache.Backend
	rec *recorder
}

func (b *tracedBackend) SetFlags(slot int, key, value []byte, flags uint32) error {
	id, start := b.rec.begin(slot, kBackend)
	err := b.Backend.SetFlags(slot, key, value, flags)
	b.rec.end(slot, id, start, kBackend)
	return err
}

func (b *tracedBackend) Add(slot int, key, value []byte, flags uint32) (bool, error) {
	id, start := b.rec.begin(slot, kBackend)
	ok, err := b.Backend.Add(slot, key, value, flags)
	b.rec.end(slot, id, start, kBackend)
	return ok, err
}

func (b *tracedBackend) Replace(slot int, key, value []byte, flags uint32) (bool, error) {
	id, start := b.rec.begin(slot, kBackend)
	ok, err := b.Backend.Replace(slot, key, value, flags)
	b.rec.end(slot, id, start, kBackend)
	return ok, err
}

func (b *tracedBackend) GetWithCAS(slot int, key []byte) ([]byte, uint32, uint64, bool, error) {
	id, start := b.rec.begin(slot, kBackend)
	if b.rec.slots[slot].seq == 1 {
		b.rec.slots[slot].firstKey = string(key)
	}
	v, f, c, ok, err := b.Backend.GetWithCAS(slot, key)
	b.rec.end(slot, id, start, kBackend)
	return v, f, c, ok, err
}

func (b *tracedBackend) Delete(slot int, key []byte) (bool, error) {
	id, start := b.rec.begin(slot, kBackend)
	ok, err := b.Backend.Delete(slot, key)
	b.rec.end(slot, id, start, kBackend)
	return ok, err
}
