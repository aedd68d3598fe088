// Package atlas implements an Atlas-style (HP, OOPSLA '14) failure-atomicity
// engine: undo logging with lock-inferred failure-atomic sections (FASEs)
// and cross-FASE dependency tracking.
//
// Atlas permits arbitrary locking inside FASEs; the price is that it cannot
// know at commit whether a FASE's effects are safe to declare durable — a
// later-crashing FASE holding a dependent lock might force rollback of
// completed FASEs. It therefore (a) logs every store (log elision is unsound
// without a global consistency analysis), (b) appends every FASE completion
// to a global dependency log, and (c) periodically computes a consistent
// snapshot over that log to prune it ("helper thread" work). Those three
// costs — per-store log entries with fences, a globally serialized
// dependency append, and periodic snapshot scans — are the runtime overheads
// the paper measures as Atlas's 4.3x average deficit against Clobber-NVM.
//
// In this reproduction Run corresponds to one FASE (its boundaries inferred
// from the caller's lock acquire/release around Run, per our locking
// contract), the dependency log is a persistent ring, and the snapshot scan
// runs inline every SnapshotInterval commits.
package atlas

import (
	"fmt"
	"sync"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/slotcore"
	"clobbernvm/internal/txn"
)

const (
	anchorMagic = 0x41544c41 // "ATLA"

	// Slot header: status word, then the two progress counters.
	offFreeApplied    = 8
	offReclaimApplied = 16
	hdrSize           = 64

	// ringEntries is the dependency-log ring capacity.
	ringEntries = 4096
	ringEntrySz = 24 // slot(8) seq(8) epoch(8)
	ringBytes   = ringEntries * ringEntrySz

	// SnapshotInterval is how many FASE commits elapse between consistent
	// snapshot computations (the helper-thread pruning work).
	SnapshotInterval = 64
)

// rootSlot is the pool root slot anchoring this engine.
const rootSlot = 5

// layout is the Atlas slot format; anchor word 2 holds the dependency
// ring's address.
var layout = slotcore.Layout{
	Name: "atlas", Magic: anchorMagic, Root: rootSlot, AnchorHdr: 24,
	HdrSize: hdrSize, ZeroSize: hdrSize,
	OffFreeApplied: offFreeApplied, OffReclaimApplied: offReclaimApplied,
}

// Options configures engine creation.
type Options = slotcore.Options

// Engine is the Atlas-style engine.
type Engine struct {
	slotcore.Kernel

	// Global dependency tracking state.
	depMu    sync.Mutex
	ringBase uint64
	ringIdx  uint64
	epoch    uint64
	commits  uint64
}

var (
	_ txn.Engine           = (*Engine)(nil)
	_ txn.RecoveryReporter = (*Engine)(nil)
)

// Create formats a fresh engine on the pool (anchor in root slot 5).
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.Fill()
	e := &Engine{}
	anchor, err := e.NewAnchor(p, a, layout, e.Name(), opts.Slots)
	if err != nil {
		return nil, err
	}
	ring, err := a.Alloc(0, ringBytes)
	if err != nil {
		return nil, fmt.Errorf("atlas: create dependency ring: %w", err)
	}
	e.ringBase = ring
	p.Store64(anchor+16, ring)
	if err := e.FormatSlots(anchor, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Attach opens a previously created engine. A slot whose logs fail
// validation is quarantined (it refuses transactions, and recovery reports
// it) rather than failing the whole attach; anchor corruption, including a
// dependency ring that does not fit in the pool, is fatal.
func Attach(p *nvm.Pool, a *pmem.Allocator, _ Options) (*Engine, error) {
	e := &Engine{}
	anchor, n, err := e.OpenAnchor(p, a, layout, e.Name())
	if err != nil {
		return nil, err
	}
	e.ringBase = p.Load64(anchor + 16)
	if end := e.ringBase + ringBytes; e.ringBase < p.HeapBase() || end < e.ringBase || end > p.Size() {
		return nil, fmt.Errorf("atlas: corrupt anchor: dependency ring %#x outside pool", e.ringBase)
	}
	e.AttachSlots(anchor, n)
	return e, nil
}

// Name implements txn.Engine.
func (e *Engine) Name() string { return "atlas" }

// Run implements txn.Engine: one FASE.
func (e *Engine) Run(slotID int, name string, args *txn.Args) error {
	s, fn, args, err := e.Enter(slotID, name, args)
	if err != nil {
		return err
	}
	defer s.Mu.Unlock()
	sp := e.Probe.Start(s.ID, name)
	seq := e.BeginUndo(s)
	sp.BeginDone(seq)

	m := &mem{Tx: e.Tx(s, seq), t: s.Lines()}
	if err := fn(m, args); err != nil {
		e.Rollback(s, seq, s.DLog.Scan(seq))
		sp.Aborted()
		return err
	}
	sp.ExecDone()
	e.Commit(s, seq, m.t.Dirty, m.Frees, &sp)
	e.recordDependency(s, seq)
	e.Stats().Committed.Add(1)
	sp.Committed(false)
	return nil
}

// recordDependency appends the FASE's completion record to the global
// dependency log and periodically computes the consistent snapshot — the
// globally serialized bookkeeping that dominates Atlas's runtime cost.
func (e *Engine) recordDependency(s *slotcore.Slot, seq uint64) {
	e.depMu.Lock()
	defer e.depMu.Unlock()
	p := e.Pool()
	e.epoch++
	at := e.ringBase + (e.ringIdx%ringEntries)*ringEntrySz
	p.Store64(at, uint64(s.ID))
	p.Store64(at+8, seq)
	p.Store64(at+16, e.epoch)
	p.CommitPersist(at, ringEntrySz)
	e.ringIdx++
	e.commits++
	if e.commits%SnapshotInterval == 0 {
		e.snapshotScan()
	}
}

// snapshotScan models the helper thread's consistent-snapshot computation:
// a full read pass over the dependency ring followed by a fence that
// publishes the new snapshot boundary.
func (e *Engine) snapshotScan() {
	p := e.Pool()
	var sink uint64
	limit := e.ringIdx
	if limit > ringEntries {
		limit = ringEntries
	}
	for i := uint64(0); i < limit; i++ {
		at := e.ringBase + i*ringEntrySz
		sink ^= p.Load64(at) ^ p.Load64(at+8) ^ p.Load64(at+16)
	}
	_ = sink
	p.Fence()
}

// Recover implements txn.Engine: uncommitted FASEs roll back.
func (e *Engine) Recover() (int, error) {
	rep, err := e.RecoverReport()
	return rep.Recovered, err
}

// RecoverReport implements txn.RecoveryReporter. Atlas fences every undo
// append before the corresponding store, so the log is fence-ordered at
// recovery and the strict scan is sound.
func (e *Engine) RecoverReport() (txn.RecoveryReport, error) { return e.RecoverSlots(e.complete) }

// complete rolls an uncommitted FASE back.
func (e *Engine) complete(s *slotcore.Slot, seq, phase uint64) (slotcore.Outcome, error) {
	if phase == slotcore.PhaseIdle {
		return slotcore.OutcomeIdle, nil
	}
	entries, ok := e.StrictEntries(s, seq, "undo log")
	if !ok {
		return slotcore.OutcomeQuarantined, nil
	}
	e.Rollback(s, seq, entries)
	return slotcore.OutcomeRolledBack, nil
}

// mem is Atlas's transactional view: per-store undo logging without elision.
type mem struct {
	slotcore.Tx
	t *slotcore.FlagTable // dirty lines only
}

var _ txn.Mem = (*mem)(nil)

func (m *mem) Store(addr uint64, data []byte) {
	m.preStore(addr, uint64(len(data)))
	m.P.Store(addr, data)
}

func (m *mem) Store64(addr uint64, v uint64) {
	m.preStore(addr, 8)
	m.P.Store64(addr, v)
}

// preStore logs every store: without a whole-program dependency analysis,
// Atlas cannot elide a log entry even for a location it logged moments ago
// (a dependent FASE on another thread may have observed the intermediate
// value).
func (m *mem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	m.LogOld(addr, n, obs.KindLogAppend)
	for l := addr / nvm.LineSize; l <= (addr+n-1)/nvm.LineSize; l++ {
		m.t.MarkStored(l, 0xff)
	}
}
