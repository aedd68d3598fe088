// Package slotcore is the slot kernel every failure-atomicity engine embeds.
// The paper's engines differ only in *what they log* (Fig 7 runs No-log,
// v_log, clobber_log, full clobber and PMDK over one undo-log API), so
// everything that is not logging policy lives here, once:
//
//   - the persistent anchor and slot table: create, attach and validation,
//     in each engine's own format (magic, root slot, header sizes);
//   - each slot's data log, alloc log and free log;
//   - the Run preamble: txfunc lookup, slot check, lock, quarantine check;
//   - the status word, deferred frees and the reclaim of an interrupted
//     transaction's allocations;
//   - strict scan, bounds check and reverse restore of undo entries;
//   - quarantine and the concurrent recovery driver;
//   - the read-only view, journaled Alloc and deferred Free;
//   - FlagTable, the per-transaction line table.
//
// An engine embeds Kernel as a plain struct and adds only its policy: how a
// transaction begins and what each store logs, how it commits, and how
// recovery completes an interrupted transaction.
//
// Every slot header starts with the status word seq<<2|phase. The engine's
// Layout places the free and reclaim progress counters and sizes the rest.
package slotcore

import (
	"errors"
	"fmt"
	"sync"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/txn"
)

// Slot phases, the low two bits of the status word.
const (
	PhaseIdle = 0
	// PhaseOngoing marks a transaction in flight (undo engines) or a
	// durable commit marker whose writes are being applied (redo engine).
	PhaseOngoing = 1
	PhaseFreeing = 2
)

// ErrTxTooLarge reports exhaustion of a per-transaction log area.
var ErrTxTooLarge = errors.New("transaction exceeds log capacity")

// Layout is an engine's persistent format. The anchor is magic(8),
// slot count(8), AnchorHdr-16 engine-owned bytes, then one base address per
// slot; each slot block is a HdrSize header followed by the data, alloc and
// free logs.
type Layout struct {
	// Name prefixes errors ("clobber", "undolog", …).
	Name string
	// Magic identifies the anchor; Root is the pool root slot holding it.
	Magic uint64
	Root  int
	// AnchorHdr is the anchor size before the slot-base table.
	AnchorHdr uint64
	// HdrSize is the slot header size before the data log; Create zeroes
	// its first ZeroSize bytes.
	HdrSize  uint64
	ZeroSize uint64
	// OffFreeApplied and OffReclaimApplied place the progress counters of
	// deferred frees and of allocation reclaim in the slot header.
	OffFreeApplied    uint64
	OffReclaimApplied uint64
	// NoStatus makes SetStatus a no-op: the engine never persists a status
	// word (the clobber ablations without a v_log).
	NoStatus bool
}

// Options sizes an engine's slot logs. Zero fields take the defaults.
type Options struct {
	Slots       int
	DataLogCap  uint64
	AllocLogCap int
	FreeLogCap  int
	// LineLog formats the data log with the write-combined line writer
	// (see plog.FormatDataLogLine). Attach detects the mode from the log
	// magic, so only Create needs the flag.
	LineLog bool
}

// Fill applies the defaults: txn.MaxSlots slots, a 1 MiB data log and
// 4096-entry alloc and free logs.
func (o *Options) Fill() {
	if o.Slots <= 0 || o.Slots > txn.MaxSlots {
		o.Slots = txn.MaxSlots
	}
	if o.DataLogCap == 0 {
		o.DataLogCap = 1 << 20
	}
	if o.AllocLogCap == 0 {
		o.AllocLogCap = 4096
	}
	if o.FreeLogCap == 0 {
		o.FreeLogCap = 4096
	}
}

// Slot is one worker slot: its header, logs and volatile sequence cache.
type Slot struct {
	// Mu is held for a whole Run, which makes the slot's tables race-free.
	Mu   sync.Mutex
	ID   int
	Hdr  uint64
	DLog *plog.DataLog
	ALog *plog.AddrLog
	FLog *plog.AddrLog
	// Seq caches the last sequence number used on the slot.
	Seq uint64

	lines *FlagTable
	// quarantined, when non-nil, records why attach or recovery set this
	// slot aside. Its persistent state is left untouched for forensics.
	quarantined error
}

// Lines returns the slot's line table, reset for a new transaction. The
// table is allocated once per slot and reused.
func (s *Slot) Lines() *FlagTable {
	if s.lines == nil {
		s.lines = NewFlagTable()
	} else {
		s.lines.Reset()
	}
	return s.lines
}

// Quarantined reports why the slot was set aside, or nil.
func (s *Slot) Quarantined() error { return s.quarantined }

// Kernel is the engine-independent half of an engine.
type Kernel struct {
	Layout Layout
	Slots  []*Slot
	Probe  *obs.Probe

	pool  *nvm.Pool
	alloc *pmem.Allocator
	reg   txn.Registry
	stats txn.Stats
}

func (k *Kernel) bind(p *nvm.Pool, a *pmem.Allocator, lay Layout, probe string) {
	k.pool, k.alloc, k.Layout = p, a, lay
	k.Probe = obs.NewProbe(probe)
}

// NewAnchor starts formatting a fresh engine: it binds the kernel to the
// pool and allocates the anchor with its magic and slot count. The engine
// then stores its own anchor words (offsets 16 up to AnchorHdr) and calls
// FormatSlots.
func (k *Kernel) NewAnchor(p *nvm.Pool, a *pmem.Allocator, lay Layout, probe string, slots int) (uint64, error) {
	k.bind(p, a, lay, probe)
	anchor, err := a.Alloc(0, lay.AnchorHdr+uint64(slots)*8)
	if err != nil {
		return 0, fmt.Errorf("%s: create anchor: %w", lay.Name, err)
	}
	p.Store64(anchor, lay.Magic)
	p.Store64(anchor+8, uint64(slots))
	return anchor, nil
}

// FormatSlots allocates and formats every slot block, then persists the
// anchor and publishes it in the engine's root slot.
func (k *Kernel) FormatSlots(anchor uint64, o Options) error {
	p, lay := k.pool, k.Layout
	alogOff := lay.HdrSize + plog.DataLogSize(o.DataLogCap)
	flogOff := alogOff + plog.AddrLogSize(o.AllocLogCap)
	slotSize := flogOff + plog.AddrLogSize(o.FreeLogCap)
	for i := 0; i < o.Slots; i++ {
		base, err := k.alloc.Alloc(i, slotSize)
		if err != nil {
			return fmt.Errorf("%s: create slot %d: %w", lay.Name, i, err)
		}
		// Zero the header so status reads as idle/seq 0.
		p.Store(base, make([]byte, lay.ZeroSize))
		p.Persist(base, lay.ZeroSize)
		k.Slots = append(k.Slots, &Slot{
			ID:   i,
			Hdr:  base,
			DLog: plog.FormatDataLogMode(p, i, base+lay.HdrSize, o.DataLogCap, o.LineLog),
			ALog: plog.FormatAddrLog(p, i, base+alogOff, o.AllocLogCap),
			FLog: plog.FormatAddrLog(p, i, base+flogOff, o.FreeLogCap),
		})
		p.Store64(anchor+lay.AnchorHdr+uint64(i)*8, base)
	}
	anchorSize := lay.AnchorHdr + uint64(o.Slots)*8
	p.Persist(anchor, anchorSize)
	p.Store64(p.RootSlot(lay.Root), anchor)
	p.Persist(p.RootSlot(lay.Root), 8)
	return nil
}

// OpenAnchor starts attaching an engine after restart or crash: it binds
// the kernel and validates the anchor and its slot table against the pool.
// A damaged anchor fails the attach (there is no engine without it). The
// engine then reads its own anchor words and calls AttachSlots.
func (k *Kernel) OpenAnchor(p *nvm.Pool, a *pmem.Allocator, lay Layout, probe string) (anchor uint64, slots int, err error) {
	k.bind(p, a, lay, probe)
	anchor = p.Load64(p.RootSlot(lay.Root))
	if anchor == 0 || anchor+lay.AnchorHdr > p.Size() || anchor+lay.AnchorHdr < anchor || p.Load64(anchor) != lay.Magic {
		return 0, 0, fmt.Errorf("%s: pool has no %s engine", lay.Name, lay.Name)
	}
	n := p.Load64(anchor + 8)
	if n == 0 || n > txn.MaxSlots {
		return 0, 0, fmt.Errorf("%s: corrupt anchor: %d slots", lay.Name, int64(n))
	}
	if anchor+lay.AnchorHdr+n*8 > p.Size() {
		return 0, 0, fmt.Errorf("%s: corrupt anchor: slot table outside pool", lay.Name)
	}
	return anchor, int(n), nil
}

// AttachSlots attaches every slot's logs. A slot whose block or logs fail
// validation is quarantined instead of failing the attach, so one damaged
// thread cannot take the whole pool down.
func (k *Kernel) AttachSlots(anchor uint64, n int) {
	p, lay := k.pool, k.Layout
	for i := 0; i < n; i++ {
		base := p.Load64(anchor + lay.AnchorHdr + uint64(i)*8)
		s := &Slot{ID: i, Hdr: base}
		k.Slots = append(k.Slots, s)
		if base+lay.HdrSize > p.Size() || base+lay.HdrSize < base {
			k.Quarantine(s, fmt.Errorf("%w: %s slot %d: base %#x outside pool", txn.ErrCorruptLog, lay.Name, i, base))
			continue
		}
		if err := k.attachLogs(s); err != nil {
			k.Quarantine(s, fmt.Errorf("%s: slot %d: %w", lay.Name, i, err))
			continue
		}
		s.Seq = p.Load64(base) >> 2
	}
}

func (k *Kernel) attachLogs(s *Slot) error {
	p := k.pool
	dlogAt := s.Hdr + k.Layout.HdrSize
	dlog, err := plog.AttachDataLog(p, s.ID, dlogAt)
	if err != nil {
		return err
	}
	alogAt := dlogAt + plog.DataLogSize(p.Load64(dlogAt+8))
	alog, err := plog.AttachAddrLog(p, s.ID, alogAt)
	if err != nil {
		return err
	}
	flog, err := plog.AttachAddrLog(p, s.ID, alogAt+plog.AddrLogSize(int(p.Load64(alogAt+8))))
	if err != nil {
		return err
	}
	s.DLog, s.ALog, s.FLog = dlog, alog, flog
	return nil
}

// Register implements txn.Engine.
func (k *Kernel) Register(name string, fn txn.TxFunc) { k.reg.Register(name, fn) }

// Lookup returns the txfunc registered under name.
func (k *Kernel) Lookup(name string) (txn.TxFunc, error) { return k.reg.Lookup(name) }

// Stats implements txn.Engine.
func (k *Kernel) Stats() *txn.Stats { return &k.stats }

// Pool returns the engine's pool.
func (k *Kernel) Pool() *nvm.Pool { return k.pool }

// Allocator returns the engine's persistent allocator.
func (k *Kernel) Allocator() *pmem.Allocator { return k.alloc }

// Slot returns the worker slot id, or txn.ErrBadSlot when the engine has no
// such slot.
func (k *Kernel) Slot(id int) (*Slot, error) {
	if txn.CheckSlot(id) != nil || id >= len(k.Slots) {
		return nil, fmt.Errorf("%w: %d (engine has %d)", txn.ErrBadSlot, id, len(k.Slots))
	}
	return k.Slots[id], nil
}

// Enter is the Run preamble: it resolves the txfunc, checks the slot, and
// returns it locked (the caller unlocks s.Mu) with nil args replaced by
// txn.NoArgs. A quarantined slot refuses with txn.ErrSlotQuarantined.
func (k *Kernel) Enter(slotID int, name string, args *txn.Args) (*Slot, txn.TxFunc, *txn.Args, error) {
	fn, err := k.reg.Lookup(name)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := k.Slot(slotID)
	if err != nil {
		return nil, nil, nil, err
	}
	s.Mu.Lock()
	if s.quarantined != nil {
		s.Mu.Unlock()
		return nil, nil, nil, fmt.Errorf("%w: %s slot %d: %v", txn.ErrSlotQuarantined, k.Layout.Name, s.ID, s.quarantined)
	}
	if args == nil {
		args = txn.NoArgs
	}
	return s, fn, args, nil
}

// RunRO implements txn.Engine for engines that read the pool directly.
func (k *Kernel) RunRO(slotID int, fn txn.ROFunc) error {
	if _, err := k.Slot(slotID); err != nil {
		return err
	}
	return fn(roMem{k.pool})
}

// ResetLogs starts sequence seq on the slot's volatile state: the cached
// sequence number and the three log cursors.
func (k *Kernel) ResetLogs(s *Slot, seq uint64) {
	s.Seq = seq
	s.DLog.Reset()
	s.ALog.Reset()
	s.FLog.Reset()
}

// BeginUndo is the undo engines' begin: clear both progress counters and
// persist the ongoing marker of the next sequence number, so recovery knows
// to roll back. It returns that sequence number.
func (k *Kernel) BeginUndo(s *Slot) uint64 {
	p, seq := k.pool, s.Seq+1
	p.Store64(s.Hdr+k.Layout.OffFreeApplied, 0)
	p.Store64(s.Hdr+k.Layout.OffReclaimApplied, 0)
	p.Store64(s.Hdr, seq<<2|PhaseOngoing)
	p.CommitPersist(s.Hdr, 8) // the counters share the line
	k.ResetLogs(s, seq)
	return seq
}

// SetStatus persists the slot's status word.
func (k *Kernel) SetStatus(s *Slot, seq, phase uint64) {
	if k.Layout.NoStatus {
		return
	}
	k.pool.Store64(s.Hdr, seq<<2|phase)
	k.pool.CommitPersist(s.Hdr, 8)
}

// Commit makes the transaction's dirty lines durable under one fence, then
// finishes it (see Finish).
func (k *Kernel) Commit(s *Slot, seq uint64, dirty []uint64, frees int, sp *obs.Span) {
	k.pool.FlushOptLines(dirty)
	k.pool.CommitFence()
	sp.FlushFence(len(dirty))
	k.Finish(s, seq, frees)
}

// Finish applies a committed transaction's deferred frees under the freeing
// phase, then marks the slot idle.
func (k *Kernel) Finish(s *Slot, seq uint64, frees int) {
	if frees > 0 {
		k.SetStatus(s, seq, PhaseFreeing)
		k.ApplyFrees(s, s.FLog.Scan(seq), 0)
	}
	k.SetStatus(s, seq, PhaseIdle)
}

// ApplyFrees performs deferred frees from index from on, bumping a
// persistent progress counter *before* each free so a crash can only leak,
// never double-free.
func (k *Kernel) ApplyFrees(s *Slot, addrs []uint64, from uint64) {
	p, at := k.pool, s.Hdr+k.Layout.OffFreeApplied
	for i := from; i < uint64(len(addrs)); i++ {
		p.Store64(at, i+1)
		p.CommitPersist(at, 8)
		// A corrupt free is a programming error surfaced at commit;
		// leaking is the only safe continuation.
		_ = k.alloc.Free(addrs[i])
	}
}

// Reclaim frees the allocations the slot's alloc log holds for seq,
// resuming after the persistent reclaim counter and bumping it before each
// free (a crash can only leak, never double-free). The alloc log is
// best-effort and unfenced, hence the plain scan. It returns the number of
// logged allocations.
func (k *Kernel) Reclaim(s *Slot, seq uint64) int {
	p, at := k.pool, s.Hdr+k.Layout.OffReclaimApplied
	allocs := s.ALog.Scan(seq)
	for i := p.Load64(at); i < uint64(len(allocs)); i++ {
		p.Store64(at, i+1)
		p.Persist(at, 8)
		_ = k.alloc.Free(allocs[i]) // as in ApplyFrees: leaking is the safe continuation
	}
	return len(allocs)
}

// Restore writes undo entries back in reverse order under one fence.
func (k *Kernel) Restore(entries []plog.Entry) {
	p := k.pool
	for i := len(entries) - 1; i >= 0; i-- {
		p.Store(entries[i].Addr, entries[i].Data)
		p.FlushOpt(entries[i].Addr, uint64(len(entries[i].Data)))
	}
	if len(entries) > 0 {
		p.Fence()
	}
}

// Rollback undoes transaction seq: restore its undo entries, reclaim its
// allocations, and mark the slot idle.
func (k *Kernel) Rollback(s *Slot, seq uint64, entries []plog.Entry) {
	k.Restore(entries)
	k.Reclaim(s, seq)
	k.SetStatus(s, seq, PhaseIdle)
}

// StrictEntries returns the slot's data-log entries for seq for recovery to
// apply. Every engine fences its data log before the state recovery acts on
// (each undo entry before its store, the redo batch before the commit
// marker), so the strict scan's valid-after-invalid test is sound. Entries
// are also bounds-checked. On any failure the slot is quarantined before a
// single entry is applied — a partial restore would itself tear the data it
// claims to repair — and ok is false.
func (k *Kernel) StrictEntries(s *Slot, seq uint64, log string) (entries []plog.Entry, ok bool) {
	entries, err := s.DLog.ScanStrict(seq)
	if err != nil {
		k.Quarantine(s, fmt.Errorf("%s: slot %d: %s: %w", k.Layout.Name, s.ID, log, err))
		return nil, false
	}
	for _, en := range entries {
		if end := en.Addr + uint64(len(en.Data)); end > k.pool.Size() || end < en.Addr {
			k.Quarantine(s, fmt.Errorf("%w: %s slot %d: log entry addresses [%#x,%#x) outside pool",
				txn.ErrCorruptLog, k.Layout.Name, s.ID, en.Addr, end))
			return nil, false
		}
	}
	return entries, true
}

// Quarantine sets a slot aside with the given cause (first cause wins) and
// returns OutcomeQuarantined.
func (k *Kernel) Quarantine(s *Slot, err error) Outcome {
	if s.quarantined == nil {
		s.quarantined = err
		k.stats.Quarantined.Add(1)
	}
	return OutcomeQuarantined
}

// Outcome classifies what recovery did with one slot.
type Outcome int

const (
	OutcomeIdle Outcome = iota
	OutcomeReexecuted
	OutcomeRolledBack
	OutcomeRolledForward
	OutcomeFreesResumed
	OutcomeQuarantined
)

// Complete is an engine's recovery policy for one slot whose status word
// reads idle or ongoing. It returns an error only for conditions that make
// the engine unusable (a missing txfunc registration, a failing
// re-execution); corruption quarantines the slot instead.
type Complete func(s *Slot, seq, phase uint64) (Outcome, error)

// RecoverSlots is the recovery driver of every engine. Slots recover
// concurrently: the strong strict 2PL contract makes interrupted
// transactions' lock sets — hence their footprints — disjoint. A slot
// interrupted while applying deferred frees resumes them; an idle or
// ongoing slot goes to the engine's complete policy; an undefined phase
// quarantines the slot.
//
// Corrupt logs never panic: any panic on a slot's recovery path (an
// out-of-range address from a damaged log, a codec panic on garbage bytes)
// quarantines that slot and the others proceed. A simulated crash
// (nvm.ErrCrash) is re-raised on the caller's goroutine so
// crash-during-recovery harnesses can catch it.
func (k *Kernel) RecoverSlots(complete Complete) (txn.RecoveryReport, error) {
	var (
		mu         sync.Mutex
		rep        txn.RecoveryReport
		firstErr   error
		firstPanic any
		wg         sync.WaitGroup
	)
	rep.Slots = len(k.Slots)
	for _, s := range k.Slots {
		wg.Add(1)
		go func(s *Slot) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok && errors.Is(err, nvm.ErrCrash) {
						mu.Lock()
						if firstPanic == nil {
							firstPanic = r
						}
						mu.Unlock()
						return
					}
					k.Quarantine(s, fmt.Errorf("%w: %s slot %d: recovery panic: %v", txn.ErrCorruptLog, k.Layout.Name, s.ID, r))
				}
			}()
			out, err := k.recoverSlot(s, complete)
			if out == OutcomeRolledBack || out == OutcomeRolledForward {
				k.stats.Recovered.Add(1)
				k.Probe.RecoveryEvent(s.ID, s.Seq, "")
			}
			mu.Lock()
			defer mu.Unlock()
			switch out {
			case OutcomeReexecuted:
				rep.Recovered++
				rep.Reexecuted++
			case OutcomeRolledBack:
				rep.Recovered++
				rep.RolledBack++
			case OutcomeRolledForward:
				rep.Recovered++
				rep.RolledForward++
			case OutcomeFreesResumed:
				rep.FreesResumed++
			}
			if err != nil && out != OutcomeQuarantined && firstErr == nil {
				firstErr = err
			}
		}(s)
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	for _, s := range k.Slots {
		if s.quarantined != nil {
			rep.Quarantined++
			rep.Errors = append(rep.Errors, s.quarantined)
		}
	}
	return rep, firstErr
}

func (k *Kernel) recoverSlot(s *Slot, complete Complete) (Outcome, error) {
	if s.quarantined != nil {
		return OutcomeQuarantined, s.quarantined
	}
	p := k.pool
	status := p.Load64(s.Hdr)
	seq, phase := status>>2, status&3
	s.Seq = seq
	switch phase {
	case PhaseIdle, PhaseOngoing:
		return complete(s, seq, phase)
	case PhaseFreeing:
		// The transaction had committed; only its deferred frees remain.
		// The commit fence ordered every free-log entry before the
		// freeing status, so the strict scan is sound.
		addrs, err := s.FLog.ScanStrict(seq)
		if err != nil {
			return k.Quarantine(s, fmt.Errorf("%s: slot %d: free log: %w", k.Layout.Name, s.ID, err)), nil
		}
		k.ApplyFrees(s, addrs, p.Load64(s.Hdr+k.Layout.OffFreeApplied))
		k.SetStatus(s, seq, PhaseIdle)
		return OutcomeFreesResumed, nil
	}
	// The status word persists atomically (one aligned 8-byte store), so
	// an undefined phase cannot come from a torn write.
	return k.Quarantine(s, fmt.Errorf("%w: %s slot %d: undefined phase %d", txn.ErrCorruptLog, k.Layout.Name, s.ID, phase)), nil
}

// Tx is the kernel half of a transaction's memory view: direct loads,
// undo-log appends, journaled allocation and deferred frees. Engine views
// embed it and add their store (and, for clobber and redo, load) policy.
type Tx struct {
	K     *Kernel
	S     *Slot
	Seq   uint64
	P     *nvm.Pool
	Frees int
}

// Tx opens the kernel view of transaction seq on slot s.
func (k *Kernel) Tx(s *Slot, seq uint64) Tx { return Tx{K: k, S: s, Seq: seq, P: k.pool} }

// Load implements txn.Mem.
func (t *Tx) Load(addr uint64, buf []byte) { t.P.Load(addr, buf) }

// Load64 implements txn.Mem.
func (t *Tx) Load64(addr uint64) uint64 { return t.P.Load64(addr) }

// LogOld appends the current bytes of [addr, addr+n) to the slot's data log
// as an undo entry, durable before it returns — the "log before write"
// discipline. The fence goes through CommitFence: it still blocks, so the
// entry is durable before the protected store runs, but concurrent
// transactions' log-ordering fences can share one epoch.
func (t *Tx) LogOld(addr, n uint64, kind obs.Kind) {
	old := make([]byte, n)
	t.P.Load(addr, old)
	nbytes, err := t.S.DLog.Append(t.Seq, addr, old, plog.AppendOptions{NoFence: true})
	if err != nil {
		panic(fmt.Errorf("%w: %v", ErrTxTooLarge, err))
	}
	t.P.CommitFence()
	t.K.stats.LogEntries.Add(1)
	t.K.stats.LogBytes.Add(int64(nbytes))
	t.K.Probe.LogAppend(kind, t.S.ID, t.Seq, nbytes)
}

// Alloc implements txn.Mem (the pmalloc callback). The allocation is
// recorded, best effort, so an interrupted transaction's allocations can be
// reclaimed.
func (t *Tx) Alloc(size uint64) (txn.Addr, error) {
	addr, err := t.K.alloc.Alloc(t.S.ID, size)
	if err != nil {
		return 0, err
	}
	if err := t.S.ALog.Append(t.Seq, addr, false); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrTxTooLarge, err)
	}
	return addr, nil
}

// Free implements txn.Mem. Frees are deferred to commit so an interrupted
// transaction can still read the memory it freed.
func (t *Tx) Free(addr txn.Addr) error {
	if err := t.S.FLog.Append(t.Seq, addr, false); err != nil {
		return fmt.Errorf("%w: %v", ErrTxTooLarge, err)
	}
	t.Frees++
	return nil
}

// roMem is the read-only view RunRO hands out: direct pool reads, no
// interposition — the undo-family engines pay nothing on the read path.
type roMem struct{ p *nvm.Pool }

var _ txn.Mem = roMem{}

// errReadOnly reports a mutation attempted inside a read-only operation.
var errReadOnly = errors.New("mutation inside a read-only operation")

func (r roMem) Load(addr uint64, buf []byte)        { r.p.Load(addr, buf) }
func (r roMem) Load64(addr uint64) uint64           { return r.p.Load64(addr) }
func (r roMem) Store(addr uint64, data []byte)      { panic(fmt.Errorf("store: %w", errReadOnly)) }
func (r roMem) Store64(addr uint64, v uint64)       { panic(fmt.Errorf("store: %w", errReadOnly)) }
func (r roMem) Alloc(size uint64) (txn.Addr, error) { return 0, fmt.Errorf("alloc: %w", errReadOnly) }
func (r roMem) Free(addr txn.Addr) error            { return fmt.Errorf("free: %w", errReadOnly) }
