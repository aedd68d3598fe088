// Package clobber implements Clobber-NVM's failure-atomicity engine: the
// paper's primary contribution (§3–§4).
//
// Clobber logging is undo-then-reexecute with the undo logging restricted to
// clobber writes — stores that overwrite a transaction *input* (a value read
// before it is written inside the transaction). Recovery restores the
// clobbered inputs from the clobber_log, restores volatile inputs (function
// name and arguments) from the v_log, and re-executes the interrupted
// transaction from the beginning; everything else the crash tore is simply
// overwritten by the deterministic re-execution.
//
// The paper identifies clobber writes with an LLVM pass. Go offers no such
// hook, so this engine interposes on every transactional memory access
// (txn.Mem — exactly where the compiler pass would have inserted callbacks)
// and detects clobber writes dynamically with a per-transaction access map:
// a store to a location that was loaded earlier in the transaction, and has
// not already been clobber-logged, is a clobber write. Two precision modes
// reproduce the compiler ablation of §5.9 (Figure 13):
//
//   - refined (default): word-granularity tracking; loads of locations the
//     transaction itself already wrote are not inputs (the "unexposed"
//     refinement), and locations already clobber-logged are never logged
//     again (the "shadowed" refinement, which in loops removes every
//     iteration after the first);
//   - conservative: the same tracking with neither refinement — loads of
//     self-written words still register as inputs and already-logged words
//     are logged again on later stores, modelling alias-analysis-only
//     identification without dependency propagation.
//
// Log layout per worker slot (fixed table, one slot per thread, matching the
// paper's per-thread v_log):
//
//	status word   seq<<2 | phase   (idle / ongoing / freeing)
//	v_log         txfunc name + encoded args + checksum, in a pre-allocated
//	              buffer — one entry, hence exactly two fences per
//	              transaction (begin and commit), the property §5.3 credits
//	              for v_log's low cost
//	clobber_log   a plog.DataLog of (addr, old bytes) records, one fence per
//	              entry (built over the same log subsystem as the PMDK-style
//	              undo engine, as in the paper)
//	alloc log     best-effort record of transactional allocations, reclaimed
//	              before re-execution so re-executed pmallocs do not leak
//	free log      deferred frees, applied only after commit so interrupted
//	              transactions can still read the memory they freed
package clobber

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/slotcore"
	"clobbernvm/internal/txn"
)

const (
	anchorMagic = 0x434c4f4252 // "CLOBR"

	maxNameLen = 64

	// Slot header field offsets (the status word is at 0).
	offNameLen        = 8
	offName           = 16
	offArgsLen        = 16 + maxNameLen
	offVLogChecksum   = offArgsLen + 8
	offFreeApplied    = offVLogChecksum + 8
	offReclaimApplied = offFreeApplied + 8
	offArgs           = 128
)

// rootSlot is the pool root slot anchoring this engine's slot table.
const rootSlot = 1

// Options configures engine creation.
type Options struct {
	// Slots is the number of worker slots (default txn.MaxSlots).
	Slots int
	// ArgsCap is the per-slot v_log buffer capacity (default 4096).
	ArgsCap uint64
	// DataLogCap is the per-slot clobber_log capacity (default 1 MiB).
	DataLogCap uint64
	// AllocLogCap / FreeLogCap bound per-transaction allocs and frees
	// (default 4096 each).
	AllocLogCap int
	FreeLogCap  int
	// Conservative disables the dependency-analysis refinements
	// (Fig 13 baseline).
	Conservative bool
	// DisableVLog skips v_log persistence (Clobber-NVM-clobberlog variant
	// of §5.3; NOT failure-atomic).
	DisableVLog bool
	// DisableClobberLog skips clobber_log persistence (Clobber-NVM-vlog
	// variant of §5.3; NOT failure-atomic).
	DisableClobberLog bool
	// LineLog formats the clobber_log with the write-combined line writer:
	// entries stream through a 64-byte staging buffer, one Store+FlushOpt
	// per touched line, validated by per-line validity words. Attach
	// detects the mode from the log magic, so only Create needs the flag.
	LineLog bool
}

// ErrTxTooLarge reports exhaustion of a per-transaction log area.
var ErrTxTooLarge = slotcore.ErrTxTooLarge

// ErrDirtyAbort reports a txfunc error after it had already stored to
// persistent memory: clobber transactions commit at begin and cannot roll
// back, so failing after the first store violates the programming model.
var ErrDirtyAbort = errors.New("clobber: txfunc failed after writing (transactions cannot abort)")

// Engine is the Clobber-NVM failure-atomicity engine.
type Engine struct {
	slotcore.Kernel
	opts Options
	// vbufs stage each slot's v_log entry so begin issues one Store for
	// the whole header+args block instead of one per field.
	vbufs [][]byte
}

var (
	_ txn.Engine           = (*Engine)(nil)
	_ txn.RecoveryReporter = (*Engine)(nil)
)

// layout is the clobber slot format for a v_log of argsCap bytes.
func (o Options) layout(argsCap uint64) slotcore.Layout {
	return slotcore.Layout{
		Name: "clobber", Magic: anchorMagic, Root: rootSlot, AnchorHdr: 24,
		HdrSize: align8(offArgs + argsCap), ZeroSize: offArgs,
		OffFreeApplied: offFreeApplied, OffReclaimApplied: offReclaimApplied,
		NoStatus: o.DisableVLog,
	}
}

// Create formats a fresh engine on the pool. The allocator must already be
// created. The engine anchor is stored in pool root slot 1; anchor word 2
// records the v_log capacity.
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	if opts.ArgsCap == 0 {
		opts.ArgsCap = 4096
	}
	sz := slotcore.Options{Slots: opts.Slots, DataLogCap: opts.DataLogCap,
		AllocLogCap: opts.AllocLogCap, FreeLogCap: opts.FreeLogCap, LineLog: opts.LineLog}
	sz.Fill()
	e := &Engine{opts: opts}
	anchor, err := e.NewAnchor(p, a, opts.layout(opts.ArgsCap), e.Name(), sz.Slots)
	if err != nil {
		return nil, err
	}
	p.Store64(anchor+16, opts.ArgsCap)
	if err := e.FormatSlots(anchor, sz); err != nil {
		return nil, err
	}
	e.vbufs = make([][]byte, len(e.Slots))
	return e, nil
}

// Attach opens an engine previously created on the pool (after restart or
// crash). Register all txfuncs, then call Recover. Only the behaviour flags
// of opts matter: sizes come from the pool.
func Attach(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	e := &Engine{opts: opts}
	anchor, n, err := e.OpenAnchor(p, a, opts.layout(0), e.Name())
	if err != nil {
		return nil, err
	}
	e.opts.ArgsCap = p.Load64(anchor + 16)
	if e.opts.ArgsCap > p.Size() {
		return nil, fmt.Errorf("clobber: corrupt anchor: args cap %#x", e.opts.ArgsCap)
	}
	e.Layout.HdrSize = align8(offArgs + e.opts.ArgsCap)
	e.AttachSlots(anchor, n)
	e.vbufs = make([][]byte, n)
	return e, nil
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// Name implements txn.Engine.
func (e *Engine) Name() string {
	if e.opts.Conservative {
		return "clobber-conservative"
	}
	return "clobber"
}

// Run implements txn.Engine: it executes the registered txfunc
// failure-atomically on the given worker slot.
func (e *Engine) Run(slotID int, name string, args *txn.Args) error {
	s, fn, args, err := e.Enter(slotID, name, args)
	if err != nil {
		return err
	}
	defer s.Mu.Unlock()
	return e.runLocked(s, name, args, fn, false)
}

func (e *Engine) runLocked(s *slotcore.Slot, name string, args *txn.Args, fn txn.TxFunc, recovered bool) error {
	sp := e.Probe.Start(s.ID, name)
	seq := s.Seq + 1
	if err := e.begin(s, seq, name, args, &sp); err != nil {
		return err
	}
	sp.BeginDone(seq)
	e.ResetLogs(s, seq)

	m := &mem{Tx: e.Tx(s, seq), e: e, t: s.Lines()}
	if err := fn(m, args); err != nil {
		if m.stored {
			panic(fmt.Errorf("%w: txfunc %q: %v", ErrDirtyAbort, name, err))
		}
		// No persistent effects yet: the transaction trivially aborts.
		e.SetStatus(s, seq, slotcore.PhaseIdle)
		sp.Aborted()
		return err
	}
	sp.ExecDone()
	// Commit: outputs durable (one fence), then deferred frees.
	e.Commit(s, seq, m.t.Dirty, m.Frees, &sp)
	e.Stats().Committed.Add(1)
	if recovered {
		e.Stats().Recovered.Add(1)
	}
	sp.Committed(recovered)
	return nil
}

// begin writes the v_log entry: txfunc name, encoded arguments and a
// checksum binding them to this sequence, then the ongoing status word —
// all flushed together and ordered by a single fence.
func (e *Engine) begin(s *slotcore.Slot, seq uint64, name string, args *txn.Args, sp *obs.Span) error {
	if len(name) > maxNameLen {
		return fmt.Errorf("clobber: txfunc name %q exceeds %d bytes", name, maxNameLen)
	}
	encLen := args.EncodedSize()
	if uint64(encLen) > e.opts.ArgsCap {
		return fmt.Errorf("%w: %d arg bytes (cap %d)", ErrTxTooLarge, encLen, e.opts.ArgsCap)
	}
	p := e.Pool()
	if !e.opts.DisableVLog {
		// Stage the whole v_log entry — status word, name, args and
		// checksum — and write it with a single Store; one flush set and
		// one fence order it, preserving §5.3's two-fences-per-transaction
		// property at a fraction of the old per-field store traffic. The
		// arguments serialize straight into the staging buffer.
		total := offArgs + encLen
		if cap(e.vbufs[s.ID]) < total {
			e.vbufs[s.ID] = make([]byte, offArgs+int(e.opts.ArgsCap))
		}
		buf := e.vbufs[s.ID][:total]
		clear(buf[:offArgs])
		enc := args.AppendEncoded(buf[offArgs:offArgs])
		putU64(buf, seq<<2|slotcore.PhaseOngoing)
		putU64(buf[offNameLen:], uint64(len(name)))
		copy(buf[offName:offName+maxNameLen], name)
		putU64(buf[offArgsLen:], uint64(len(enc)))
		putU64(buf[offVLogChecksum:], vlogChecksum(seq, name, enc))
		p.Store(s.Hdr, buf)
		p.FlushOpt(s.Hdr, uint64(total))
		p.CommitFence()
		e.Stats().VLogEntries.Add(1)
		e.Stats().VLogBytes.Add(int64(len(name) + len(enc)))
		sp.VLogAppend(len(name) + len(enc))
	}
	return nil
}

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// vlogChecksum binds a v_log entry's name and encoded arguments to its
// sequence number. The argument blob dominates the input (values run to
// hundreds of bytes), so it is folded eight bytes per round; the checksum
// only ever guards entries written and verified by this code, never an
// external format.
func vlogChecksum(seq uint64, name string, enc []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ seq
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= 0xabcd
	for len(enc) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(enc)) * 0x100000001b3
		h ^= h >> 29
		enc = enc[8:]
	}
	var tail uint64
	for i := len(enc) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(enc[i])
	}
	h = (h ^ tail ^ uint64(len(enc))<<56) * 0x100000001b3
	h ^= h >> 32
	return h
}

// Recover implements txn.Engine; see RecoverReport for the full outcome.
func (e *Engine) Recover() (int, error) {
	rep, err := e.RecoverReport()
	return rep.Recovered, err
}

// RecoverReport implements txn.RecoveryReporter (§4.3, hardened). For every
// slot with an ongoing transaction it (1) restores clobbered inputs from the
// clobber_log, (2) reclaims the interrupted execution's allocations,
// (3) re-executes the transaction via the registered txfunc with the
// arguments restored from the v_log. Slots interrupted while applying
// deferred frees resume them.
//
// Corrupt logs never panic: a slot whose v_log or clobber_log fails
// validation is quarantined — its persistent state is left untouched and
// Run on it returns txn.ErrSlotQuarantined — and recovery of the remaining
// slots proceeds. The returned error is reserved for conditions that make
// the engine unusable (a missing txfunc registration, a failing
// re-execution). Slots recover concurrently ("Clobber-NVM recovers each
// thread independently"); see slotcore.Kernel.RecoverSlots.
func (e *Engine) RecoverReport() (txn.RecoveryReport, error) { return e.RecoverSlots(e.complete) }

// complete is clobber's recovery policy for one slot.
func (e *Engine) complete(s *slotcore.Slot, seq, phase uint64) (slotcore.Outcome, error) {
	if phase == slotcore.PhaseIdle {
		return slotcore.OutcomeIdle, nil
	}
	p := e.Pool()

	// Ongoing: validate the v_log entry.
	var (
		vlogOK  bool
		nameBuf []byte
		enc     []byte
	)
	nameLen := p.Load64(s.Hdr + offNameLen)
	argsLen := p.Load64(s.Hdr + offArgsLen)
	if nameLen <= maxNameLen && argsLen <= e.opts.ArgsCap {
		nameBuf = make([]byte, nameLen)
		p.Load(s.Hdr+offName, nameBuf)
		enc = make([]byte, argsLen)
		if argsLen > 0 {
			p.Load(s.Hdr+offArgs, enc)
		}
		vlogOK = p.Load64(s.Hdr+offVLogChecksum) == vlogChecksum(seq, string(nameBuf), enc)
	}
	if !vlogOK {
		// Clobber appends are fenced per entry, so the strict scan is sound.
		if entries, err := s.DLog.ScanStrict(seq); err != nil || len(entries) > 0 {
			// Clobber entries exist for this sequence (or the log shows
			// post-hoc damage). Sequence numbers are never reused across
			// attempts, and logClobber only runs after begin's fence — so
			// a valid v_log entry WAS durable and has since been damaged.
			return e.Quarantine(s, fmt.Errorf("%w: clobber slot %d: v_log checksum mismatch for seq %d with %d clobber entries",
				txn.ErrCorruptLog, s.ID, seq, len(entries))), nil
		}
		// Torn begin: the fence never completed, the transaction performed
		// no persistent writes. Clear and move on. (A corrupted v_log of a
		// transaction with zero clobber entries is indistinguishable from
		// this case; the slot state stays consistent either way, only the
		// re-execution is lost.)
		e.SetStatus(s, seq, slotcore.PhaseIdle)
		return slotcore.OutcomeIdle, nil
	}
	entries, ok := e.StrictEntries(s, seq, "clobber log")
	if !ok {
		return slotcore.OutcomeQuarantined, nil
	}
	// 1. Restore clobbered inputs. 2. Reclaim the interrupted execution's
	// allocations so re-execution does not leak.
	e.Restore(entries)
	e.Reclaim(s, seq)

	// 3. Re-execute.
	args, err := txn.DecodeArgs(enc)
	if err != nil {
		return e.Quarantine(s, fmt.Errorf("%w: clobber slot %d: undecodable v_log args: %v", txn.ErrCorruptLog, s.ID, err)), nil
	}
	fn, err := e.Lookup(string(nameBuf))
	if err != nil {
		return slotcore.OutcomeIdle, fmt.Errorf("clobber: slot %d: recovery needs txfunc %q: %w", s.ID, nameBuf, err)
	}
	if err := e.runLocked(s, string(nameBuf), args, fn, true); err != nil {
		return slotcore.OutcomeIdle, fmt.Errorf("clobber: slot %d: re-execution of %q failed: %w", s.ID, nameBuf, err)
	}
	return slotcore.OutcomeReexecuted, nil
}

// SlotStatus describes one worker slot's persistent recovery state, for
// operational inspection (cmd tools, tests, post-crash triage).
type SlotStatus struct {
	// Slot is the worker slot id.
	Slot int
	// Seq is the slot's current transaction sequence number.
	Seq uint64
	// Phase is "idle", "ongoing" or "freeing".
	Phase string
	// TxFunc is the v_log-recorded function name (ongoing slots only).
	TxFunc string
	// ArgBytes is the encoded argument size in the v_log.
	ArgBytes int
	// ClobberEntries counts valid clobber_log records for Seq.
	ClobberEntries int
}

// SlotStatuses reads every slot's persistent state. Safe to call on an
// attached engine before Recover to see what recovery would do.
func (e *Engine) SlotStatuses() []SlotStatus {
	p := e.Pool()
	out := make([]SlotStatus, 0, len(e.Slots))
	for _, s := range e.Slots {
		if s.Quarantined() != nil {
			out = append(out, SlotStatus{Slot: s.ID, Phase: "quarantined"})
			continue
		}
		status := p.Load64(s.Hdr)
		seq, phase := status>>2, status&3
		st := SlotStatus{Slot: s.ID, Seq: seq}
		switch phase {
		case slotcore.PhaseOngoing:
			st.Phase = "ongoing"
			nameLen := p.Load64(s.Hdr + offNameLen)
			if nameLen <= maxNameLen {
				buf := make([]byte, nameLen)
				p.Load(s.Hdr+offName, buf)
				st.TxFunc = string(buf)
			}
			st.ArgBytes = int(p.Load64(s.Hdr + offArgsLen))
			st.ClobberEntries = len(s.DLog.Scan(seq))
		case slotcore.PhaseFreeing:
			st.Phase = "freeing"
		default:
			st.Phase = "idle"
		}
		out = append(out, st)
	}
	return out
}
