// Package redolog implements a Mnemosyne-style redo-logging engine.
//
// Writes inside a transaction are buffered in a volatile write set; at commit
// the write set is serialized to a persistent redo log (flushes but only one
// fence for the whole batch), a commit marker is persisted, and then the
// buffered writes are applied in place. The defining trade-offs the paper
// measures both appear naturally:
//
//   - few ordering fences regardless of transaction size (redo wins on
//     long transactions — the B+tree observation in §5.2), and
//   - every transactional load must consult the write set first, the
//     "longer read path" that costs Mnemosyne on search-heavy workloads
//     (§5.6) — counted in Stats.ReadChecks.
//
// Mnemosyne parallelizes with transactional memory rather than locks; as in
// the paper's comparison, what matters here is the logging strategy, so this
// engine uses the same slot/locking discipline as the others.
package redolog

import (
	"errors"
	"fmt"
	"sort"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/obs"
	"clobbernvm/internal/plog"
	"clobbernvm/internal/pmem"
	"clobbernvm/internal/slotcore"
	"clobbernvm/internal/txn"
)

const (
	anchorMagic = 0x5245444f // "REDO"

	// phaseApplying is the commit marker: the log is complete, apply in
	// progress.
	phaseApplying = slotcore.PhaseOngoing

	// Slot header: status word, then the two progress counters.
	offStatus         = 0
	offFreeApplied    = 8
	offReclaimApplied = 16
	hdrSize           = 64
)

// rootSlot is the pool root slot anchoring this engine.
const rootSlot = 4

var layout = slotcore.Layout{
	Name: "redolog", Magic: anchorMagic, Root: rootSlot, AnchorHdr: 16,
	HdrSize: hdrSize, ZeroSize: hdrSize,
	OffFreeApplied: offFreeApplied, OffReclaimApplied: offReclaimApplied,
}

// Options configures engine creation.
type Options = slotcore.Options

// Engine is the Mnemosyne-style redo-logging engine.
type Engine struct {
	slotcore.Kernel
}

var (
	_ txn.Engine           = (*Engine)(nil)
	_ txn.RecoveryReporter = (*Engine)(nil)
)

// Create formats a fresh engine on the pool (anchor in root slot 4).
func Create(p *nvm.Pool, a *pmem.Allocator, opts Options) (*Engine, error) {
	opts.Fill()
	e := &Engine{}
	anchor, err := e.NewAnchor(p, a, layout, e.Name(), opts.Slots)
	if err != nil {
		return nil, err
	}
	if err := e.FormatSlots(anchor, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Attach opens a previously created engine. Per-slot log corruption
// quarantines the slot instead of failing the attach; only a damaged anchor
// is fatal.
func Attach(p *nvm.Pool, a *pmem.Allocator, _ Options) (*Engine, error) {
	e := &Engine{}
	anchor, n, err := e.OpenAnchor(p, a, layout, e.Name())
	if err != nil {
		return nil, err
	}
	e.AttachSlots(anchor, n)
	return e, nil
}

// Name implements txn.Engine.
func (e *Engine) Name() string { return "mnemosyne" }

// Run implements txn.Engine.
func (e *Engine) Run(slotID int, name string, args *txn.Args) error {
	s, fn, args, err := e.Enter(slotID, name, args)
	if err != nil {
		return err
	}
	defer s.Mu.Unlock()
	sp := e.Probe.Start(s.ID, name)
	seq := s.Seq + 1
	e.ResetLogs(s, seq)
	p := e.Pool()
	p.Store64(s.Hdr+offFreeApplied, 0)
	p.Store64(s.Hdr+offReclaimApplied, 0)
	p.Flush(s.Hdr, 24)
	sp.BeginDone(seq)

	m := &mem{Tx: e.Tx(s, seq), ws: make(map[uint64]wsEntry)}
	if err := fn(m, args); err != nil {
		// Aborting a redo transaction is trivial: discard the write set.
		// Eager allocations must be reclaimed, and the alloc log durably
		// invalidated so a crash cannot replay these frees.
		for _, addr := range s.ALog.Scan(seq) {
			_ = e.Allocator().Free(addr)
		}
		s.ALog.Invalidate()
		sp.Aborted()
		return err
	}
	sp.ExecDone()
	e.commit(s, seq, m, &sp)
	e.Stats().Committed.Add(1)
	sp.Committed(false)
	return nil
}

// commit serializes the write set to the redo log (one fence for the whole
// batch), persists the commit marker, applies the writes in place, and
// invalidates the log.
func (e *Engine) commit(s *slotcore.Slot, seq uint64, m *mem, sp *obs.Span) {
	p := e.Pool()
	ranges := m.coalesce()
	// The whole write set goes to the log as one batch: a single staged
	// store, one flush issue set, and the one fence redo discipline needs.
	batch := make([]plog.BatchEntry, len(ranges))
	for i, r := range ranges {
		batch[i] = plog.BatchEntry{Addr: r.addr, Data: r.data}
	}
	nbytes, err := s.DLog.AppendBatch(seq, batch, plog.AppendOptions{NoFence: true})
	if err != nil {
		panic(fmt.Errorf("%w: %v", slotcore.ErrTxTooLarge, err))
	}
	// One groupable ordering fence makes the whole batch durable before
	// the commit marker below can win.
	p.CommitFence()
	e.Stats().LogEntries.Add(int64(len(ranges)))
	e.Stats().LogBytes.Add(int64(nbytes))
	e.Probe.LogAppend(obs.KindLogAppend, s.ID, seq, nbytes)

	// Commit point: once this marker is durable the transaction wins.
	e.SetStatus(s, seq, phaseApplying)

	// Apply in place and persist the home locations.
	for _, r := range ranges {
		p.Store(r.addr, r.data)
		p.FlushOpt(r.addr, uint64(len(r.data)))
	}
	p.CommitFence()
	sp.FlushFence(len(ranges))
	e.Finish(s, seq, m.Frees)
}

// RunRO implements txn.Engine. Mnemosyne interposes on every transactional
// load, even in read-only transactions — the read path checks the (empty)
// write set, which is precisely the overhead the paper attributes to
// redo-log systems on search-intensive workloads.
func (e *Engine) RunRO(slotID int, fn txn.ROFunc) error {
	s, err := e.Slot(slotID)
	if err != nil {
		return err
	}
	return fn(&mem{Tx: e.Tx(s, 0), ro: true, ws: make(map[uint64]wsEntry)})
}

// Recover implements txn.Engine: committed-but-unapplied logs are replayed
// (roll forward); uncommitted transactions left no persistent trace beyond
// eagerly allocated blocks, which are reclaimed.
func (e *Engine) Recover() (int, error) {
	rep, err := e.RecoverReport()
	return rep.Recovered, err
}

// RecoverReport implements txn.RecoveryReporter. The phaseApplying marker is
// persisted only after the fence that makes every redo entry durable, so at
// replay time the log is fence-ordered and the strict scan is sound.
func (e *Engine) RecoverReport() (txn.RecoveryReport, error) { return e.RecoverSlots(e.complete) }

// complete replays a committed-but-unapplied transaction, or cleans up
// after one that never reached its commit point.
func (e *Engine) complete(s *slotcore.Slot, seq, phase uint64) (slotcore.Outcome, error) {
	p := e.Pool()
	if phase == phaseApplying {
		entries, ok := e.StrictEntries(s, seq, "redo log")
		if !ok {
			return slotcore.OutcomeQuarantined, nil
		}
		for _, en := range entries {
			p.Store(en.Addr, en.Data)
			p.FlushOpt(en.Addr, uint64(len(en.Data)))
		}
		p.Fence()
		e.ApplyFrees(s, s.FLog.Scan(seq), p.Load64(s.Hdr+offFreeApplied))
		e.SetStatus(s, seq, slotcore.PhaseIdle)
		return slotcore.OutcomeRolledForward, nil
	}
	// Idle. A transaction that started after the last commit but never
	// reached its commit point ran under seq+1 (the status word only
	// advances at commit); its eager allocations are leaked blocks to
	// reclaim. Allocations recorded under seq belong to the committed
	// transaction and are live.
	if e.Reclaim(s, seq+1) > 0 {
		s.ALog.Invalidate()
	}
	// A crashed attempt may have written redo entries under seq+1
	// without reaching its commit marker; destroy them so a future
	// attempt reusing that sequence cannot replay them.
	s.DLog.Invalidate()
	// Invalidate alone is not enough: it destroys only the first
	// entry, while the dead attempt's unfenced batch may have left
	// valid seq+1 entries deeper in the log (eviction persists lines
	// in any order). If the sequence were reused and the new batch
	// came up shorter, a later recovery scan would walk off the end of
	// the fresh entries straight into the stale ones — same sequence,
	// intact checksums — and replay writes whose target addresses have
	// since been reclaimed. Burning the dead sequence in the durable
	// status word makes those entries unreachable under any future
	// scan. Undo engines never face this: their begin record advances
	// the status word before the first log write.
	s.Seq = seq + 1
	e.SetStatus(s, s.Seq, slotcore.PhaseIdle)
	return slotcore.OutcomeIdle, nil
}

// wsEntry buffers one word of the write set: val holds the bytes, mask marks
// which of the eight bytes were written.
type wsEntry struct {
	val  [8]byte
	mask uint8
}

// mem is the redo transactional memory view: writes buffer, reads overlay.
type mem struct {
	slotcore.Tx
	ro bool
	ws map[uint64]wsEntry
}

var _ txn.Mem = (*mem)(nil)

// Load implements txn.Mem with write-set overlay — the redo read path.
func (m *mem) Load(addr uint64, buf []byte) {
	m.P.Load(addr, buf)
	n := uint64(len(buf))
	if n == 0 {
		return
	}
	for w := addr >> 3; w <= (addr+n-1)>>3; w++ {
		m.K.Stats().ReadChecks.Add(1)
		en, ok := m.ws[w]
		if !ok {
			continue
		}
		base := w << 3
		for b := 0; b < 8; b++ {
			if en.mask&(1<<b) == 0 {
				continue
			}
			off := base + uint64(b)
			if off >= addr && off < addr+n {
				buf[off-addr] = en.val[b]
			}
		}
	}
}

// Load64 implements txn.Mem.
func (m *mem) Load64(addr uint64) uint64 {
	var buf [8]byte
	m.Load(addr, buf[:])
	return uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24 |
		uint64(buf[4])<<32 | uint64(buf[5])<<40 | uint64(buf[6])<<48 | uint64(buf[7])<<56
}

// Store implements txn.Mem: buffered until commit.
func (m *mem) Store(addr uint64, data []byte) {
	if m.ro {
		panic("redolog: store in read-only op")
	}
	for i, b := range data {
		off := addr + uint64(i)
		w := off >> 3
		en := m.ws[w]
		en.val[off&7] = b
		en.mask |= 1 << (off & 7)
		m.ws[w] = en
	}
}

// Store64 implements txn.Mem.
func (m *mem) Store64(addr uint64, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	m.Store(addr, buf[:])
}

// Alloc implements txn.Mem: allocation is eager (journaled by the
// allocator) and recorded for reclamation if the transaction aborts.
func (m *mem) Alloc(size uint64) (txn.Addr, error) {
	if m.ro {
		return 0, errors.New("redolog: alloc in read-only op")
	}
	return m.Tx.Alloc(size)
}

// Free implements txn.Mem: deferred to commit.
func (m *mem) Free(addr txn.Addr) error {
	if m.ro {
		return errors.New("redolog: free in read-only op")
	}
	return m.Tx.Free(addr)
}

type wrange struct {
	addr uint64
	data []byte
}

// coalesce converts the word-granular write set into maximal contiguous
// ranges, the unit Mnemosyne writes to its redo log.
func (m *mem) coalesce() []wrange {
	if len(m.ws) == 0 {
		return nil
	}
	words := make([]uint64, 0, len(m.ws))
	for w := range m.ws {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })

	var out []wrange
	var cur *wrange
	flushByte := func(off uint64, b byte) {
		if cur != nil && off == cur.addr+uint64(len(cur.data)) {
			cur.data = append(cur.data, b)
			return
		}
		out = append(out, wrange{addr: off})
		cur = &out[len(out)-1]
		cur.data = append(cur.data, b)
	}
	for _, w := range words {
		en := m.ws[w]
		// Unwritten bytes inside a written word must keep their current
		// contents: fill them from the pool so the range apply is exact.
		var cache [8]byte
		if en.mask != 0xFF {
			m.P.Load(w<<3, cache[:])
		}
		for b := uint64(0); b < 8; b++ {
			if en.mask&(1<<b) != 0 {
				flushByte(w<<3+b, en.val[b])
			} else if en.mask != 0 && cur != nil && w<<3+b == cur.addr+uint64(len(cur.data)) &&
				en.mask>>(b+1) != 0 {
				// Bridge an interior gap within the word with cached bytes
				// to keep ranges contiguous (fewer log entries).
				flushByte(w<<3+b, cache[b])
			}
		}
	}
	return out
}
