package clobber

import (
	"clobbernvm/internal/obs"
	"clobbernvm/internal/slotcore"
	"clobbernvm/internal/txn"
)

// mem is the in-transaction memory view. Every access runs through it,
// exactly where the Clobber-NVM compiler would have inserted callbacks.
// The access map (the slot's FlagTable) is the run-time stand-in for the
// compiler's dependency analysis: it classifies each tracked word of the
// transaction's footprint as input, stored and/or logged.
type mem struct {
	slotcore.Tx
	e *Engine
	t *slotcore.FlagTable

	stored bool
}

var _ txn.Mem = (*mem)(nil)

// Load implements txn.Mem.
func (m *mem) Load(addr uint64, buf []byte) {
	m.trackLoad(addr, uint64(len(buf)))
	m.P.Load(addr, buf)
}

// Load64 implements txn.Mem.
func (m *mem) Load64(addr uint64) uint64 {
	m.trackLoad(addr, 8)
	return m.P.Load64(addr)
}

func (m *mem) trackLoad(addr, n uint64) {
	if n == 0 {
		return
	}
	// With the clobber_log disabled (No-log / v_log-only variants of §5.3)
	// there is nothing to detect, so the baseline pays no tracking.
	if m.e.opts.DisableClobberLog {
		return
	}
	// Conservative identification cannot prove a read is dominated by the
	// transaction's own store (the "unexposed" pattern), so every load marks
	// its units as candidate inputs; refined identification skips units this
	// transaction already stored.
	conservative := m.e.opts.Conservative
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		m.t.MarkInput(l, slotcore.LineWords(l, u1, u2), conservative)
	}
}

// Store implements txn.Mem. It detects clobber writes and logs the old
// value before applying the store — the clobber_log callback of §4.2.
func (m *mem) Store(addr uint64, data []byte) {
	m.preStore(addr, uint64(len(data)))
	m.P.Store(addr, data)
}

// Store64 implements txn.Mem.
func (m *mem) Store64(addr uint64, v uint64) {
	m.preStore(addr, 8)
	m.P.Store64(addr, v)
}

func (m *mem) preStore(addr, n uint64) {
	if n == 0 {
		return
	}
	m.stored = true
	needLog := false
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		wmask := slotcore.LineWords(l, u1, u2)
		old := m.t.MarkStored(l, wmask)
		if clob := old & wmask; clob != 0 {
			// Conservative identification lacks the "shadowed" refinement:
			// it cannot prove an earlier clobber write already covered this
			// unit, so it logs again (the in-loops pattern of Figure 5).
			if m.e.opts.Conservative || clob&^(old>>slotcore.LoggedShift) != 0 {
				needLog = true
			}
		}
	}
	if needLog && !m.e.opts.DisableClobberLog {
		m.logClobber(addr, n)
	}
}

// logClobber records the pre-store value of [addr, addr+n) in the
// clobber_log (one flush set + one fence, the PMDK undo-log discipline) and
// marks the covered units logged so shadowed writes skip the log.
func (m *mem) logClobber(addr, n uint64) {
	m.LogOld(addr, n, obs.KindClobberLog)
	u1, u2 := addr>>3, (addr+n-1)>>3
	for l := u1 >> 3; l <= u2>>3; l++ {
		m.t.MarkLogged(l, slotcore.LineWords(l, u1, u2))
	}
}

// Alloc implements txn.Mem (the pmalloc callback). Without a v_log there is
// no recovery to reclaim for, so the allocation goes unrecorded.
func (m *mem) Alloc(size uint64) (txn.Addr, error) {
	if m.e.opts.DisableVLog {
		return m.e.Allocator().Alloc(m.S.ID, size)
	}
	return m.Tx.Alloc(size)
}
