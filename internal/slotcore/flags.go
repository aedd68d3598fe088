package slotcore

// FlagTable is the single per-transaction line table of every engine: a
// small open-addressing hash table from cache-line index to the packed
// access-class flags of the line's eight 8-byte words. It replaces a Go map
// on the transaction's hot path: the real Clobber-NVM identifies clobber
// writes at compile time and pays nothing per load at run time, so the
// dynamic detector standing in for the compiler must be as close to free as
// possible or it would distort the engine comparison. The clobber engine
// uses all three fields, the PMDK-style engine the stored and logged fields
// (first-store undo), and the Atlas-style engine only the dirty list.
//
// Packing a whole line into one uint32 (bits 0–7 input, 8–15 stored, 16–23
// logged, one bit per word) makes every lookup a single probe per line, and
// folds the dirty-line set into the same entry: a line joins the dirty list
// when its stored byte first becomes nonzero.
//
// Linear probing, power-of-two capacity, grow at 75% load. Keys are line
// indexes (addr >> 6) stored +1. Tables are reused across transactions of
// the same slot via Reset: a slot is live only when its generation stamp
// matches the table's, so Reset is O(1) rather than a clear of the whole
// capacity (one large transaction — a rehash, a bulk populate — would
// otherwise tax every later transaction of the slot with a multi-KB memclr).
type FlagTable struct {
	keys []uint64
	vals []uint32
	gen  []uint32
	cur  uint32
	n    int
	mask uint64
	// Dirty lists the line indexes touched by stores, deduplicated, in
	// first-store order: the commit flush set.
	Dirty []uint64
}

// Packed flag-field shifts: value layout is logged<<16 | stored<<8 | input,
// each field one bit per word of the line.
const (
	StoredShift = 8
	LoggedShift = 16
)

const flagTableInitial = 256

func NewFlagTable() *FlagTable {
	return &FlagTable{
		keys: make([]uint64, flagTableInitial),
		vals: make([]uint32, flagTableInitial),
		gen:  make([]uint32, flagTableInitial),
		cur:  1,
		mask: flagTableInitial - 1,
	}
}

// Reset prepares the table for a new transaction, keeping the allocation.
// Bumping the generation invalidates every slot at once; the rare wraparound
// falls back to a full clear so stale stamps can never alias.
func (t *FlagTable) Reset() {
	t.cur++
	if t.cur == 0 {
		clear(t.keys)
		clear(t.gen)
		t.cur = 1
	}
	t.n = 0
	t.Dirty = t.Dirty[:0]
}

func mixHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

// slot returns the probe index holding line (creating the entry if absent).
func (t *FlagTable) slot(line uint64) uint64 {
	k := line + 1
	i := mixHash(k) & t.mask
	for {
		if t.gen[i] != t.cur {
			t.keys[i] = k
			t.vals[i] = 0
			t.gen[i] = t.cur
			t.n++
			if t.n*4 > len(t.keys)*3 {
				t.grow()
				return t.slot(line)
			}
			return i
		}
		if t.keys[i] == k {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// MarkInput marks the words of wmask as transaction inputs. In refined mode
// words already stored by this transaction are skipped (they read a
// transaction-produced value, not an input).
func (t *FlagTable) MarkInput(line uint64, wmask uint32, conservative bool) {
	i := t.slot(line)
	if conservative {
		t.vals[i] |= wmask
		return
	}
	t.vals[i] |= wmask &^ (t.vals[i] >> StoredShift)
}

// MarkStored marks the words of wmask as stored and returns the entry's
// previous packed value so the caller can detect clobber writes. The line is
// appended to the dirty list on its first stored word.
func (t *FlagTable) MarkStored(line uint64, wmask uint32) uint32 {
	i := t.slot(line)
	old := t.vals[i]
	t.vals[i] = old | wmask<<StoredShift
	if old&(0xff<<StoredShift) == 0 {
		t.Dirty = append(t.Dirty, line)
	}
	return old
}

// MarkLogged marks the words of wmask as logged.
func (t *FlagTable) MarkLogged(line uint64, wmask uint32) {
	i := t.slot(line)
	t.vals[i] |= wmask << LoggedShift
}

func (t *FlagTable) grow() {
	oldKeys, oldVals, oldGen := t.keys, t.vals, t.gen
	t.keys = make([]uint64, len(oldKeys)*2)
	t.vals = make([]uint32, len(oldVals)*2)
	t.gen = make([]uint32, len(oldKeys)*2)
	t.mask = uint64(len(t.keys) - 1)
	t.n = 0
	for i, k := range oldKeys {
		if oldGen[i] != t.cur {
			continue
		}
		j := mixHash(k) & t.mask
		for t.gen[j] == t.cur {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
		t.gen[j] = t.cur
		t.n++
	}
}

// LineWords maps the word range [u1,u2] restricted to line l onto the
// packed per-word mask FlagTable takes.
func LineWords(l, u1, u2 uint64) uint32 {
	lo, hi := uint64(0), uint64(7)
	if l == u1>>3 {
		lo = u1 & 7
	}
	if l == u2>>3 {
		hi = u2 & 7
	}
	return uint32(0xff) >> (7 - (hi - lo)) << lo
}
