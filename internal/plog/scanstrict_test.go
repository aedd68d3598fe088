package plog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clobbernvm/internal/nvm"
	"clobbernvm/internal/txn"
)

// plantEntry writes a complete, checksum-valid legacy entry image for seq at
// log offset off and persists it, bypassing Append's bookkeeping: the
// adversary's way of putting a valid entry anywhere in the log.
func plantEntry(p *nvm.Pool, l *DataLog, off, seq, addr uint64, payload []byte) {
	img := make([]byte, entryHeaderSize+len(payload)+entryTrailerSize)
	binary.LittleEndian.PutUint64(img[0:], seq)
	binary.LittleEndian.PutUint64(img[8:], addr)
	binary.LittleEndian.PutUint32(img[16:], uint32(len(payload)))
	copy(img[entryHeaderSize:], payload)
	binary.LittleEndian.PutUint64(img[entryHeaderSize+len(payload):], checksum(seq, addr, l.slot, payload))
	p.Store(l.base+off, img)
	p.Persist(l.base+off, uint64(len(img)))
}

// scanStrictReference is the per-offset probe ScanStrict replaced: every
// aligned offset past the torn extent is read and checked through the pool
// one entry at a time. The bulk probe must reach the same verdict.
func scanStrictReference(l *DataLog, seq uint64) error {
	_, stop := l.scanFrom(seq)
	p := l.pool
	var hdr [entryHeaderSize]byte
	probe := stop + 8
	if stop+entryHeaderSize+entryTrailerSize <= l.cap {
		p.Load(l.base+stop, hdr[:])
		if binary.LittleEndian.Uint64(hdr[0:]) == seq {
			plen := uint64(binary.LittleEndian.Uint32(hdr[16:]))
			if stop+entryHeaderSize+plen+entryTrailerSize <= l.cap {
				probe = stop + (entryHeaderSize+plen+entryTrailerSize+7)&^7
			}
		}
	}
	for off := probe; off+entryHeaderSize+entryTrailerSize <= l.cap; off += 8 {
		if _, ok := l.entryAt(off, seq); ok {
			return fmt.Errorf("%w: data log slot %d: valid entry for seq %d at offset %#x beyond torn entry at %#x",
				txn.ErrCorruptLog, l.slot, seq, off, stop)
		}
	}
	return nil
}

// tornLog formats a log of the given capacity holding one valid seq-7 entry
// at offset 0 followed by a torn one (a zeroed header) at offset 40, so
// ScanStrict stops at 40 and probes from 48.
func tornLog(t *testing.T, capacity uint64) (*nvm.Pool, *DataLog) {
	t.Helper()
	p := nvm.New(1<<22, nvm.WithEvictProbability(0))
	l := FormatDataLog(p, 2, p.HeapBase(), capacity)
	l.Reset()
	if _, err := l.Append(7, 0x100, []byte("entry-A!"), AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	return p, l
}

// strictProbeStart is where tornLog's ScanStrict begins probing.
const strictProbeStart = 48

// scanStrictCounts runs ScanStrict and checks that it wrote nothing: the
// probe may only ever load.
func scanStrictCounts(t *testing.T, p *nvm.Pool, l *DataLog, seq uint64) error {
	t.Helper()
	before := p.Stats()
	_, err := l.ScanStrict(seq)
	after := p.Stats()
	if after.Stores != before.Stores || after.Flushes != before.Flushes || after.Fences != before.Fences {
		t.Fatalf("ScanStrict persisted something: stores %d→%d flushes %d→%d fences %d→%d",
			before.Stores, after.Stores, before.Flushes, after.Flushes, before.Fences, after.Fences)
	}
	return err
}

// TestScanStrictBulkProbeVerdicts pins the verdicts at the edges of the
// bulk probe: a same-seq valid entry at the last aligned offset that fits,
// or with its header straddling a chunk boundary, or starting exactly on
// one, is convicted; a valid entry of another seq anywhere is not.
func TestScanStrictBulkProbeVerdicts(t *testing.T) {
	const capacity = 3*strictProbeChunk + 200
	boundary := uint64(strictProbeStart + strictProbeChunk)
	cases := []struct {
		name    string
		off     uint64
		seq     uint64
		payload []byte
		convict bool
	}{
		{"last-fitting-offset", capacity - entryHeaderSize - entryTrailerSize, 7, nil, true},
		{"last-fitting-offset-with-payload", capacity - entryHeaderSize - entryTrailerSize - 16, 7, []byte("sixteen-bytes!!!"), true},
		{"header-straddles-chunk", boundary - 16, 7, []byte("straddle"), true},
		{"payload-straddles-chunk", boundary - 24, 7, []byte("payload-across-the-boundary!!!!!"), true},
		{"seq-word-last-in-chunk", boundary - 8, 7, nil, true},
		{"seq-word-first-in-chunk", boundary, 7, nil, true},
		{"other-seq-last-fitting-offset", capacity - entryHeaderSize - entryTrailerSize, 6, nil, false},
		{"other-seq-straddles-chunk", boundary - 16, 6, []byte("straddle"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, l := tornLog(t, capacity)
			plantEntry(p, l, tc.off, tc.seq, 0x200, tc.payload)
			p.Crash()
			err := scanStrictCounts(t, p, l, 7)
			if got := errors.Is(err, txn.ErrCorruptLog); got != tc.convict {
				t.Fatalf("entry at %#x (seq %d): convicted=%v (%v), want %v", tc.off, tc.seq, got, err, tc.convict)
			}
			if ref := scanStrictReference(l, 7); fmt.Sprint(ref) != fmt.Sprint(err) {
				t.Fatalf("bulk verdict %v, per-offset verdict %v", err, ref)
			}
		})
	}
}

// TestScanStrictSkipsTornPayloadAcrossChunks: a torn entry whose plausible
// header claims an extent longer than a whole probe chunk, with a stale but
// valid same-seq image deep inside that extent, is a healthy torn tail, not
// corruption: the bulk probe starts past the torn extent, not at stop+8.
func TestScanStrictSkipsTornPayloadAcrossChunks(t *testing.T) {
	const capacity = 2*strictProbeChunk + 256
	p, l := tornLog(t, capacity)
	// Torn entry at 40: header durable (seq 7, extent past the stale image
	// at offset strictProbeChunk), payload and checksum not.
	plen := uint64(strictProbeChunk + 64)
	plantEntry(p, l, strictProbeChunk, 7, 0x300, []byte("stale-valid-image"))
	var hdr [entryHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], 7)
	binary.LittleEndian.PutUint64(hdr[8:], 0x400)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(plen))
	p.Store(l.base+40, hdr[:])
	p.Persist(l.base+40, entryHeaderSize)
	p.Crash()
	if err := scanStrictCounts(t, p, l, 7); err != nil {
		t.Fatalf("stale image inside the torn extent convicted: %v", err)
	}
	if ref := scanStrictReference(l, 7); ref != nil {
		t.Fatalf("reference convicted: %v", ref)
	}
}

// TestScanStrictMatchesPerOffsetProbe is the differential check: on seeded
// random log images — same-seq and other-seq entries planted at random
// aligned offsets, random torn headers, random filler words equal to the
// sequence — the bulk probe and the per-offset probe agree, down to the
// reported offset.
func TestScanStrictMatchesPerOffsetProbe(t *testing.T) {
	const capacity = 2*strictProbeChunk + 136
	convicted := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, l := tornLog(t, capacity)
		for k := rng.Intn(6); k > 0; k-- {
			payload := make([]byte, rng.Intn(48))
			rng.Read(payload)
			off := uint64(rng.Intn(capacity-entryHeaderSize-entryTrailerSize-len(payload)+1)) &^ 7
			seq := uint64(6 + rng.Intn(2))
			plantEntry(p, l, off, seq, rng.Uint64(), payload)
		}
		for k := rng.Intn(20); k > 0; k-- {
			off := uint64(rng.Intn(capacity-8)) &^ 7
			p.Store64(l.base+off, 7)
			p.Persist(l.base+off, 8)
		}
		p.Crash()
		err := scanStrictCounts(t, p, l, 7)
		if ref := scanStrictReference(l, 7); fmt.Sprint(ref) != fmt.Sprint(err) {
			t.Fatalf("seed %d: bulk verdict %v, per-offset verdict %v", seed, err, ref)
		}
		if err != nil {
			convicted++
		}
	}
	if convicted == 0 {
		t.Fatal("no seed produced a conviction: the differential check never exercised one")
	}
}

// BenchmarkScanStrictFullLog probes a whole 1 MiB log: the first entry is
// torn, so every aligned offset past it is a candidate — the recovery-time
// worst case for a slot whose log filled before the crash.
func BenchmarkScanStrictFullLog(b *testing.B) {
	const capacity = 1 << 20
	p := nvm.New(1<<22, nvm.WithEvictProbability(0))
	l := FormatDataLog(p, 0, p.HeapBase(), capacity)
	b.SetBytes(capacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ScanStrict(7); err != nil {
			b.Fatal(err)
		}
	}
}
