package main

import (
	"math"
	"sort"
)

// validate checks every reply of a serving run and counts the bad ones as
// failed. A get may return only a value some set of that key wrote, sent
// before the get's reply arrived (acknowledged or still in flight), and not
// overwritten in real time before the get was sent: no other write of the
// key may have been sent after that set was acknowledged and itself been
// acknowledged before the get went out. The workload never deletes and its
// keys fit the cache, so a get may not miss.
func validate(ops []op, w mcWorkload, r *report) {
	type write struct{ sent, done int64 }
	// Per key, every acknowledged write (set or delete), for the staleness
	// test; and per set sequence, the write itself.
	acked := make([][]write, w.mix.keys)
	bySeq := map[uint64]*op{}
	for i := range ops {
		o := &ops[i]
		if o.kind == opGet {
			continue
		}
		if o.kind == opSet {
			bySeq[o.seq] = o
		}
		if o.res != resNone && o.res != resError && o.bad == badNone {
			acked[o.key] = append(acked[o.key], write{o.sent, o.done})
		}
	}
	// Sort each key's acknowledged writes by acknowledgement time and keep
	// the running maximum of their send times.
	prefixMaxSent := make([][]int64, w.mix.keys)
	for k, ws := range acked {
		sort.Slice(ws, func(a, b int) bool { return ws[a].done < ws[b].done })
		pm := make([]int64, len(ws))
		m := int64(math.MinInt64)
		for i, x := range ws {
			m = max(m, x.sent)
			pm[i] = m
		}
		prefixMaxSent[k] = pm
	}
	// latestSentBefore returns the latest send time of a write of key
	// acknowledged before t.
	latestSentBefore := func(key uint32, t int64) int64 {
		ws := acked[key]
		i := sort.Search(len(ws), func(i int) bool { return ws[i].done >= t })
		if i == 0 {
			return math.MinInt64
		}
		return prefixMaxSent[key][i-1]
	}

	for i := range ops {
		o := &ops[i]
		if o.res == resNone {
			r.failed++
			r.violate("no reply to request %d (key %d)", i, o.key)
			continue
		}
		if o.bad != badNone {
			r.failed++
			r.violate("request %d (key %d): %s", i, o.key, badReasons[o.bad])
			continue
		}
		if o.kind != opGet {
			continue
		}
		if o.res == resMiss {
			o.bad = badMiss
			r.failed++
			r.violate("get %d of key %d missed, but no delete or eviction can remove it", i, o.key)
			continue
		}
		// The write that produced the value: the preload (sequence 0) or
		// a set of this run.
		var wSent, wDone int64 = -1, -1
		if o.seq != 0 {
			src, ok := bySeq[o.seq]
			if !ok || src.key != o.key {
				o.bad = badUnknownWrite
				r.failed++
				r.violate("get %d of key %d returned write %d, which no set of this key made", i, o.key, o.seq)
				continue
			}
			wSent, wDone = src.sent, src.done
			if src.res != resStored {
				wDone = math.MaxInt64 // never acknowledged: in flight forever
			}
			if wSent >= o.done {
				o.bad = badFutureWrite
				r.failed++
				r.violate("get %d of key %d returned write %d, sent after the get's reply", i, o.key, o.seq)
				continue
			}
		} else if o.key >= w.preload {
			o.bad = badPreload
			r.failed++
			r.violate("get %d of key %d returned a preload value it never had", i, o.key)
			continue
		}
		if latestSentBefore(o.key, o.sent) > wDone {
			o.bad = badStale
			r.failed++
			r.violate("get %d of key %d returned write %d, overwritten before the get was sent", i, o.key, o.seq)
		}
	}
}
