package main

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The benchmark's own open-loop generator. Requests are due on a Poisson
// schedule fixed in advance from the seed; the generator writes each
// request when it falls due, whatever the replies are doing, and times each
// reply from its request's due time. So a stall in the server delays the
// replies of every request due during it, and none of that wait is hidden
// (no coordinated omission).

const (
	opGet uint8 = iota
	opSet
	opDel
)

// Reply outcomes.
const (
	resNone     uint8 = iota // no reply (connection lost)
	resHit                   // VALUE ... END
	resMiss                  // END
	resStored                // STORED
	resDeleted               // DELETED
	resNotFound              // NOT_FOUND
	resError                 // SERVER_ERROR, CLIENT_ERROR, ERROR
)

// Validation failures. op carries a code rather than a message so the
// schedule holds no pointers and costs the garbage collector nothing to scan
// while the server runs beside it.
const (
	badNone uint8 = iota
	badKey
	badValue
	badReply
	badMiss
	badUnknownWrite
	badFutureWrite
	badPreload
	badStale
)

var badReasons = [...]string{"", "reply names another key", "value fails validation",
	"reply does not answer the request", "miss on a key that cannot be absent",
	"value from no set of this key", "value from a set sent after the get completed",
	"preload value for a key never preloaded", "stale value: overwritten before the get was sent"}

// op is one request of the schedule and what became of it.
type op struct {
	due, sent, done int64
	seq             uint64 // for a hit: the write sequence of the value returned
	bad             uint8  // why the reply failed validation (badNone if it did not)
	key             uint32
	conn            uint8
	kind            uint8
	res             uint8
	step            uint8
}

// step is one stretch of the schedule at a fixed offered rate.
type step struct {
	rate     float64 // offered ops/s
	seconds  float64
	measured bool
	ref      bool // a phase at the workload's reference rate
	// closed, when positive, makes this a closed-loop step instead: each
	// connection sends closed requests, each as soon as its previous one
	// is answered; rate and seconds are unused.
	closed int
	// depth, when above 1, makes a closed-loop step a saturating one: every
	// connection keeps depth requests in flight instead of one.
	depth      int
	start, end int64 // actual interval, set by the generator
	idle       int64 // saturating step: time the generator found no work
	first, n   int   // ops[first:first+n]
}

// oneInFlight reports whether s is a closed-loop step with one request in
// flight per connection.
func (s *step) oneInFlight() bool { return s.closed > 0 && s.depth <= 1 }

// mix describes a serving workload's requests.
type mix struct {
	keys      uint32  // keyspace size
	zipfS     float64 // > 1: zipf exponent over the keyspace; 0: uniform
	getFrac   float64
	setFrac   float64 // the rest are deletes
	valueSize int
}

// schedule builds the run's requests: per step, Poisson arrivals at the
// step's rate, each request's connection, kind and key drawn from the seed.
func schedule(seed int64, m mix, steps []step, conns int) []op {
	rng := newRand(seed)
	var z *zipf
	if m.zipfS > 1 {
		z = newZipf(rng, m.zipfS, m.keys)
	}
	var ops []op
	for si := range steps {
		st := &steps[si]
		st.first = len(ops)
		span := int64(st.seconds * 1e9)
		t := 0.0
		for k := 0; ; k++ {
			o := op{step: uint8(si)}
			if st.closed > 0 {
				if k == st.closed*closedConns {
					break
				}
				o.conn = uint8(k % closedConns)
			} else {
				t += rng.exp() / st.rate * 1e9
				if int64(t) >= span {
					break
				}
				o.due, o.conn = int64(t), uint8(rng.intn(conns))
			}
			switch u := rng.float(); {
			case u < m.getFrac:
				o.kind = opGet
			case u < m.getFrac+m.setFrac:
				o.kind = opSet
			default:
				o.kind = opDel
			}
			if z != nil {
				o.key = z.next()
			} else {
				o.key = uint32(rng.intn(int(m.keys)))
			}
			ops = append(ops, o)
		}
		st.n = len(ops) - st.first
	}
	return ops
}

// generator drives a schedule over a set of connections. One goroutine,
// running on a P of its own (see runServing), does all of the client's work
// as an event loop: it writes each request when it falls due and otherwise
// polls every connection for replies with non-blocking reads, yielding the
// CPU to other threads on every idle turn. So the client never takes a P
// from the server, and it never sleeps: a virtual CPU left idle can take
// milliseconds to wake, which would make the generator late.
type generator struct {
	ops      []op
	steps    []step
	conns    []*genConn
	m        mix
	keyNames []string
	broken   bool
	seq      uint64
	// delay, when positive, stalls the generator before each write: a
	// deliberately late generator for the benchmark's own self-test.
	delay time.Duration
	// onStep, when set, is called at each step boundary once the previous
	// step's replies are all in: with i at step i's start, and with
	// len(steps) after the last step.
	onStep func(i int)
}

// genConn is one connection's client side.
type genConn struct {
	conn    net.Conn
	raw     syscall.RawConn
	ops     []int  // indexes into ops in send order
	sent    int    // how many of ops have been queued for writing
	replied int    // how many of ops have their reply
	out     []byte // queued, not yet accepted by the socket
	in      []byte // read from the socket, not yet parsed
}

func newGenerator(ops []op, steps []step, conns []net.Conn, m mix) (*generator, error) {
	g := &generator{ops: ops, steps: steps, m: m}
	for _, c := range conns {
		sc, ok := c.(syscall.Conn)
		if !ok {
			return nil, fmt.Errorf("generator: %T has no raw socket", c)
		}
		raw, err := sc.SyscallConn()
		if err != nil {
			return nil, err
		}
		g.conns = append(g.conns, &genConn{conn: c, raw: raw, in: make([]byte, 0, 256<<10)})
	}
	for i := range ops {
		c := g.conns[ops[i].conn]
		c.ops = append(c.ops, i)
	}
	g.keyNames = make([]string, m.keys)
	for i := range g.keyNames {
		g.keyNames[i] = keyName(uint32(i))
	}
	return g, nil
}

// run executes the whole schedule, step by step, each step starting once
// the previous one's replies are all in.
func (g *generator) run() {
	for si := range g.steps {
		st := &g.steps[si]
		g.drain()
		if g.broken {
			return
		}
		if g.onStep != nil {
			g.onStep(si)
		}
		if st.depth > 1 {
			g.runSaturated(st)
			continue
		}
		if st.closed > 0 {
			g.runClosed(st)
			continue
		}
		base := now()
		st.start = base
		end := st.first + st.n
		for i := st.first; i < end; i++ {
			g.ops[i].due += base
		}
		for i := st.first; i < end && !g.broken; {
			for now() < g.ops[i].due && !g.broken {
				if !g.poll() {
					osYield()
				}
			}
			if g.delay > 0 {
				time.Sleep(g.delay)
			}
			// Everything due by now goes out in this batch.
			t := now()
			j := i
			for ; j < end && g.ops[j].due <= t; j++ {
				o := &g.ops[j]
				c := g.conns[o.conn]
				g.seq++
				c.out = g.encode(c.out, o, g.seq)
				c.sent++
			}
			sent := now()
			for k := i; k < j; k++ {
				g.ops[k].sent = sent
			}
			g.flush()
			i = j
		}
		st.end = now()
	}
	g.drain()
	if g.onStep != nil && !g.broken {
		g.onStep(len(g.steps))
	}
}

// runSaturated runs a saturating step on the event loop: it keeps
// st.depth requests in flight on every connection and sends the next one as
// soon as a reply makes room, so the server always has work queued and the
// step's completion rate is the server's capacity, not a schedule's. It
// records in st.idle how long the loop found nothing to do: a generator
// that is never idle is the bottleneck itself.
func (g *generator) runSaturated(st *step) {
	st.start = now()
	limit := make([]int, len(g.conns))
	for i := st.first; i < st.first+st.n; i++ {
		limit[g.ops[i].conn]++
	}
	for c, gc := range g.conns {
		limit[c] += gc.sent
	}
	for !g.broken {
		t := now()
		pending := false
		for c, gc := range g.conns {
			for gc.sent < limit[c] && gc.sent-gc.replied < st.depth {
				o := &g.ops[gc.ops[gc.sent]]
				g.seq++
				gc.out = g.encode(gc.out, o, g.seq)
				o.due, o.sent = t, t
				gc.sent++
			}
			pending = pending || gc.replied < limit[c]
		}
		if !pending {
			break
		}
		if !g.poll() {
			// A pass that found no reply and nothing to send is time
			// spent waiting for the server.
			osYield()
			st.idle += now() - t
		}
	}
	st.end = now()
}

// runClosed runs a closed-loop step the way an ordinary client would: one
// goroutine per connection sends a request, blocks until its reply has
// arrived, and sends the next. A host stall then delays one request per
// connection rather than every request due during it, and no client
// thread spins while the server works.
func (g *generator) runClosed(st *step) {
	st.start = now()
	broken := make([]bool, closedConns)
	var wg sync.WaitGroup
	for c := 0; c < closedConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			broken[c] = g.closedConn(st, c) != nil
		}(c)
	}
	wg.Wait()
	st.end = now()
	for _, b := range broken {
		g.broken = g.broken || b
	}
	g.seq += uint64(st.n)
}

// closedConn sends connection c's share of a closed-loop step.
func (g *generator) closedConn(st *step, c int) error {
	gc := g.conns[c]
	n := closedConns
	var out []byte
	in := make([]byte, 0, 64<<10)
	for k := 0; k < st.closed; k++ {
		i := st.first + k*n + c
		o := &g.ops[i]
		// Sequence numbers of a closed step are fixed by op index, so the
		// connections need not share a counter.
		out = g.encode(out[:0], o, g.seq+1+uint64(i-st.first))
		o.due = now()
		o.sent = o.due
		if _, err := gc.conn.Write(out); err != nil {
			return err
		}
		gc.sent++
		for {
			used, err := g.parseReply(in, o)
			if err != nil {
				return err
			}
			if used > 0 {
				o.done = now()
				in = in[:copy(in, in[used:])]
				break
			}
			if len(in) == cap(in) {
				in = append(in, 0)[:len(in)]
			}
			m, err := gc.conn.Read(in[len(in):cap(in)])
			if err != nil {
				return err
			}
			in = in[:len(in)+m]
		}
		gc.replied++
	}
	return nil
}

// drain polls until every request queued so far has its reply.
func (g *generator) drain() {
	for !g.broken {
		pending := false
		for _, c := range g.conns {
			pending = pending || c.replied < c.sent
		}
		if !pending {
			return
		}
		if !g.poll() {
			osYield()
		}
	}
}

// poll makes one non-blocking pass over the connections: it writes what the
// sockets accept and parses every complete reply that has arrived. It
// reports whether it made progress.
func (g *generator) poll() bool {
	progress := g.flush()
	for _, c := range g.conns {
		if c.replied == c.sent {
			continue
		}
		if len(c.in) == cap(c.in) {
			grown := make([]byte, len(c.in), 2*cap(c.in))
			copy(grown, c.in)
			c.in = grown
		}
		var n int
		var err error
		_ = c.raw.Read(func(fd uintptr) bool {
			n, err = syscall.Read(int(fd), c.in[len(c.in):cap(c.in)])
			return true // never wait for readiness
		})
		switch {
		case err == syscall.EAGAIN || err == syscall.EINTR:
			continue
		case err != nil || n == 0:
			g.broken = true
			return false
		}
		c.in = c.in[:len(c.in)+n]
		t := now()
		off := 0
		for c.replied < c.sent {
			o := &g.ops[c.ops[c.replied]]
			used, err := g.parseReply(c.in[off:], o)
			if err != nil {
				g.broken = true
				return false
			}
			if used == 0 {
				break
			}
			o.done = t
			off += used
			c.replied++
		}
		c.in = c.in[:copy(c.in, c.in[off:])]
		progress = true
	}
	return progress
}

// flush writes as much of each connection's queued requests as its socket
// takes without blocking, and reports whether it wrote anything.
func (g *generator) flush() bool {
	progress := false
	for _, c := range g.conns {
		if len(c.out) == 0 {
			continue
		}
		var n int
		var err error
		_ = c.raw.Write(func(fd uintptr) bool {
			n, err = syscall.Write(int(fd), c.out)
			return true // never wait for room
		})
		switch {
		case err == syscall.EAGAIN || err == syscall.EINTR:
			continue
		case err != nil:
			g.broken = true
			return false
		}
		c.out = c.out[:copy(c.out, c.out[n:])]
		progress = progress || n > 0
	}
	return progress
}

// encode appends o's request. A set carries a self-validating value naming
// this write; seq also becomes o.seq so validation can find the write.
func (g *generator) encode(b []byte, o *op, seq uint64) []byte {
	key := g.keyNames[o.key]
	switch o.kind {
	case opGet:
		b = append(b, "get "...)
		b = append(b, key...)
		b = append(b, "\r\n"...)
	case opDel:
		b = append(b, "delete "...)
		b = append(b, key...)
		b = append(b, "\r\n"...)
	default:
		o.seq = seq
		b = append(b, "set "...)
		b = append(b, key...)
		b = append(b, " 0 0 "...)
		b = strconv.AppendInt(b, int64(g.m.valueSize), 10)
		b = append(b, "\r\n"...)
		n := len(b)
		b = append(b, make([]byte, g.m.valueSize)...)
		fillValue(b[n:], seq, o.key, uint32(o.conn)+1)
		b = append(b, "\r\n"...)
	}
	return b
}

// parseReply parses the reply to o at the head of b. It returns the bytes
// the reply took, or 0 when b does not hold all of it yet.
func (g *generator) parseReply(b []byte, o *op) (int, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return 0, nil
	}
	ln := bytes.TrimRight(b[:nl], "\r")
	used := nl + 1
	switch {
	case bytes.HasPrefix(ln, []byte("VALUE ")):
		f := bytes.Fields(ln)
		if len(f) < 4 {
			return 0, fmt.Errorf("malformed %q", ln)
		}
		n, err := strconv.Atoi(string(f[3]))
		if err != nil || n < 0 || n > 1<<20 {
			return 0, fmt.Errorf("malformed %q", ln)
		}
		const tail = len("\r\nEND\r\n")
		if len(b) < used+n+tail {
			return 0, nil
		}
		if string(b[used+n:used+n+tail]) != "\r\nEND\r\n" {
			return 0, fmt.Errorf("no END after %q", ln)
		}
		switch seq, _, err := decodeValue(b[used:used+n], o.key, g.m.valueSize); {
		case string(f[1]) != g.keyNames[o.key]:
			o.bad = badKey
		case err != nil:
			o.bad = badValue
		default:
			o.seq = seq
		}
		used += n + tail
		o.res = resHit
	case string(ln) == "END":
		o.res = resMiss
	case string(ln) == "STORED":
		o.res = resStored
	case string(ln) == "DELETED":
		o.res = resDeleted
	case string(ln) == "NOT_FOUND":
		o.res = resNotFound
	default:
		o.res = resError
	}
	if o.bad == badNone && !replyFits(o) {
		o.bad = badReply
	}
	return used, nil
}

// replyFits reports whether the reply kind answers the request kind.
func replyFits(o *op) bool {
	switch o.kind {
	case opGet:
		return o.res == resHit || o.res == resMiss
	case opSet:
		return o.res == resStored
	default:
		return o.res == resDeleted || o.res == resNotFound
	}
}
