package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// client drives one TCP connection: it encodes its generator's requests,
// times them, and checks every reply in order (the server answers each
// connection's requests in the order they were sent).
type client struct {
	sp   *spec
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
	gen  *generator
	base time.Time // time origin shared by every client and the tracer

	// mu guards chk and the failure counts: the open loop's sender and
	// reader both use them.
	mu  sync.Mutex
	chk *checker

	// slots is a ring of requests in flight, in send order. The sender
	// fills slot tail%len and then publishes tail; the reader consumes
	// slot head%len and then publishes head. stamped is the first slot
	// the closed loop has not yet stamped with its send time.
	slots      []slot
	head, tail atomic.Uint64
	stamped    uint64
	dead       atomic.Bool

	// Results of the current phase, which started at start (ns since
	// base). wins[i] holds what completed in its i-th second.
	start    int64
	wins     []window
	late     samples // open loop: send time − due time, ns
	requests uint64
	keyOps   uint64
	failed   uint64
	errs     []string

	// spans, when non-nil, records one span per request up to its capacity.
	spans []clientSpan
}

// window collects what completed in one windowLen of a phase.
type window struct {
	reads, writes samples // latency, ns
	keyOps        uint64
}

// windowLen is the length of the windows a phase is measured in.
const windowLen = time.Second

type slot struct {
	o     op
	floor uint32 // checker floor when a GET was sent
	t     int64  // send time (closed loop) or due time (open loop), ns since base
}

// clientSpan is one request as the client saw it: from send (or due
// time) to reply. key is the request's first key.
type clientSpan struct {
	key        uint64
	start, end int64
	kind       byte
	size       uint16
}

const maxErrs = 5

func newClient(sp *spec, nc net.Conn, gen *generator, chk *checker, base time.Time, ring int) *client {
	c := &client{sp: sp, nc: nc, br: bufio.NewReaderSize(nc, 64<<10), gen: gen, chk: chk, base: base,
		wbuf: make([]byte, 0, 64<<10), slots: make([]slot, ring)}
	if sp.mget > 0 {
		for i := range c.slots {
			c.slots[i].o.mget = make([]uint64, sp.mget)
		}
	}
	c.start = c.now()
	return c
}

func (c *client) now() int64 { return int64(time.Since(c.base)) }

// resetResults clears the per-phase results for a phase starting at
// start; spanCap > 0 starts recording that many request spans.
func (c *client) resetResults(start time.Time, spanCap int) {
	c.start = int64(start.Sub(c.base))
	c.wins, c.late = nil, samples{}
	c.requests, c.keyOps, c.failed, c.errs = 0, 0, 0, nil
	c.spans = nil
	if spanCap > 0 {
		c.spans = make([]clientSpan, 0, spanCap)
	}
}

// failLocked counts a failed request; c.mu must be held.
func (c *client) failLocked(err error) {
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, err.Error())
	}
}

// issue generates the next request into the ring and encodes it into
// wbuf; t is its due time, or 0 to stamp it at the next flush.
func (c *client) issue(t int64) {
	tail := c.tail.Load()
	s := &c.slots[tail%uint64(len(c.slots))]
	c.gen.next(&s.o)
	s.t = t
	switch s.o.kind {
	case 'G':
		c.mu.Lock()
		s.floor = c.chk.floor(s.o.idx)
		c.mu.Unlock()
		c.wbuf = appendGet(c.wbuf, keyOf(s.o.idx))
	case 'S':
		c.mu.Lock()
		c.chk.sentSet(s.o.idx, s.o.ver)
		c.mu.Unlock()
		key := keyOf(s.o.idx)
		c.wbuf = appendSet(c.wbuf, key, valueOf(key, s.o.ver))
	case 'M':
		c.wbuf = appendMGet(c.wbuf, s.o.mget)
	}
	c.tail.Store(tail + 1)
}

// flush stamps the unstamped requests with the current time and writes
// the buffered requests.
func (c *client) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	now := c.now()
	tail := c.tail.Load()
	for i := c.stamped; i < tail; i++ {
		c.slots[i%uint64(len(c.slots))].t = now
	}
	c.stamped = tail
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// complete checks the reply to the oldest request in flight.
func (c *client) complete(line []byte, now int64) {
	head := c.head.Load()
	s := &c.slots[head%uint64(len(c.slots))]
	kind, v, rest := parseReply(line[:len(line)-1])
	lat := now - s.t
	w := c.window(now)
	var err error
	c.mu.Lock()
	switch s.o.kind {
	case 'G':
		err = c.chk.checkGet(s.o.idx, kind, v, s.floor)
		w.reads.add(lat)
	case 'S':
		err = c.chk.ackSet(s.o.idx, s.o.ver, kind)
		w.writes.add(lat)
	case 'M':
		err = c.chk.checkMGet(s.o.mget, kind, rest)
		w.reads.add(lat)
	}
	c.requests++
	c.keyOps += uint64(c.sp.keysPerRequest())
	w.keyOps += uint64(c.sp.keysPerRequest())
	if err != nil {
		c.failLocked(err)
	}
	c.mu.Unlock()
	if c.spans != nil && len(c.spans) < cap(c.spans) {
		key := keyOf(s.o.idx)
		if s.o.kind == 'M' {
			key = keyOf(s.o.mget[0])
		}
		c.spans = append(c.spans, clientSpan{key: key, start: s.t, end: now, kind: s.o.kind, size: uint16(c.sp.keysPerRequest())})
	}
	c.head.Store(head + 1)
}

// window returns the window a request completing at now belongs to.
func (c *client) window(now int64) *window {
	i := max(int((now-c.start)/int64(windowLen)), 0)
	for len(c.wins) <= i {
		c.wins = append(c.wins, window{})
	}
	return &c.wins[i]
}

// abort ends the phase after a transport error: every request still in
// flight counts as failed.
func (c *client) abort(err error) {
	if c.dead.Swap(true) {
		return
	}
	c.nc.Close()
	lost := c.tail.Load() - c.head.Load()
	c.mu.Lock()
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf("connection: %v (%d requests unanswered)", err, lost))
	}
	c.failed += max(lost, 1)
	c.requests += lost
	c.mu.Unlock()
}

// lineBuffered reports whether a complete reply is already buffered.
func (c *client) lineBuffered() bool {
	b, _ := c.br.Peek(c.br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// readLine returns the next reply line, newline included, valid until
// the next read.
func (c *client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		err = fmt.Errorf("reply longer than %d bytes", c.br.Size())
	}
	return line, err
}

// runClosed keeps depth requests in flight, sending the next one as each
// reply arrives, until the deadline passes or, when opsLimit > 0,
// opsLimit requests have been sent. Requests issued while replies are
// still buffered are sent together.
func (c *client) runClosed(depth int, deadline time.Time, opsLimit int) {
	c.nc.SetReadDeadline(deadline.Add(replySlack))
	until := int64(deadline.Sub(c.base))
	issued := 0
	more := func(now int64) bool {
		return now < until && (opsLimit == 0 || issued < opsLimit)
	}
	for int(c.tail.Load()-c.head.Load()) < depth && more(c.now()) {
		c.issue(0)
		issued++
	}
	if err := c.flush(); err != nil {
		c.abort(err)
		return
	}
	for c.tail.Load() != c.head.Load() {
		line, err := c.readLine()
		if err != nil {
			c.abort(err)
			return
		}
		now := c.now()
		c.complete(line, now)
		if more(now) {
			c.issue(0)
			issued++
		}
		if !c.lineBuffered() {
			if err := c.flush(); err != nil {
				c.abort(err)
				return
			}
		}
	}
}

// replySlack bounds how long a phase waits for replies past its end
// before it gives up on the server.
const replySlack = 30 * time.Second

// runOpen sends on a fixed schedule — request i is due at start + offset
// + i·gap — until the deadline, whatever is still outstanding; a separate
// reader takes the replies. Latency is timed from each request's due
// time, so a stall delays every request due during it, and lateness
// (send time − due time) is recorded on its own.
func (c *client) runOpen(start time.Time, offset, gap time.Duration, deadline time.Time) {
	c.nc.SetReadDeadline(deadline.Add(replySlack))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.readUntilSentinel()
	}()
	c.sendPaced(int64(start.Sub(c.base)+offset), int64(gap), int64(deadline.Sub(c.base)))
	wg.Wait()
}

// sendPaced is runOpen's sender. It ends with a PING, whose PONG tells
// the reader the phase is over.
func (c *client) sendPaced(first, gap, until int64) {
	p, err := newPacer()
	if err != nil {
		c.abort(err)
		return
	}
	defer p.close()
	due := first
	for due < until && !c.dead.Load() {
		if d := due - c.now(); d > 0 {
			if err := p.sleep(time.Duration(d)); err != nil {
				c.abort(err)
				return
			}
		}
		now := c.now()
		for ; due <= now && due < until; due += gap {
			if !c.waitRoom() {
				return
			}
			c.issue(due)
			c.late.add(now - due)
		}
		if len(c.wbuf) == 0 {
			continue // woke early
		}
		if _, err := c.nc.Write(c.wbuf); err != nil {
			c.abort(err)
			return
		}
		c.wbuf = c.wbuf[:0]
	}
	if !c.waitRoom() {
		return
	}
	tail := c.tail.Load()
	c.slots[tail%uint64(len(c.slots))].o.kind = 'P'
	c.tail.Store(tail + 1)
	if _, err := c.nc.Write([]byte("PING\n")); err != nil {
		c.abort(err)
	}
}

// waitRoom waits until the ring has a free slot; false if the connection
// died meanwhile.
func (c *client) waitRoom() bool {
	for c.tail.Load()-c.head.Load() >= uint64(len(c.slots)) {
		if c.dead.Load() {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return !c.dead.Load()
}

// readUntilSentinel is runOpen's reader.
func (c *client) readUntilSentinel() {
	for {
		line, err := c.readLine()
		if err != nil {
			c.abort(err)
			return
		}
		now := c.now()
		head := c.head.Load()
		if head == c.tail.Load() {
			c.abort(fmt.Errorf("unsolicited reply %q", line))
			return
		}
		if c.slots[head%uint64(len(c.slots))].o.kind == 'P' {
			c.head.Store(head + 1)
			if string(line) != "PONG\n" {
				c.mu.Lock()
				c.failLocked(fmt.Errorf("PING: reply %q", line))
				c.mu.Unlock()
			}
			return
		}
		c.complete(line, now)
	}
}
