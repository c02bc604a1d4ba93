package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"compactroute"
)

type pair = [2]compactroute.Vertex

// ioTimeout bounds every wait on the server, so a wedged server fails the
// run instead of hanging it.
const ioTimeout = 60 * time.Second

var staleTag = []byte(" stale=1")

// conn is one client connection speaking routeserve's line protocol.
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf []byte // request scratch
	pre []byte // expected-reply-prefix scratch
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	c.w.WriteString("quit\n")
	c.w.Flush()
	c.c.Close()
}

func appendRoute(b []byte, p pair) []byte {
	b = append(b, "route "...)
	b = strconv.AppendInt(b, int64(p[0]), 10)
	b = append(b, ' ')
	return strconv.AppendInt(b, int64(p[1]), 10)
}

// sendRoute queues one route request; readLine flushes it.
func (c *conn) sendRoute(p pair) {
	c.buf = append(appendRoute(c.buf[:0], p), '\n')
	c.w.Write(c.buf)
}

// readLine flushes queued requests when no reply is buffered and returns the
// next reply line, valid until the next read. A buffered partial line always
// answers an already flushed request, so it never waits on unsent ones.
func (c *conn) readLine() ([]byte, error) {
	if c.r.Buffered() == 0 {
		if err := c.w.Flush(); err != nil {
			return nil, err
		}
	}
	return c.r.ReadSlice('\n')
}

// command sends one line and returns its one-line reply.
func (c *conn) command(line string) (string, error) {
	c.c.SetDeadline(time.Now().Add(ioTimeout))
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	rep, err := c.readLine()
	if err != nil {
		return "", fmt.Errorf("%s: %w", line, err)
	}
	return strings.TrimSuffix(string(rep), "\n"), nil
}

// collect routes pairs in order with depth requests in flight and returns a
// copy of every reply line.
func (c *conn) collect(pairs []pair, depth int) ([][]byte, error) {
	c.c.SetDeadline(time.Now().Add(ioTimeout))
	out := make([][]byte, 0, len(pairs))
	sent := 0
	for len(out) < len(pairs) {
		for sent < len(pairs) && sent-len(out) < depth {
			c.sendRoute(pairs[sent])
			sent++
		}
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		out = append(out, bytes.Clone(bytes.TrimSuffix(line, []byte("\n"))))
	}
	return out, nil
}

// laneStats is one connection's share of a measurement window.
type laneStats struct {
	replies, stale, failed, bytes int64
	rtt                           []time.Duration // depth-1 windows only
}

type pending struct {
	p    pair
	req  int64
	sent time.Time
}

// lane is a closed-loop client on one connection: it cycles through its
// pairs, keeping depth requests in flight.
type lane struct {
	id    int64
	c     *conn
	pairs []pair
	next  int
	seq   int64
	ring  []pending
	rtt   []time.Duration
}

// window sends until deadline, drains the requests still in flight and
// returns what the connection saw. The returned rtt slice is reused by the
// next window.
func (l *lane) window(deadline time.Time, depth int, tr *tracer, parent int64) (laneStats, error) {
	if len(l.ring) < depth {
		l.ring = make([]pending, depth)
	}
	l.c.c.SetDeadline(deadline.Add(ioTimeout))
	st := laneStats{rtt: l.rtt[:0]}
	head, inflight := 0, 0
	send := func(now time.Time) {
		p := l.pairs[l.next]
		l.next = (l.next + 1) % len(l.pairs)
		l.ring[(head+inflight)%depth] = pending{p: p, req: l.seq, sent: now}
		l.seq++
		inflight++
		l.c.sendRoute(p)
	}
	now := time.Now()
	for inflight < depth {
		send(now)
	}
	for inflight > 0 {
		line, err := l.c.readLine()
		if err != nil {
			return st, err
		}
		end := time.Now()
		pd := l.ring[head]
		head = (head + 1) % depth
		inflight--
		l.c.pre = append(appendRoute(l.c.pre[:0], pd.p), ' ')
		if bytes.HasPrefix(line, l.c.pre) {
			st.replies++
			if bytes.Contains(line[len(l.c.pre):], staleTag) {
				st.stale++
			}
		} else {
			st.failed++
		}
		st.bytes += int64(len(line))
		if depth == 1 {
			st.rtt = append(st.rtt, end.Sub(pd.sent))
		}
		if pd.req%reqSpanEvery == 0 {
			tr.request(parent, l.id<<40|pd.req, pd.sent, end)
		}
		if end.Before(deadline) {
			send(end)
		}
	}
	l.rtt = st.rtt
	return st, nil
}

// reply is a parsed route reply.
type reply struct {
	hops, header, detours int
	weight                float64
	stale, fallback       bool
}

// parseReply parses "route U V hops=H weight=W header=X" with the live
// suffix " stale=1 detours=D fallback=B" on degraded routes.
func parseReply(line []byte, p pair) (reply, error) {
	s := string(line)
	want := fmt.Sprintf("route %d %d ", p[0], p[1])
	if !strings.HasPrefix(s, want) {
		return reply{}, fmt.Errorf("reply %q does not answer %q", s, strings.TrimSpace(want))
	}
	var r reply
	var seen int
	for _, f := range strings.Fields(s[len(want):]) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return reply{}, fmt.Errorf("reply %q: bad field %q", s, f)
		}
		var err error
		switch k {
		case "hops":
			r.hops, err = strconv.Atoi(v)
			seen++
		case "weight":
			r.weight, err = strconv.ParseFloat(v, 64)
			seen++
		case "header":
			r.header, err = strconv.Atoi(v)
			seen++
		case "stale":
			r.stale = v == "1"
		case "detours":
			r.detours, err = strconv.Atoi(v)
		case "fallback":
			r.fallback, err = strconv.ParseBool(v)
		}
		if err != nil {
			return reply{}, fmt.Errorf("reply %q: field %q: %v", s, f, err)
		}
	}
	if seen != 3 {
		return reply{}, fmt.Errorf("reply %q lacks hops, weight or header", s)
	}
	return r, nil
}
