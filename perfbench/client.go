package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// tally counts one phase's outcomes, both as the oracle expected them
// and as greylistd answered.
type tally struct {
	attempted, completed, failed, mismatches int
	// oracle side
	reasons  map[string]int
	stages   map[string]int
	walRecs  int
	expDefer int
	expMsgs  int
	rcpts    int
	// client side
	deferred int
	messages int
	// open-loop latency and lateness, milliseconds
	lat  []float64
	late []float64
}

func newTally() *tally {
	return &tally{reasons: make(map[string]int), stages: make(map[string]int)}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.failed += o.failed
	t.mismatches += o.mismatches
	for k, v := range o.reasons {
		t.reasons[k] += v
	}
	for k, v := range o.stages {
		t.stages[k] += v
	}
	t.walRecs += o.walRecs
	t.expDefer += o.expDefer
	t.expMsgs += o.expMsgs
	t.rcpts += o.rcpts
	t.deferred += o.deferred
	t.messages += o.messages
	t.lat = append(t.lat, o.lat...)
	t.late = append(t.late, o.late...)
}

// lane is one of the driver's two connection slots. It runs one visit
// at a time over its own client keys, checking every reply against its
// model as it goes.
type lane struct {
	id     int
	addr   string
	w      *workload
	model  *model
	window int
	br     *bufio.Reader
	wbuf   []byte
	body   []byte
	lineN  int // length of one body line
	// open-loop schedule: the next fresh session's intended start
	freshAt  time.Time
	interval time.Duration
	started  bool
}

func newLane(id int, addr string, w *workload) *lane {
	l := &lane{id: id, addr: addr, w: w, model: w.models[id], window: w.window}
	// A body of fixed-length lines, sliced to each message's length.
	line := []byte("Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod te\r\n")
	l.lineN = len(line)
	for len(l.body) < 10*1024 {
		l.body = append(l.body, line...)
	}
	return l
}

// nextActor returns the lane's relay that is ready soonest.
func (l *lane) nextActor() *actor {
	var best *actor
	for _, a := range l.w.actors[l.id] {
		if best == nil || a.ready.Before(best.ready) {
			best = a
		}
	}
	return best
}

// runPhase drives the lane until the deadline. Open loop schedules
// fresh sessions at the lane's share of rate and times each from its
// intended start; closed loop sends the next session as soon as the
// previous completes, and also stops once the lanes have used up budget
// (sessions left to complete, shared by both lanes). Campaign relays
// run whenever they are ready.
func (l *lane) runPhase(until time.Time, open bool, rate float64, budget *atomic.Int64, t *tally) {
	if !l.started {
		// Relay start offsets are relative to the first phase.
		now := time.Now()
		for _, a := range l.w.actors[l.id] {
			a.ready = now.Add(a.ready.Sub(time.Time{}))
		}
		l.started = true
	}
	if open {
		now := time.Now()
		l.interval = time.Duration(float64(time.Second) / (rate / 2))
		l.freshAt = now
		// A relay that came due while the lane was paused between
		// phases is due within the next settle period, spread by its id,
		// not at a time nobody was sending.
		for _, a := range l.w.actors[l.id] {
			if a.ready.Before(now) {
				a.ready = now.Add(time.Duration(a.id*7919%250) * settle / 250)
			}
		}
	}
	for {
		now := time.Now()
		if !now.Before(until) {
			return
		}
		a := l.nextActor()
		if !open {
			if budget.Load() <= 0 {
				return
			}
			before := t.completed
			if a != nil && !a.ready.After(now) {
				l.runActor(a, until, false, t)
			} else {
				l.runVisit(l.w.streams[l.id].next(), nil, until, false, t)
			}
			budget.Add(int64(before - t.completed))
			continue
		}
		if a != nil && a.ready.Before(l.freshAt) {
			if !a.ready.Before(until) {
				time.Sleep(time.Until(until))
				return
			}
			time.Sleep(time.Until(a.ready))
			l.runActor(a, until, true, t)
			continue
		}
		if !l.freshAt.Before(until) {
			time.Sleep(time.Until(until))
			return
		}
		v := l.w.streams[l.id].next()
		start, step := l.freshAt, l.interval
		l.runVisit(v, func(j int) time.Time { return start.Add(time.Duration(j) * step) }, until, true, t)
		l.freshAt = start.Add(time.Duration(len(v.txns)) * step)
	}
}

// runActor runs a relay's next visit, intended at its ready time.
func (l *lane) runActor(a *actor, until time.Time, open bool, t *tally) {
	v := a.nextVisit()
	ready := a.ready
	l.runVisit(v, func(int) time.Time { return ready }, until, open, t)
	a.finished(v, time.Now())
}

// runWarm runs visits closed-loop with no deadline.
func (l *lane) runWarm(vs []*visit, t *tally) {
	for _, v := range vs {
		l.runVisit(v, nil, time.Now().Add(time.Hour), false, t)
	}
}

var errProto = errors.New("unexpected reply")

// runVisit opens one connection and runs v's sessions on it, pipelining
// up to the lane's window. due gives session j's intended start (nil:
// closed loop, each session due when sent).
func (l *lane) runVisit(v *visit, due func(int) time.Time, until time.Time, open bool, t *tally) {
	n := len(v.txns)
	sentAt := make([]time.Time, n)
	dueAt := func(j int) time.Time {
		if due == nil {
			return sentAt[j]
		}
		return due(j)
	}
	sent, done := 0, 0
	fail := func() {
		for j := done; j < sent; j++ {
			t.failed++
		}
	}
	if open && !dueAt(0).Before(until) {
		return
	}
	if open {
		time.Sleep(time.Until(dueAt(0)))
	}
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: net.ParseIP(v.ip)}, Timeout: 10 * time.Second, Control: bindNoPort}
	conn, err := d.Dial("tcp", l.addr)
	if err != nil {
		t.attempted++
		t.failed++
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if l.br == nil {
		l.br = bufio.NewReaderSize(conn, 16<<10)
	} else {
		l.br.Reset(conn)
	}
	if code, err := l.readReply(); err != nil || code != 220 {
		t.attempted++
		t.failed++
		return
	}
	if _, err := conn.Write([]byte("EHLO client.perfbench.test\r\n")); err != nil {
		t.attempted++
		t.failed++
		return
	}
	if code, err := l.readReply(); err != nil || code != 250 {
		t.attempted++
		t.failed++
		return
	}
	dataOut, quitSent := false, false
	for done < n {
		// Send every session that is due, up to the window. A session
		// with DATA goes alone: its body must wait for the 354.
		l.wbuf = l.wbuf[:0]
		// Closed loop sends a whole window in one write and reads all of
		// its replies before the next, so the batches greylistd reads do
		// not depend on the two processes' relative speed.
		refill := open || sent == done
		for refill && sent < n && sent-done < l.window && !dataOut {
			tx := v.txns[sent]
			if open {
				dj := dueAt(sent)
				if !dj.Before(until) {
					break
				}
				if time.Now().Before(dj) {
					if sent > done || len(l.wbuf) > 0 {
						break
					}
					time.Sleep(time.Until(dj))
				}
			}
			// A session that may carry DATA waits for an empty pipe:
			// its body must follow the 354.
			if tx.dataLen > 0 && (sent > done || len(l.wbuf) > 0) {
				break
			}
			l.model.decide(v.ip, tx)
			l.wbuf = appendTxn(l.wbuf, tx)
			sentAt[sent] = time.Now()
			if open {
				t.late = append(t.late, ms(sentAt[sent].Sub(dueAt(sent))))
			}
			t.attempted++
			sent++
			dataOut = tx.expectsData()
			if sent == n && v.quit && !dataOut {
				l.wbuf = append(l.wbuf, "QUIT\r\n"...)
				quitSent = true
			}
		}
		if len(l.wbuf) > 0 {
			if _, err := conn.Write(l.wbuf); err != nil {
				fail()
				return
			}
		}
		if done == sent {
			break // nothing outstanding and nothing more due before the deadline
		}
		tx := v.txns[done]
		if err := l.readTxn(conn, tx, t); err != nil {
			fail()
			return
		}
		dataOut = false
		t.completed++
		if open {
			t.lat = append(t.lat, ms(time.Since(dueAt(done))))
		}
		done++
	}
	if v.quit {
		if !quitSent {
			if _, err := conn.Write([]byte("QUIT\r\n")); err != nil {
				return
			}
		}
		l.readReply()
	}
}

// ipBindAddressNoPort is Linux's IP_BIND_ADDRESS_NO_PORT.
const ipBindAddressNoPort = 24

// bindNoPort defers the source port choice from bind to connect, where
// the kernel can pick it per destination. Without it every bind to a
// client address searches for a port free of all that address's
// TIME_WAIT sockets, and back-to-back runs slow down as they pile up.
func bindNoPort(_, _ string, c syscall.RawConn) error {
	var serr error
	err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, ipBindAddressNoPort, 1)
	})
	if err != nil {
		return err
	}
	return serr
}

func appendTxn(b []byte, tx *txn) []byte {
	b = append(b, "MAIL FROM:<"...)
	b = append(b, tx.sender...)
	b = append(b, ">\r\n"...)
	for _, r := range tx.rcpts {
		b = append(b, "RCPT TO:<"...)
		b = append(b, r...)
		b = append(b, ">\r\n"...)
	}
	if tx.expectsData() {
		return append(b, "DATA\r\n"...)
	}
	return append(b, "RSET\r\n"...)
}

// readTxn reads and checks one session's replies, sending the body on a
// 354.
func (l *lane) readTxn(conn net.Conn, tx *txn, t *tally) error {
	if code, err := l.readReply(); err != nil {
		return err
	} else if code != 250 {
		t.failed++
		return errProto
	}
	bad := false
	for i := range tx.rcpts {
		code, err := l.readReply()
		if err != nil {
			return err
		}
		e := tx.exp[i]
		t.rcpts++
		t.reasons[e.reason]++
		if e.stage != "" {
			t.stages[e.stage]++
		}
		if e.wal {
			t.walRecs++
		}
		if !e.pass {
			t.expDefer++
		}
		switch code {
		case 250:
			if !e.pass {
				bad = true
			}
		case 451:
			t.deferred++
			if e.pass {
				bad = true
			}
		default:
			bad = true
		}
	}
	if bad {
		t.mismatches++
	}
	if !tx.expectsData() {
		if code, err := l.readReply(); err != nil {
			return err
		} else if code != 250 {
			return errProto
		}
		return nil
	}
	t.expMsgs++
	code, err := l.readReply()
	if err != nil {
		return err
	}
	if code != 354 {
		t.mismatches++
		return nil
	}
	body := append(l.wbuf[:0], "Subject: perfbench\r\n\r\n"...)
	body = append(body, l.body[:tx.dataLen/l.lineN*l.lineN]...)
	body = append(body, ".\r\n"...)
	l.wbuf = body
	if _, err := conn.Write(body); err != nil {
		return err
	}
	if code, err := l.readReply(); err != nil {
		return err
	} else if code != 250 {
		return errProto
	}
	t.messages++
	return nil
}

// readReply reads one (possibly multi-line) reply and returns its code.
func (l *lane) readReply() (int, error) {
	for {
		line, err := l.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) < 4 {
			return 0, errProto
		}
		if line[3] == ' ' || line[3] == '\r' {
			return strconv.Atoi(string(line[:3]))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (t *tally) String() string {
	return fmt.Sprintf("attempted=%d completed=%d failed=%d mismatches=%d rcpts=%d deferred=%d/%d messages=%d/%d wal=%d",
		t.attempted, t.completed, t.failed, t.mismatches, t.rcpts, t.deferred, t.expDefer, t.messages, t.expMsgs, t.walRecs)
}
