package greylist

import (
	"bytes"
	"io"
	"time"
)

// Engine side of the write-ahead log: how the Greylister journals
// mutations, replays a recovered log, and quiesces for the checkpoint
// barrier. The WAL itself (file format, ring, consumer) lives in
// wal.go.

// clientPrefix extracts the client component of a canonical triplet
// key — the bytes before the first NUL (the key layout appendKey
// builds). Keys with no NUL (never produced by appendKey) are treated
// as all-client, which keeps replay total on any input.
func clientPrefix(key []byte) []byte {
	if i := bytes.IndexByte(key, 0); i >= 0 {
		return key[:i]
	}
	return key
}

// attachWAL starts journaling every mutation into w. It takes the
// exclusive lock so the plain g.wal pointer is safely visible to
// check paths running under either lock mode.
func (g *Greylister) attachWAL(w *WAL) {
	g.mu.Lock()
	g.wal = w
	g.mu.Unlock()
}

// applyWALBatch replays decoded log records in order under one
// exclusive lock. Replay never journals (g.wal is attached only after
// recovery) and never touches Stats — counters are frozen at whatever
// the checkpoint snapshot carried.
func (g *Greylister) applyWALBatch(ops []walOp) {
	g.mu.Lock()
	for _, op := range ops {
		g.applyOpLocked(op)
	}
	g.mu.Unlock()
}

// applyOpLocked applies one log record to the tables. Callers hold
// g.mu exclusively. Each case mirrors the live mutation that logged
// the record (see the walOp* constants), so replaying a log prefix
// reconstructs the tables the live engine had when that prefix was
// written.
func (g *Greylister) applyOpLocked(op walOp) {
	switch op.op {
	case walOpPendingUpsert:
		rec, ok := g.pending[string(op.key)]
		if !ok {
			rec = &pendingRecord{}
			g.pending[string(op.key)] = rec
		}
		rec.firstSeen = time.Unix(0, op.t1)
		rec.lastSeen = time.Unix(0, op.t2)
		rec.attempts = int(op.attempts)
	case walOpPromote:
		delete(g.pending, string(op.key))
		p := &passedRecord{passedAt: time.Unix(0, op.t1)}
		p.lastUsed.Store(op.t1)
		p.deliveries.Store(1)
		g.passed[string(op.key)] = p
		g.creditClient(clientPrefix(op.key), op.t1)
		g.grantEarned(clientPrefix(op.key), time.Unix(0, op.t1))
	case walOpTouch:
		p, ok := g.passed[string(op.key)]
		if !ok {
			// A touch always follows the promote (or checkpoint) that
			// created the record; tolerate a gap by recreating it so a
			// damaged log still converges.
			p = &passedRecord{passedAt: time.Unix(0, op.t1)}
			g.passed[string(op.key)] = p
		}
		p.lastUsed.Store(op.t1)
		p.deliveries.Add(1)
		g.creditClient(clientPrefix(op.key), op.t1)
	case walOpAutoPass:
		if c, ok := g.clients[string(clientPrefix(op.key))]; ok {
			c.lastUsed.Store(op.t1)
		}
	case walOpDelPassed:
		delete(g.passed, string(op.key))
	case walOpDelClient:
		delete(g.clients, string(clientPrefix(op.key)))
	case walOpEarnTouch:
		e, ok := g.earned[string(clientPrefix(op.key))]
		if !ok {
			// Tolerate a gap before the promote that granted the
			// entry (damaged log) by recreating it, like walOpTouch.
			e = &earnedRecord{grantedAt: time.Unix(0, op.t1)}
			g.earned[string(clientPrefix(op.key))] = e
		}
		e.lastUsed.Store(op.t1)
		e.deliveries.Add(1)
	case walOpDelEarned:
		delete(g.earned, string(clientPrefix(op.key)))
	case walOpGC:
		g.gcLocked(time.Unix(0, op.t1))
	}
}

// walBarrier quiesces the engine for a checkpoint: under the
// exclusive lock it drains the ring (no producer can be mid-append
// while we hold the lock its mutation required), snapshots the
// tables, and — on the Close path — detaches the WAL inside the same
// critical section so no record can follow the final checkpoint. The
// returned encoder writes the exact bytes Save would.
//
// The lock is acquired with lockWithDrain: a producer yielding on a
// full ring inside a read lock must be drained before it can release
// that lock, so a plain Lock here could deadlock with it.
func (g *Greylister) walBarrier(w *WAL, detach bool) func(io.Writer) error {
	w.lockWithDrain(g.mu.TryLock)
	w.drainRing()
	snap := g.snapshotLocked()
	if detach {
		g.wal = nil
	}
	g.mu.Unlock()
	return func(wr io.Writer) error { return encodeSnapshot(wr, snap) }
}
