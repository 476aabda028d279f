package greylist

import (
	"bytes"
	"io"
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
		rec, _ := g.pending.put(op.key)
		rec.firstSeen, rec.lastSeen, rec.attempts = op.t1, op.t2, int(op.attempts)
	case walOpPromote:
		g.pending.del(op.key)
		p, _ := g.passed.put(op.key)
		p.passedAt = op.t1
		p.lastUsed.Store(op.t1)
		p.deliveries.Store(1)
		g.creditClient(clientPrefix(op.key), op.t1)
		g.grantEarned(clientPrefix(op.key), op.t1)
	case walOpTouch:
		p, ok := g.passed.put(op.key)
		if !ok {
			// A touch always follows the promote (or checkpoint) that
			// created the record; tolerate a gap by recreating it so a
			// damaged log still converges.
			p.passedAt = op.t1
		}
		p.lastUsed.Store(op.t1)
		p.deliveries.Add(1)
		g.creditClient(clientPrefix(op.key), op.t1)
	case walOpAutoPass:
		if c := g.clients.get(clientPrefix(op.key)); c != nil {
			c.lastUsed.Store(op.t1)
		}
	case walOpDelPassed:
		g.passed.del(op.key)
	case walOpDelClient:
		g.clients.del(clientPrefix(op.key))
	case walOpEarnTouch:
		e, ok := g.earned.put(clientPrefix(op.key))
		if !ok {
			// Tolerate a gap before the promote that granted the
			// entry (damaged log) by recreating it, like walOpTouch.
			e.grantedAt = op.t1
		}
		e.lastUsed.Store(op.t1)
		e.deliveries.Add(1)
	case walOpDelEarned:
		g.earned.del(clientPrefix(op.key))
	case walOpGC:
		g.gcLocked(op.t1)
	}
}

// walBarrier quiesces the engine for a checkpoint: under the
// exclusive lock it drains the ring (no producer can be mid-append
// while we hold the lock its mutation required), frames the tables into
// memory as a checkpoint body, and — on the Close path — detaches the
// WAL inside the same critical section so no record can follow the
// final checkpoint. The returned writer writes those bytes after the
// lock is gone; they are what Save would have written at the barrier.
//
// The lock is acquired with lockWithDrain: a producer yielding on a
// full ring inside a read lock must be drained before it can release
// that lock, so a plain Lock here could deadlock with it.
func (g *Greylister) walBarrier(w *WAL, detach bool) func(io.Writer) error {
	w.lockWithDrain(g.mu.TryLock)
	w.drainRing()
	var chunks [][]byte
	tail, _ := g.frameTablesLocked(make([]byte, 0, ckptChunk), func(b []byte) ([]byte, error) {
		chunks = append(chunks, b)
		return make([]byte, 0, ckptChunk), nil
	})
	chunks = append(chunks, tail)
	if detach {
		g.wal = nil
	}
	g.mu.Unlock()
	return func(wr io.Writer) error {
		for _, c := range chunks {
			if _, err := wr.Write(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// detachWAL stops journaling into w without building a checkpoint: the
// path of a consumer that died on an I/O error, where framing the
// tables would only stall every check. Once the exclusive lock is held
// no producer is mid-append, and after it is released none will start.
func (g *Greylister) detachWAL(w *WAL) {
	w.lockWithDrain(g.mu.TryLock)
	g.wal = nil
	g.mu.Unlock()
}
