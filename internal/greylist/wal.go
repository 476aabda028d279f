// Write-ahead logging for the greylist engine.
//
// Greylisting only works because the server remembers triplets across the
// retry window; a daemon that snapshots state solely on clean shutdown
// silently re-opens the greylisting window for every in-flight benign
// retry the moment it crashes — exactly the false-delay cost the paper
// measures in Figure 5. The WAL closes that hole: every state mutation
// (new pending triplet, pass, delivery-count bump, GC drop) appends one
// compact CRC32-framed record, periodic compaction writes a checkpoint
// snapshot and truncates the log, and recovery replays checkpoint + log
// with torn-tail truncation, following the same valid-prefix discipline
// as the scan pipeline's verdict files (internal/scan/verdictio.go).
//
// # Log format
//
// A log file is a fixed 32-byte header followed by records:
//
//	header (32 B):
//	  [0:8)   magic "GLWAL001"
//	  [8:12)  format version (u32 le)
//	  [12:16) flags (u32 le; bit 0 = subnet keying)
//	  [16:24) generation (u64 le; bumped by every compaction)
//	  [24:28) CRC-32 (IEEE) of bytes [0:24)
//	  [28:32) zero padding
//	record (variable):
//	  [0]     op
//	  [1:3)   key length (u16 le)
//	  [3:3+k) key — the triplet's canonical storage key; the client
//	          component is its prefix up to the first NUL
//	  per-op payload (see walOp* constants)
//	  CRC-32 (IEEE) of everything above (u32 le)
//
// A record is durable once its CRC is on disk; recovery replays the
// longest valid prefix and truncates the rest (a torn tail from a crash
// mid-append, or garbage past it).
//
// # Checkpoints
//
// Compaction pairs the log with a checkpoint file: a 40-byte envelope
// followed by the engine's Save stream, the checkpoint body:
//
//	envelope (40 B):
//	  [0:8)   magic "GLCKPT01"
//	  [8:12)  format version (u32 le)
//	  [12:16) flags (u32 le; bit 0 = subnet keying)
//	  [16:24) log generation this checkpoint pairs with (u64 le)
//	  [24:32) watermark — log offset covered by the snapshot (u64 le)
//	  [32:36) CRC-32 (IEEE) of bytes [0:32)
//	  [36:40) zero padding
//	body:
//	  [0:8)   magic "GLSTATE1"
//	  [8:12)  format version (u32 le)
//	  records, framed exactly like log records:
//	    one ckptOpCounts (pre-sizes the loader's maps)
//	    one ckptOpStats
//	    one per live entry: walOpPendingUpsert, ckptOpPassed,
//	      ckptOpClient, ckptOpEarned (absolute values; times in
//	      Unix nanoseconds, as in log records)
//	    one ckptOpEnd carrying the number of records before it
//
// The body is also the whole of a -state file written without the WAL
// (Save, SaveFile). Load reads it with the log's record reader, but
// where the log's first bad record just ends its valid prefix, any
// damage to a checkpoint (it is written atomically) fails the load:
// a record cut short or failing its CRC, an op not listed above, or a
// missing end record. Load still reads the gob snapshots older daemons
// wrote, with or without an envelope; an older daemon cannot read this
// body.
//
// The compaction protocol makes every crash window recoverable:
//
//  1. Quiesce: under the engine's exclusive lock the ring is drained,
//     so the log buffer holds every mutation ever made; the snapshot is
//     built at that same instant, then the lock is released.
//  2. The checkpoint (generation G, watermark W = log size at the
//     barrier) is written atomically (temp file, fsync, rename, fsync
//     of the directory).
//  3. The log is truncated and re-headed with generation G+1.
//
// A crash before 2 leaves the old checkpoint plus a complete log;
// between 2 and 3 the new checkpoint covers the log exactly through W
// (recovery skips what the snapshot already holds); after 3 the fresh
// log's generation exceeds the checkpoint's, so recovery replays all of
// it (nothing, immediately after compaction). Recovery itself always
// ends with a fresh compaction, so a daemon restart leaves a checkpoint
// plus an empty log regardless of what it found.
//
// # Ordering and the lock-free appender
//
// Producers (Check fast and slow paths, GC) enqueue records into a
// bounded MPMC ring while still holding the engine lock that covers the
// mutation, so ring order equals mutation order for everything decided
// under an exclusive lock. Concurrent read-locked fast-path touches
// commute (delivery counts add, last-used takes the newest), so their
// relative ring order is irrelevant. A single consumer goroutine drains
// the ring, frames records, writes the file and applies the fsync
// policy — the known-passed fast path pays one pointer test plus a slot
// claim and stays 0 allocs/op.
package greylist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// WAL ops. The key is the triplet's canonical storage key except for
// walOpGC, which carries no key.
const (
	// walOpPendingUpsert creates or rewrites a pending record: payload
	// firstSeen ns (i64), lastSeen ns (i64), attempts (u32). Covers
	// first-seen, too-soon retry bumps and window-expired resets.
	walOpPendingUpsert = byte(iota + 1)
	// walOpPromote moves a pending triplet to the passed table at the
	// payload time (i64 ns) and credits the client auto-whitelist.
	walOpPromote
	// walOpTouch refreshes a passed triplet (last-used := payload ns,
	// deliveries += 1) and credits the client auto-whitelist — the
	// known-passed fast path's record.
	walOpTouch
	// walOpAutoPass refreshes the auto-whitelisted client's last-used
	// time (payload ns). The key is the full triplet key; replay
	// applies it to the client prefix.
	walOpAutoPass
	// walOpDelPassed deletes an expired passed record (no payload).
	walOpDelPassed
	// walOpDelClient deletes a stale auto-whitelist client record
	// (no payload; key is the full triplet key, client prefix applies).
	walOpDelClient
	// walOpGC re-runs the GC sweep at the payload time (i64 ns).
	walOpGC
	// walOpEarnTouch refreshes (creating if missing) the earned-
	// whitelist entry for the key's client component: last-used :=
	// payload ns (i64), deliveries += 1. The grant itself has no
	// record — replaying walOpPromote re-grants whenever the policy
	// enables the earned whitelist, mirroring the live mutation.
	walOpEarnTouch
	// walOpDelEarned deletes an expired earned-whitelist entry (no
	// payload; key is the full triplet key, client prefix applies).
	walOpDelEarned

	// Checkpoint-body ops (see "Checkpoints"). A body carries these and
	// walOpPendingUpsert, all with absolute values; the log carries
	// none of them.

	// ckptOpCounts leads a body: the pending, passed, client and earned
	// entry counts (4 × u64), so the loader can pre-size its maps. No
	// key.
	ckptOpCounts
	// ckptOpPassed is one passed triplet: passedAt ns (i64), lastUsed
	// ns (i64), deliveries (u64).
	ckptOpPassed
	// ckptOpClient is one auto-whitelist record, keyed by the client
	// key: lastUsed ns (i64), deliveries (u64).
	ckptOpClient
	// ckptOpEarned is one earned-whitelist record, keyed by the client
	// key: grantedAt ns (i64), lastUsed ns (i64), deliveries (u64).
	ckptOpEarned
	// ckptOpStats carries the Stats counters (u64 each, in the order
	// Stats.fields lists them). No key.
	ckptOpStats
	// ckptOpEnd closes a body: the number of records before it (u64).
	// No key.
	ckptOpEnd
)

const (
	walMagic         = "GLWAL001"
	walVersion       = 1
	walHeaderSize    = 32
	ckptMagic        = "GLCKPT01"
	ckptVersion      = 1
	ckptEnvelopeSize = 40
	stateMagic       = "GLSTATE1"
	stateVersion     = 1
	stateHeaderSize  = 12

	walFlagSubnet = 1 << 0

	// walMaxKeyLen bounds the record key length field (u16). Envelope
	// addresses are bounded far below this in practice; a longer key is
	// not representable and its record is dropped rather than framed
	// wrong.
	walMaxKeyLen = 1<<16 - 1

	// walOverflowLen marks a ring slot whose key spilled past the
	// inline buffer into the overflow string.
	walOverflowLen = uint16(0xFFFF)
)

// walPayloadSize maps a log op to its fixed payload size; -1 marks an op
// the log never carries (framing can never resynchronize past one, so
// the tail is truncated there).
func walPayloadSize(op byte) int {
	switch op {
	case walOpPendingUpsert:
		return 20
	case walOpPromote, walOpTouch, walOpAutoPass, walOpGC, walOpEarnTouch:
		return 8
	case walOpDelPassed, walOpDelClient, walOpDelEarned:
		return 0
	default:
		return -1
	}
}

// ckptPayloadSize is walPayloadSize for checkpoint bodies.
func ckptPayloadSize(op byte) int {
	switch op {
	case walOpPendingUpsert:
		return 20
	case ckptOpEnd:
		return 8
	case ckptOpClient:
		return 16
	case ckptOpPassed, ckptOpEarned:
		return 24
	case ckptOpCounts:
		return 32
	case ckptOpStats:
		return 8 * statsFields
	default:
		return -1
	}
}

// ErrWALMismatch reports a log or checkpoint written under a different
// keying configuration (subnet keying changes every stored key), so
// replaying it would corrupt the tables; the caller must start from a
// fresh state directory instead.
var ErrWALMismatch = errors.New("greylist: wal written under a different keying configuration")

// SyncPolicy selects when the WAL consumer fsyncs the log.
type SyncPolicy int

const (
	// SyncInterval fsyncs at most once per SyncEvery while the log is
	// dirty (the default): bounded data loss, negligible overhead.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every drained batch of records.
	SyncAlways
	// SyncNone never fsyncs explicitly; the OS writes back on its own
	// schedule.
	SyncNone
)

// ParseSyncPolicy maps the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("greylist: unknown wal sync policy %q (want always, interval or none)", s)
	}
}

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// WALConfig configures OpenWAL.
type WALConfig struct {
	// Path is the log file. Required.
	Path string
	// CheckpointPath is the snapshot file compaction writes and
	// recovery loads (the daemon's -state file). Required.
	CheckpointPath string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval cadence (default 1s).
	SyncEvery time.Duration
	// CompactBytes is how many bytes of log growth trigger checkpoint
	// compaction (default 16 MiB; < 0 disables automatic compaction).
	CompactBytes int64
	// Ring is the appender ring size in slots, rounded up to a power
	// of two (default 8192). Producers briefly yield when the ring is
	// full, so a larger ring absorbs longer checkpoint pauses.
	Ring int
	// Tracer, when non-nil, records one trace per recovery and per
	// compaction with KindCheckpoint events ("wal-recover",
	// "wal-compact", "wal-torn").
	Tracer *trace.Tracer
}

// RecoverInfo reports what OpenWAL found on disk.
type RecoverInfo struct {
	// CheckpointLoaded is true when a checkpoint snapshot was loaded.
	CheckpointLoaded bool
	// LegacySnapshot is true when the checkpoint file was a raw
	// pre-WAL Save stream (no envelope); it loads fine and the first
	// compaction rewrites it enveloped.
	LegacySnapshot bool
	// ReplayedRecords counts log records applied on top of the
	// checkpoint.
	ReplayedRecords int
	// ReplayedBytes counts the log bytes those records occupied.
	ReplayedBytes int64
	// TornBytes counts bytes discarded past the valid record prefix —
	// a partial append from the crash, or garbage.
	TornBytes int64
	// Generation is the fresh log's generation after recovery.
	Generation uint64
}

// walOp is one decoded log record.
type walOp struct {
	op       byte
	key      []byte
	t1, t2   int64
	attempts uint32
}

// walSlot is one ring entry. seq follows the bounded-queue discipline:
// it equals the slot's position when free, position+1 when filled.
type walSlot struct {
	seq      atomic.Uint64
	op       byte
	keyLen   uint16
	attempts uint32
	t1, t2   int64
	key      [keyBufCap]byte
	overflow string
}

// walCtl carries a synchronous request into the consumer goroutine.
type walCtl struct {
	kind walCtlKind
	done chan error
}

type walCtlKind int

const (
	ctlFlush walCtlKind = iota + 1
	ctlSync
	ctlCompact
	ctlClose
)

// WAL is an append-only write-ahead log attached to a greylist engine
// by OpenWAL. All methods are safe for concurrent use; record appends
// come from the engine's check paths and are invisible to callers.
type WAL struct {
	cfg    WALConfig
	engine *Greylister
	flags  uint32

	// ring is the lock-free appender: producers claim slots with head,
	// the consumer goroutine frees them in order with tail (atomic only
	// so the backlog gauge can read it).
	ring []walSlot
	mask uint64
	head atomic.Uint64
	tail atomic.Uint64

	wake chan struct{}
	ctl  chan walCtl
	done chan struct{}

	// Consumer-only file state.
	f       *os.File
	buf     []byte
	gen     uint64
	size    int64 // log bytes on disk including header
	dirty   bool  // bytes written since the last fsync
	lastTry int64 // log size at the last failed compaction attempt

	closed atomic.Bool
	// failed is set when the consumer dies on an I/O error; producers
	// yielding on a full ring check it so a dead disk degrades to
	// journaling off instead of wedging every Check.
	failed atomic.Bool
	errMsg atomic.Pointer[string]

	// Counters exported by Register.
	nRecords     atomic.Uint64
	nBytes       atomic.Uint64
	nFsyncs      atomic.Uint64
	nCompactions atomic.Uint64
	nCkptErrors  atomic.Uint64
	nCkptBytes   atomic.Uint64
	nReplayed    atomic.Uint64
	nTornBytes   atomic.Uint64
	logBytes     atomic.Int64
	compactInst  atomic.Pointer[metrics.Histogram]
}

// OpenWAL recovers the engine's state from the checkpoint and log at
// cfg's paths — loading the checkpoint snapshot, replaying the log's
// valid record prefix on top, truncating any torn tail — then attaches
// a fresh log to the engine and starts the appender. From that moment
// every mutation the engine makes is journaled, and a crash loses at
// most the records not yet fsynced under the configured policy.
//
// Recovery always finishes with a compaction (checkpoint written,
// empty log at a new generation), so the crash-window bookkeeping never
// compounds across restarts. A checkpoint or log written under a
// different SubnetKeying setting fails with ErrWALMismatch; a missing
// checkpoint or log is a fresh start, but any other read error (e.g.
// permissions) is returned rather than silently re-greylisting the
// world.
func OpenWAL(cfg WALConfig, g *Greylister) (*WAL, RecoverInfo, error) {
	var info RecoverInfo
	if cfg.Path == "" || cfg.CheckpointPath == "" {
		return nil, info, errors.New("greylist: wal needs both a log path and a checkpoint path")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = time.Second
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = 16 << 20
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 8192
	}
	ringSize := 1
	for ringSize < cfg.Ring {
		ringSize <<= 1
	}

	w := &WAL{
		cfg:    cfg,
		engine: g,
		wake:   make(chan struct{}, 1),
		ctl:    make(chan walCtl),
		done:   make(chan struct{}),
		ring:   make([]walSlot, ringSize),
		mask:   uint64(ringSize - 1),
	}
	for i := range w.ring {
		w.ring[i].seq.Store(uint64(i))
	}
	if g.policy.SubnetKeying {
		w.flags |= walFlagSubnet
	}

	start := time.Now()
	ckGen, ckWatermark, err := w.recoverCheckpoint(&info)
	if err != nil {
		return nil, info, err
	}
	logGen, err := w.recoverLog(&info, ckGen, ckWatermark)
	if err != nil {
		return nil, info, err
	}
	w.nReplayed.Store(uint64(info.ReplayedRecords))
	w.nTornBytes.Store(uint64(info.TornBytes))

	// Re-checkpoint the recovered state and start a fresh log: after
	// this point the checkpoint covers everything ever replayed and
	// the log is empty at a generation past the checkpoint's.
	w.gen = max(logGen, ckGen) + 1
	if err := w.writeCheckpoint(w.gen, walHeaderSize, g.Save); err != nil {
		return nil, info, err
	}
	if err := w.resetLog(); err != nil {
		return nil, info, err
	}
	info.Generation = w.gen

	if tr := cfg.Tracer.StartSession(trace.Tags{Family: "greylist-wal"}, "", nil); tr != nil {
		tr.Checkpoint("wal-recover",
			fmt.Sprintf("checkpoint=%v legacy=%v replayed=%d bytes=%d gen=%d",
				info.CheckpointLoaded, info.LegacySnapshot, info.ReplayedRecords, info.ReplayedBytes, w.gen),
			info.ReplayedRecords, time.Since(start))
		if info.TornBytes > 0 {
			tr.Checkpoint("wal-torn", fmt.Sprintf("%d bytes discarded past the valid prefix", info.TornBytes),
				int(info.TornBytes), 0)
		}
		tr.Finish("recovered")
	}

	g.attachWAL(w)
	go w.run()
	return w, info, nil
}

// recoverCheckpoint loads the checkpoint file into the engine and
// returns the (generation, watermark) pair it pairs with. A missing
// file is a fresh start; a raw pre-WAL snapshot (no envelope) loads as
// generation 0 so the whole log replays on top of it.
func (w *WAL) recoverCheckpoint(info *RecoverInfo) (gen, watermark uint64, err error) {
	f, err := os.Open(w.cfg.CheckpointPath)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("greylist: wal checkpoint: %w", err)
	}
	defer f.Close()

	var env [ckptEnvelopeSize]byte
	_, err = io.ReadFull(f, env[:])
	if err == io.EOF {
		return 0, 0, nil // empty file: fresh start
	}
	if err != nil && err != io.ErrUnexpectedEOF {
		return 0, 0, fmt.Errorf("greylist: wal checkpoint: %w", err)
	}
	if err == io.ErrUnexpectedEOF || string(env[0:8]) != ckptMagic {
		// A raw Save stream from a pre-WAL deployment: load it whole.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return 0, 0, fmt.Errorf("greylist: wal checkpoint: %w", err)
		}
		if err := w.engine.Load(f); err != nil {
			return 0, 0, fmt.Errorf("greylist: wal checkpoint (legacy snapshot): %w", err)
		}
		info.CheckpointLoaded = true
		info.LegacySnapshot = true
		return 0, 0, nil
	}
	if v := binary.LittleEndian.Uint32(env[8:]); v != ckptVersion {
		return 0, 0, fmt.Errorf("greylist: wal checkpoint version %d (want %d)", v, ckptVersion)
	}
	if got, want := crc32.ChecksumIEEE(env[0:32]), binary.LittleEndian.Uint32(env[32:]); got != want {
		return 0, 0, errors.New("greylist: wal checkpoint envelope checksum mismatch")
	}
	if flags := binary.LittleEndian.Uint32(env[12:]); flags != w.flags {
		return 0, 0, fmt.Errorf("%w (checkpoint flags %#x, engine %#x)", ErrWALMismatch, flags, w.flags)
	}
	if err := w.engine.Load(f); err != nil {
		return 0, 0, err
	}
	info.CheckpointLoaded = true
	return binary.LittleEndian.Uint64(env[16:]), binary.LittleEndian.Uint64(env[24:]), nil
}

// recoverLog replays the log's valid record prefix onto the engine,
// skipping what the checkpoint already covers, and returns the log's
// generation. The file is left closed; resetLog recreates it.
func (w *WAL) recoverLog(info *RecoverInfo, ckGen, ckWatermark uint64) (gen uint64, err error) {
	f, err := os.Open(w.cfg.Path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("greylist: wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("greylist: wal: %w", err)
	}
	size := st.Size()

	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		// Shorter than a header: nothing durable (a crash between
		// truncate and re-head). The checkpoint has everything.
		info.TornBytes += size
		return ckGen + 1, nil
	}
	if string(hdr[0:8]) != walMagic ||
		binary.LittleEndian.Uint32(hdr[8:]) != walVersion ||
		crc32.ChecksumIEEE(hdr[0:24]) != binary.LittleEndian.Uint32(hdr[24:]) {
		// Torn or foreign header: same as above, but surface a bad
		// magic on a well-formed-size file as corruption.
		info.TornBytes += size
		return ckGen + 1, nil
	}
	if flags := binary.LittleEndian.Uint32(hdr[12:]); flags != w.flags {
		return 0, fmt.Errorf("%w (log flags %#x, engine %#x)", ErrWALMismatch, flags, w.flags)
	}
	gen = binary.LittleEndian.Uint64(hdr[16:])

	// What does the checkpoint already cover?
	//   log gen >  checkpoint gen: nothing — replay the whole log.
	//   log gen == checkpoint gen: everything through the watermark.
	//   log gen <  checkpoint gen: the whole log (a crash landed
	//     between checkpoint write and log reset) — replay nothing.
	skip := int64(walHeaderSize)
	switch {
	case gen == ckGen:
		skip = min(int64(ckWatermark), size)
	case gen < ckGen:
		skip = size
	}
	if skip < walHeaderSize {
		skip = walHeaderSize
	}
	if _, err := f.Seek(skip, io.SeekStart); err != nil {
		return 0, fmt.Errorf("greylist: wal: %w", err)
	}

	replayed, good := w.replay(f, skip)
	info.ReplayedRecords += replayed
	info.ReplayedBytes += good - skip
	info.TornBytes += size - good
	return gen, nil
}

// replay decodes records from r (positioned at offset off in the file)
// and applies them to the engine in batches, stopping at the first torn
// or corrupt record. It returns the record count and the offset one
// past the last valid record.
func (w *WAL) replay(r io.Reader, off int64) (replayed int, good int64) {
	const batchRecords = 1024
	rr := recordReader{br: bufio.NewReaderSize(r, 64<<10), size: walPayloadSize}
	var arena []byte
	ops := make([]walOp, 0, batchRecords)
	good = off
	flush := func() {
		if len(ops) == 0 {
			return
		}
		// Keys alias the arena, which survives until the next flush.
		w.engine.applyWALBatch(ops)
		ops = ops[:0]
		arena = arena[:0]
	}
	for {
		code, key, payload, err := rr.next()
		if err != nil {
			break // clean end, or the first torn or corrupt record: truncate here
		}
		mark := len(arena)
		arena = append(arena, key...)
		op := walOp{op: code, key: arena[mark:]}
		switch code {
		case walOpPendingUpsert:
			op.t1 = int64(binary.LittleEndian.Uint64(payload[0:]))
			op.t2 = int64(binary.LittleEndian.Uint64(payload[8:]))
			op.attempts = binary.LittleEndian.Uint32(payload[16:])
		case walOpPromote, walOpTouch, walOpAutoPass, walOpGC, walOpEarnTouch:
			op.t1 = int64(binary.LittleEndian.Uint64(payload[0:]))
		}
		ops = append(ops, op)
		replayed++
		good += int64(len(rr.rec))
		if len(ops) >= batchRecords {
			flush()
		}
	}
	flush()
	return replayed, good
}

// recordReader reads the log's record framing (op, u16 key length, key,
// fixed payload, CRC-32) from a buffered stream. Log replay and
// checkpoint loading share it; each passes the payload sizes of the ops
// its stream may carry.
type recordReader struct {
	br   *bufio.Reader
	size func(op byte) int
	rec  []byte // the last record read, reused across calls
}

var (
	errRecordCut      = errors.New("record cut short")
	errRecordChecksum = errors.New("record checksum mismatch")
)

// next reads one record. key and payload alias the reader's buffer until
// the next call. A clean end of input is io.EOF; a record cut short, an
// op the stream may not carry or a checksum mismatch is an error naming
// which.
func (rr *recordReader) next() (op byte, key, payload []byte, err error) {
	op, err = rr.br.ReadByte()
	if err != nil {
		return 0, nil, nil, err
	}
	psize := rr.size(op)
	if psize < 0 {
		return 0, nil, nil, fmt.Errorf("unknown op %#x", op)
	}
	// The key length is read a byte at a time: reading it into a local
	// array through io.ReadFull would move the array to the heap, one
	// allocation per record.
	lo, err := rr.br.ReadByte()
	if err != nil {
		return 0, nil, nil, errRecordCut
	}
	hi, err := rr.br.ReadByte()
	if err != nil {
		return 0, nil, nil, errRecordCut
	}
	keyLen := int(lo) | int(hi)<<8
	n := 3 + keyLen + psize + 4
	if cap(rr.rec) < n {
		rr.rec = make([]byte, n)
	}
	rec := rr.rec[:n]
	rec[0], rec[1], rec[2] = op, lo, hi
	if _, err := io.ReadFull(rr.br, rec[3:]); err != nil {
		return 0, nil, nil, errRecordCut
	}
	if crc32.ChecksumIEEE(rec[:n-4]) != binary.LittleEndian.Uint32(rec[n-4:]) {
		return 0, nil, nil, errRecordChecksum
	}
	rr.rec = rec
	return op, rec[3 : 3+keyLen], rec[3+keyLen : n-4], nil
}

// appendRecord frames one record onto dst: op, u16 key length, key,
// payload, and the CRC-32 of all of it. The log's consumer and the
// checkpoint writer share it.
func appendRecord[K string | []byte](dst []byte, op byte, key K, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, op, byte(len(key)), byte(len(key)>>8))
	dst = append(dst, key...)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// resetLog truncates the log file (creating it if needed) and writes a
// fresh header at the current generation, durably.
func (w *WAL) resetLog() error {
	if w.f == nil {
		f, err := os.OpenFile(w.cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("greylist: wal: %w", err)
		}
		w.f = f
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("greylist: wal: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[0:8], walMagic)
	binary.LittleEndian.PutUint32(hdr[8:], walVersion)
	binary.LittleEndian.PutUint32(hdr[12:], w.flags)
	binary.LittleEndian.PutUint64(hdr[16:], w.gen)
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(hdr[0:24]))
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("greylist: wal: %w", err)
	}
	// Subsequent appends go through Write: park the offset just past
	// the header (WriteAt does not move it).
	if _, err := w.f.Seek(walHeaderSize, io.SeekStart); err != nil {
		return fmt.Errorf("greylist: wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("greylist: wal: %w", err)
	}
	w.size = walHeaderSize
	w.logBytes.Store(w.size)
	w.dirty = false
	w.lastTry = 0
	return nil
}

// writeCheckpoint writes the envelope plus body atomically to the
// checkpoint path (temp file, fsync, rename, fsync of the directory).
func (w *WAL) writeCheckpoint(gen, watermark uint64, body func(io.Writer) error) error {
	var written countingWriter
	err := atomicSave(w.cfg.CheckpointPath, func(wr io.Writer) error {
		var env [ckptEnvelopeSize]byte
		copy(env[0:8], ckptMagic)
		binary.LittleEndian.PutUint32(env[8:], ckptVersion)
		binary.LittleEndian.PutUint32(env[12:], w.flags)
		binary.LittleEndian.PutUint64(env[16:], gen)
		binary.LittleEndian.PutUint64(env[24:], watermark)
		binary.LittleEndian.PutUint32(env[32:], crc32.ChecksumIEEE(env[0:32]))
		written.w = wr
		if _, err := written.Write(env[:]); err != nil {
			return err
		}
		return body(&written)
	})
	if err != nil {
		return err
	}
	w.nCkptBytes.Add(uint64(written.n))
	return nil
}

// countingWriter counts bytes for the wal_checkpoint_bytes_total
// counter.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// append enqueues one record. Producers hold the engine lock covering
// the mutation (read or write), which is what makes ring order match
// mutation order; see the package comment. It never allocates for keys
// that fit the engine's stack buffers, keeping the known-passed fast
// path at 0 allocs/op with the WAL attached.
func (w *WAL) append(op byte, key []byte, t1, t2 int64, attempts uint32) {
	if len(key) > walMaxKeyLen {
		return // unrepresentable; arbitrarily long keys are not journaled
	}
	pos := w.head.Add(1) - 1
	slot := &w.ring[pos&w.mask]
	for slot.seq.Load() != pos {
		// Ring full (or the producer that claimed this slot a lap ago
		// hasn't been consumed yet): yield until the consumer frees it.
		// If the consumer died on an I/O error the slot never frees;
		// drop the record so a dead disk degrades to journaling off
		// instead of wedging every Check.
		if w.failed.Load() {
			return
		}
		runtime.Gosched()
	}
	slot.op = op
	slot.t1, slot.t2, slot.attempts = t1, t2, attempts
	if len(key) <= keyBufCap {
		slot.keyLen = uint16(len(key))
		copy(slot.key[:], key)
	} else {
		slot.keyLen = walOverflowLen
		slot.overflow = string(key)
	}
	slot.seq.Store(pos + 1)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// drainRing moves every filled ring slot into the consumer's frame
// buffer. Consumer-goroutine only (also called from inside the
// engine's checkpoint barrier, which runs on the consumer goroutine).
func (w *WAL) drainRing() {
	for {
		t := w.tail.Load()
		slot := &w.ring[t&w.mask]
		if slot.seq.Load() != t+1 {
			return
		}
		var key []byte
		if slot.keyLen == walOverflowLen {
			key = []byte(slot.overflow)
		} else {
			key = slot.key[:slot.keyLen]
		}
		w.frame(slot.op, key, slot.t1, slot.t2, slot.attempts)
		slot.overflow = ""
		slot.seq.Store(t + w.mask + 1)
		w.tail.Store(t + 1)
	}
}

// frame appends one encoded record to the write buffer. Every op's
// payload is a prefix of t1, t2, attempts.
func (w *WAL) frame(op byte, key []byte, t1, t2 int64, attempts uint32) {
	var p [20]byte
	binary.LittleEndian.PutUint64(p[0:], uint64(t1))
	binary.LittleEndian.PutUint64(p[8:], uint64(t2))
	binary.LittleEndian.PutUint32(p[16:], attempts)
	w.buf = appendRecord(w.buf, op, key, p[:walPayloadSize(op)])
	w.nRecords.Add(1)
}

// writeBuf flushes the frame buffer to the file.
func (w *WAL) writeBuf() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	w.logBytes.Store(w.size)
	w.nBytes.Add(uint64(n))
	w.buf = w.buf[:0]
	if n > 0 {
		w.dirty = true
	}
	if err != nil {
		return fmt.Errorf("greylist: wal: %w", err)
	}
	return nil
}

// syncNow fsyncs the log if dirty.
func (w *WAL) syncNow() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("greylist: wal: %w", err)
	}
	w.dirty = false
	w.nFsyncs.Add(1)
	return nil
}

// run is the consumer goroutine: drain, write, fsync per policy,
// compact past the threshold, serve control requests. An I/O failure
// is fatal — producers would otherwise journal into the void — so the
// consumer detaches the engine, marks itself failed (unblocking any
// producer waiting on a full ring) and exits; the daemon sees the
// error through the wal_checkpoint_errors counter and Close.
func (w *WAL) run() {
	defer close(w.done)
	fatal := func(err error) {
		msg := err.Error()
		w.errMsg.Store(&msg)
		w.failed.Store(true)
		if w.engine != nil {
			w.engine.detachWAL(w)
		}
		w.f.Close()
	}
	var tick <-chan time.Time
	if w.cfg.Sync == SyncInterval {
		ticker := time.NewTicker(w.cfg.SyncEvery)
		tick = ticker.C
		defer ticker.Stop()
	}
	step := func() error {
		w.drainRing()
		if err := w.writeBuf(); err != nil {
			return err
		}
		if w.cfg.Sync == SyncAlways {
			if err := w.syncNow(); err != nil {
				return err
			}
		}
		w.maybeCompact()
		return nil
	}
	for {
		select {
		case <-w.wake:
			if err := step(); err != nil {
				fatal(err)
				return
			}
		case <-tick:
			if err := step(); err != nil {
				fatal(err)
				return
			}
			if err := w.syncNow(); err != nil {
				fatal(err)
				return
			}
		case req := <-w.ctl:
			w.drainRing()
			err := w.writeBuf()
			switch req.kind {
			case ctlFlush:
				// drained and written above
			case ctlSync:
				if err == nil {
					err = w.syncNow()
				}
			case ctlCompact:
				if err == nil {
					err = w.compact(false)
				}
			case ctlClose:
				if err == nil {
					err = w.compact(true)
				}
				if err == nil {
					err = w.syncNow()
				}
				if cerr := w.f.Close(); err == nil && cerr != nil {
					err = fmt.Errorf("greylist: wal: %w", cerr)
				}
				w.failed.Store(true) // unblock producers racing the detach
				req.done <- err
				return
			}
			req.done <- err
		}
	}
}

// maybeCompact compacts when the log has outgrown the threshold. A
// failed checkpoint write leaves the log intact (nothing is lost) and
// retries only after another threshold's worth of growth, so a full
// disk does not turn into a hot loop.
func (w *WAL) maybeCompact() {
	if w.cfg.CompactBytes < 0 || w.engine == nil {
		return
	}
	if w.size-walHeaderSize < w.cfg.CompactBytes {
		return
	}
	if w.lastTry != 0 && w.size < w.lastTry+w.cfg.CompactBytes {
		return
	}
	if err := w.compact(false); err != nil {
		w.lastTry = w.size
	}
}

// compact runs the checkpoint protocol described in the package
// comment: barrier (drain under the engine lock + snapshot), checkpoint
// write, log truncation. With detach the engine stops journaling at
// the barrier — the Close path.
func (w *WAL) compact(detach bool) error {
	start := time.Now()
	save := w.engine.walBarrier(w, detach)
	// The barrier drained the ring under the engine's lock: the frame
	// buffer + file now hold every mutation the snapshot contains.
	if err := w.writeBuf(); err != nil {
		w.nCkptErrors.Add(1)
		return err
	}
	watermark := w.size
	if err := w.writeCheckpoint(w.gen, uint64(watermark), save); err != nil {
		w.nCkptErrors.Add(1)
		return err
	}
	w.gen++
	if err := w.resetLog(); err != nil {
		w.nCkptErrors.Add(1)
		return err
	}
	w.nCompactions.Add(1)
	if h := w.compactInst.Load(); h != nil {
		h.ObserveDuration(time.Since(start))
	}
	if tr := w.cfg.Tracer.StartSession(trace.Tags{Family: "greylist-wal"}, "", nil); tr != nil {
		tr.Checkpoint("wal-compact",
			fmt.Sprintf("log %d bytes -> checkpoint, gen %d", watermark-walHeaderSize, w.gen),
			int(watermark-walHeaderSize), time.Since(start))
		tr.Finish("compacted")
	}
	return nil
}

// lockWithDrain acquires an exclusive engine lock from the consumer
// goroutine while keeping the ring draining, so a producer yielding on
// a full ring inside a read lock can always finish and release it —
// the lock-ordering partner of append's Gosched loop.
func (w *WAL) lockWithDrain(lock func() bool) {
	for !lock() {
		w.drainRing()
		runtime.Gosched()
	}
}

// request sends a control request to the consumer and waits.
func (w *WAL) request(kind walCtlKind) error {
	if w.closed.Load() && kind != ctlClose {
		return errors.New("greylist: wal is closed")
	}
	req := walCtl{kind: kind, done: make(chan error, 1)}
	select {
	case w.ctl <- req:
		return <-req.done
	case <-w.done:
		if msg := w.errMsg.Load(); msg != nil {
			return fmt.Errorf("greylist: wal consumer died: %s", *msg)
		}
		return errors.New("greylist: wal consumer has exited")
	}
}

// Flush drains the ring and writes buffered records to the OS.
func (w *WAL) Flush() error { return w.request(ctlFlush) }

// Sync drains, writes and fsyncs: on return every record appended
// before the call is durable.
func (w *WAL) Sync() error { return w.request(ctlSync) }

// Compact forces a checkpoint compaction regardless of log size.
func (w *WAL) Compact() error { return w.request(ctlCompact) }

// Close checkpoints the engine one last time (so a clean shutdown
// leaves a snapshot plus an empty log), detaches it, and closes the
// log file. The engine remains usable; it just stops journaling.
func (w *WAL) Close() error {
	if w.closed.Swap(true) {
		<-w.done
		return nil
	}
	return w.request(ctlClose)
}

// Generation reports the live log generation (for tests and
// diagnostics).
func (w *WAL) Generation() uint64 { return w.gen }

// WALCounts is a snapshot of the WAL's cumulative op counters — the
// observatory polls these at window rotation to derive per-window
// deltas.
type WALCounts struct {
	Records     uint64
	Bytes       uint64
	Fsyncs      uint64
	Compactions uint64
}

// Counts snapshots the cumulative WAL op counters.
func (w *WAL) Counts() WALCounts {
	return WALCounts{
		Records:     w.nRecords.Load(),
		Bytes:       w.nBytes.Load(),
		Fsyncs:      w.nFsyncs.Load(),
		Compactions: w.nCompactions.Load(),
	}
}

// Healthy reports whether the WAL consumer is still journaling: nil
// while the consumer is alive, an error after Close or after the
// consumer died on an I/O error (the engine keeps serving with
// journaling degraded to off — exactly the state a readiness probe
// should surface). It backs the /healthz wal probe.
func (w *WAL) Healthy() error {
	if w.failed.Load() {
		msg := "i/o error"
		if p := w.errMsg.Load(); p != nil {
			msg = *p
		}
		return fmt.Errorf("wal consumer died: %s", msg)
	}
	if w.closed.Load() {
		return fmt.Errorf("wal closed")
	}
	return nil
}

// Register exports the WAL's counters and gauges into reg under the
// wal_* namespace, mirroring the appender's own atomics.
func (w *WAL) Register(reg *metrics.Registry) {
	reg.CounterFunc("wal_records_total",
		"State-mutation records appended to the write-ahead log.",
		w.nRecords.Load)
	reg.CounterFunc("wal_bytes_total",
		"Record bytes written to the write-ahead log.",
		w.nBytes.Load)
	reg.CounterFunc("wal_fsyncs_total",
		"fsync calls issued by the WAL consumer.",
		w.nFsyncs.Load)
	reg.CounterFunc("wal_compactions_total",
		"Checkpoint compactions (snapshot written, log truncated).",
		w.nCompactions.Load)
	reg.CounterFunc("wal_checkpoint_errors_total",
		"Failed checkpoint compactions (log kept; retried after more growth).",
		w.nCkptErrors.Load)
	reg.CounterFunc("wal_checkpoint_bytes_total",
		"Bytes written to checkpoint snapshots.",
		w.nCkptBytes.Load)
	reg.CounterFunc("wal_replayed_records_total",
		"Records replayed from the log during crash recovery.",
		w.nReplayed.Load)
	reg.CounterFunc("wal_torn_bytes_total",
		"Bytes discarded past the valid record prefix during recovery.",
		w.nTornBytes.Load)
	reg.GaugeFunc("wal_log_bytes",
		"Current size of the write-ahead log including its header.",
		func() float64 { return float64(w.logBytes.Load()) })
	reg.GaugeFunc("wal_ring_backlog",
		"Records enqueued but not yet framed by the consumer.",
		func() float64 { return float64(w.head.Load() - w.tail.Load()) })
	w.compactInst.Store(reg.Histogram("wal_compact_seconds",
		"Wall-clock duration of checkpoint compactions.", nil))
}
