package greylist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

// gobSnapshot renders g's state as the gob snapshot (version 2) that
// Save wrote before checkpoints took the log's framing; the tests of
// the legacy loaders feed it to Load.
func gobSnapshot(t testing.TB, g *Greylister) []byte {
	t.Helper()
	g.mu.RLock()
	snap := snapshot{
		Version: snapshotVersion,
		Pending: make(map[string]pendingSnap),
		Passed:  make(map[string]passedSnap),
		Clients: make(map[string]clientSnap),
		Earned:  make(map[string]earnedSnap),
		Stats:   g.stats.snapshot(),
	}
	at := func(ns int64) time.Time { return time.Unix(0, ns).UTC() }
	g.pending.each(func(k []byte, v *pendingRecord) {
		snap.Pending[string(k)] = pendingSnap{FirstSeen: at(v.firstSeen), LastSeen: at(v.lastSeen), Attempts: v.attempts}
	})
	g.passed.each(func(k []byte, v *passedRecord) {
		snap.Passed[string(k)] = passedSnap{PassedAt: at(v.passedAt), LastUsed: at(v.lastUsed.Load()), Deliveries: int(v.deliveries.Load())}
	})
	g.clients.each(func(k []byte, v *clientRecord) {
		snap.Clients[string(k)] = clientSnap{Deliveries: int(v.deliveries.Load()), LastUsed: at(v.lastUsed.Load())}
	})
	g.earned.each(func(k []byte, v *earnedRecord) {
		snap.Earned[string(k)] = earnedSnap{GrantedAt: at(v.grantedAt), LastUsed: at(v.lastUsed.Load()), Deliveries: int(v.deliveries.Load())}
	})
	g.mu.RUnlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyStatePolicy and legacyStateWorkload built testdata/state-v2.gob
// with SaveFile before checkpoints took the log's framing. Run today,
// they build the tables that file must load to.
func legacyStatePolicy() Policy {
	p := walTestPolicy()
	p.EarnedLifetime = 10000 * time.Second
	return p
}

func legacyStateWorkload(g *Greylister, clock *simtime.Sim) {
	trip := func(c, j int) Triplet {
		return Triplet{
			ClientIP:  fmt.Sprintf("198.51.100.%d", c),
			Sender:    fmt.Sprintf("s%d@x.example", c),
			Recipient: fmt.Sprintf("u%d@y.example", j),
		}
	}
	for c := 0; c < 6; c++ {
		g.Check(trip(c, 0))
		g.Check(trip(c, 1))
	}
	clock.Advance(301 * time.Second)
	for c := 0; c < 4; c++ {
		g.Check(trip(c, 0))
	}
	clock.Advance(60 * time.Second)
	for c := 0; c < 4; c++ {
		g.Check(trip(c, 0))
		g.Check(trip(c, 2))
	}
	walWorkload(g, clock, 0, 40)
}

// fullState builds an engine whose four tables and Stats are all
// populated, keyed by /24 subnet and partly re-keyed by SPF domain.
func fullState() *Greylister {
	clock := simtime.NewSim(simtime.Epoch)
	p := legacyStatePolicy()
	p.SubnetKeying = true
	g := New(p, clock)
	legacyStateWorkload(g, clock)
	g.SetChain(NewChain(WhitelistStage(g.Whitelist()), senderDomainRekey{}))
	for _, ip := range []string{"192.0.2.1", "203.0.113.50", "192.0.2.1"} {
		g.Check(Triplet{ClientIP: ip, Sender: "news@bulk.example", Recipient: "a@foo.net"})
		clock.Advance(301 * time.Second)
	}
	g.Check(Triplet{ClientIP: "192.0.2.2", Sender: "other@fresh.example", Recipient: "a@foo.net"})
	return g
}

// TestSaveLoadAllTables: Save then Load reproduces all four tables and
// every Stats counter, under subnet keying and with SPF-rekeyed keys.
func TestSaveLoadAllTables(t *testing.T) {
	g := fullState()
	dump := dumpTables(g)
	for _, want := range []string{"P ", "W ", "C ", "E ", `"spf:bulk.example`, `"203.0.113\x00`} {
		if !strings.Contains(dump, want) {
			t.Fatalf("setup: tables lack %q:\n%s", want, dump)
		}
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(stateMagic)) {
		t.Fatalf("Save wrote %q..., want the %q header", buf.Bytes()[:8], stateMagic)
	}
	r := New(g.Policy(), simtime.NewSim(simtime.Epoch))
	if err := r.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := dumpTables(r); got != dump {
		t.Errorf("tables after Save/Load\ngot:\n%s\nwant:\n%s", got, dump)
	}
	if got, want := r.Stats(), g.Stats(); got != want {
		t.Errorf("Stats after Save/Load = %+v, want %+v", got, want)
	}
}

// TestStatsFieldsCoverStats: the stats record carries every Stats
// counter, each once.
func TestStatsFieldsCoverStats(t *testing.T) {
	var s Stats
	for i, f := range s.fields() {
		*f = uint64(i + 1)
	}
	v := reflect.ValueOf(s)
	if v.NumField() != statsFields {
		t.Fatalf("Stats has %d fields, fields() lists %d", v.NumField(), statsFields)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < v.NumField(); i++ {
		n := v.Field(i).Uint()
		if n == 0 || seen[n] {
			t.Errorf("Stats.%s is missing from fields() or listed twice", v.Type().Field(i).Name)
		}
		seen[n] = true
	}
}

// splitState cuts a checkpoint body into its header and its framed
// records.
func splitState(t *testing.T, body []byte) (hdr []byte, recs [][]byte) {
	t.Helper()
	for off := stateHeaderSize; off < len(body); {
		psize := ckptPayloadSize(body[off])
		if psize < 0 {
			t.Fatalf("op %#x at %d in a body Save just wrote", body[off], off)
		}
		n := 3 + int(binary.LittleEndian.Uint16(body[off+1:])) + psize + 4
		recs = append(recs, body[off:off+n])
		off += n
	}
	return body[:stateHeaderSize], recs
}

func joinState(hdr []byte, recs ...[]byte) []byte {
	return bytes.Join(append([][]byte{hdr}, recs...), nil)
}

// endRecord frames an end record claiming n records before it.
func endRecord(n int) []byte {
	return appendRecord(nil, ckptOpEnd, "", binary.LittleEndian.AppendUint64(nil, uint64(n)))
}

// TestLoadDamagedState: a checkpoint is written atomically, so unlike
// the log's tail any damage fails Load, and a failed Load leaves the
// engine's tables and Stats as they were. Damage here is a cut at every
// byte, every byte flipped, an unknown op, a missing or miscounting end
// record, a counts record out of place, and bytes after the end record.
func TestLoadDamagedState(t *testing.T) {
	var buf bytes.Buffer
	if err := fullState().Save(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	hdr, recs := splitState(t, body)
	last := len(recs) - 1
	if recs[0][0] != ckptOpCounts || recs[1][0] != ckptOpStats || recs[last][0] != ckptOpEnd {
		t.Fatalf("record ops %#x %#x ... %#x, want counts, stats ... end", recs[0][0], recs[1][0], recs[last][0])
	}

	clock := simtime.NewSim(simtime.Epoch)
	target := New(walTestPolicy(), clock)
	walWorkload(target, clock, 0, 50)
	before, stats := dumpTables(target), target.Stats()
	refuse := func(name string, data []byte) {
		t.Helper()
		if err := target.Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Load accepted a damaged checkpoint", name)
		}
		if dumpTables(target) != before || target.Stats() != stats {
			t.Fatalf("%s: a failed Load changed the engine's state", name)
		}
	}

	for n := 0; n < len(body); n++ {
		refuse(fmt.Sprintf("cut at %d of %d", n, len(body)), body[:n])
	}
	for i := range body {
		bad := bytes.Clone(body)
		bad[i] ^= 0xFF
		refuse(fmt.Sprintf("byte %d flipped", i), bad)
	}
	unknown := appendRecord(nil, 0x7F, "", nil)
	refuse("unknown op", joinState(hdr, append(recs[:last:last], unknown, endRecord(last+1))...))
	log := appendRecord(nil, walOpTouch, "k", make([]byte, 8))
	refuse("log-only op", joinState(hdr, append(recs[:last:last], log, endRecord(last+1))...))
	refuse("no end record", joinState(hdr, recs[:last]...))
	refuse("end record miscounts", joinState(hdr, append(recs[:last:last], endRecord(last-1))...))
	refuse("counts record missing", joinState(hdr, append(recs[1:last:last], endRecord(last-1))...))
	refuse("counts record twice", joinState(hdr, append(recs[:last:last], recs[0], endRecord(last+1))...))
	refuse("data after the end record", append(bytes.Clone(body), 0))
	refuse("unknown version", joinState(binary.LittleEndian.AppendUint32([]byte(stateMagic), stateVersion+1), recs...))

	if err := target.Load(bytes.NewReader(body)); err != nil {
		t.Fatalf("undamaged body: %v", err)
	}
}

// TestLoadHugeCounts: the counts record sizes the maps no larger than
// the bytes left could fill, whatever it claims.
func TestLoadHugeCounts(t *testing.T) {
	var p [32]byte
	for i := range 4 {
		binary.LittleEndian.PutUint64(p[8*i:], 1<<62)
	}
	data := joinState(binary.LittleEndian.AppendUint32([]byte(stateMagic), stateVersion),
		appendRecord(nil, ckptOpCounts, "", p[:]), endRecord(1))
	g := New(DefaultPolicy(), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := g.Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("Load of a %d-byte body claiming 2^62 entries per table allocated %d bytes", len(data), alloc)
	}
}

// TestLoadLegacyStateFile: testdata/state-v2.gob was written by SaveFile
// when state files were gob snapshots (version 2, all four tables, the
// earned whitelist on). LoadFile, and OpenWAL with the file raw or
// inside a checkpoint envelope, load it to the tables the same workload
// builds today, and OpenWAL's recovery compaction rewrites it framed.
func TestLoadLegacyStateFile(t *testing.T) {
	const path = "testdata/state-v2.gob"
	clock := simtime.NewSim(simtime.Epoch)
	want := New(legacyStatePolicy(), clock)
	legacyStateWorkload(want, clock)
	if want.PendingCount() != 11 || want.PassedCount() != 14 || want.ClientCount() != 14 || want.EarnedCount() != 18 {
		t.Fatalf("workload built %d pending, %d passed, %d clients, %d earned; the file holds 11, 14, 14, 18",
			want.PendingCount(), want.PassedCount(), want.ClientCount(), want.EarnedCount())
	}
	check := func(name string, g *Greylister) {
		t.Helper()
		if got, want := dumpTables(g), dumpTables(want); got != want {
			t.Errorf("%s: tables\ngot:\n%s\nwant:\n%s", name, got, want)
		}
		if got, want := g.Stats(), want.Stats(); got != want {
			t.Errorf("%s: Stats = %+v, want %+v", name, got, want)
		}
	}

	g := New(legacyStatePolicy(), simtime.NewSim(simtime.Epoch))
	if err := g.LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	check("LoadFile", g)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, enveloped := range []bool{false, true} {
		dir := t.TempDir()
		_, ck := walPaths(dir)
		if enveloped {
			cw := &WAL{cfg: WALConfig{CheckpointPath: ck}}
			if err := cw.writeCheckpoint(0, walHeaderSize, func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(ck, data, 0o644); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("OpenWAL (enveloped=%v)", enveloped)
		g := New(legacyStatePolicy(), simtime.NewSim(simtime.Epoch))
		w, info := openTestWAL(t, dir, g, -1)
		if !info.CheckpointLoaded || info.LegacySnapshot == enveloped {
			t.Errorf("%s: info = %+v", name, info)
		}
		check(name, g)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		ckData, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(ckData, []byte(ckptMagic)) || !bytes.HasPrefix(ckData[ckptEnvelopeSize:], []byte(stateMagic)) {
			t.Errorf("%s: checkpoint after recovery is not an enveloped framed body", name)
		}
		r := New(legacyStatePolicy(), simtime.NewSim(simtime.Epoch))
		if err := r.Load(bytes.NewReader(ckData[ckptEnvelopeSize:])); err != nil {
			t.Fatalf("%s: rewritten body: %v", name, err)
		}
		check(name+", rewritten", r)
	}
}

// TestRecoverAllocationBound: recovering a checkpoint of 50k passed
// triplets with their client records plus a log tail allocates at most
// twice the heap the recovered state retains, in fewer allocations than
// one per fifty entries recovered. Decoding the checkpoint through an
// intermediate copy of the tables, as the gob format did, allocates
// several times the bytes; tables of one heap object per key and one
// per record, with a record reader that allocated per record, made
// about three allocations per entry.
func TestRecoverAllocationBound(t *testing.T) {
	dir := t.TempDir()
	writeRecoveryFixture(t, dir, 50000)
	log, ck := walPaths(dir)
	g := New(walTestPolicy(), simtime.NewSim(simtime.Epoch))

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w, info, err := OpenWAL(WALConfig{Path: log, CheckpointPath: ck, Sync: SyncNone, CompactBytes: -1}, g)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	if g.PassedCount() != 50000 || info.ReplayedRecords != 25000 {
		t.Fatalf("recovered %d passed, replayed %d records; want 50000, 25000", g.PassedCount(), info.ReplayedRecords)
	}
	alloc, retained := m1.TotalAlloc-m0.TotalAlloc, m2.HeapAlloc-m0.HeapAlloc
	t.Logf("recovery allocated %.1f MB, retained %.1f MB (%.2fx)", float64(alloc)/1e6, float64(retained)/1e6, float64(alloc)/float64(retained))
	if alloc > 2*retained {
		t.Errorf("recovery allocated %d bytes, more than twice the %d it retains", alloc, retained)
	}
	mallocs, entries := m1.Mallocs-m0.Mallocs, g.PendingCount()+g.PassedCount()+g.ClientCount()
	t.Logf("recovery made %d allocations for %d entries", mallocs, entries)
	if mallocs > uint64(entries)/50 {
		t.Errorf("recovery made %d allocations for %d entries, more than one per 50", mallocs, entries)
	}
}

// gobUint decodes one gob unsigned integer at b[0:], returning it and
// its encoded length.
func gobUint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	var v uint64
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n
}

// TestLoadGobClaimedMapSize: a gob snapshot whose pending map claims a
// million entries it does not carry fails to load without allocating
// for them (gob would pre-size a nil map by the claimed count).
func TestLoadGobClaimedMapSize(t *testing.T) {
	g := New(DefaultPolicy(), nil)
	g.Check(Triplet{ClientIP: "192.0.2.1", Sender: "a@x.example", Recipient: "u@y.example"})
	stream := gobSnapshot(t, g)
	// The value is the stream's last message: length, type id, then the
	// struct's fields. Its pending map holds one entry, so its count is
	// the byte 0x01 right before the key's own length and bytes.
	var last int
	for off := 0; off < len(stream); {
		n, w := gobUint(stream[off:])
		last = off
		off += w + int(n)
	}
	msgLen, w := gobUint(stream[last:])
	body := stream[last+w:]
	key := []byte("192.0.2.1\x00a@x.example\x00u@y.example")
	i := bytes.Index(body, append([]byte{1, byte(len(key))}, key...))
	if i < 0 || msgLen != uint64(len(body)) {
		t.Fatalf("setup: pending map not found in the value message")
	}
	claim := []byte{0xFD, 0x10, 0x00, 0x00} // 1<<20 entries
	patched := append(append(append([]byte{}, body[:i]...), claim...), body[i+1:]...)
	data := append(append(append([]byte{}, stream[:last]...), byte(len(patched))), patched...)
	if len(patched) >= 0x80 {
		t.Fatalf("setup: value message of %d bytes needs a multi-byte length", len(patched))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := New(DefaultPolicy(), nil).Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a snapshot missing the entries its map claims")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("Load allocated %d bytes for a %d-byte snapshot claiming 1<<20 pending entries", alloc, len(data))
	}
}
