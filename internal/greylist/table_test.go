package greylist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// TestReferenceModelCollidingHash runs the reference model's checks
// over tables whose index hash is degenerate, every key of a table in
// one chain. Verdicts, Stats and tables must not change, because every
// lookup compares the full key.
func TestReferenceModelCollidingHash(t *testing.T) {
	runModel(t, 2, func(p Policy, c simtime.Clock) *Greylister { return newGreylister(p, c, 0) })
}

// pointerFree reports whether values of type t hold no Go pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestTablesHoldNoPointers: every table keeps its records in slab
// chunks, its keys in byte arena chunks and its index in a map, and no
// chunk element, index key or index value holds a pointer, so the GC's
// mark phase scans one pointer per chunk and none per entry. A table
// of map[string]*record fails.
func TestTablesHoldNoPointers(t *testing.T) {
	tt := reflect.TypeOf(tables{})
	for i := 0; i < tt.NumField(); i++ {
		f := tt.Field(i)
		slab, okS := f.Type.FieldByName("slab")
		arena, okA := f.Type.FieldByName("arena")
		index, okI := f.Type.FieldByName("index")
		if f.Type.Kind() != reflect.Struct || !okS || !okA || !okI ||
			slab.Type.Kind() != reflect.Slice || slab.Type.Elem().Kind() != reflect.Slice ||
			arena.Type != reflect.TypeOf([][]byte(nil)) || index.Type.Kind() != reflect.Map {
			t.Errorf("table %s is a %v, not slab chunks, byte arena chunks and an index", f.Name, f.Type)
			continue
		}
		for what, typ := range map[string]reflect.Type{
			"slab element": slab.Type.Elem().Elem(),
			"index key":    index.Type.Key(),
			"index value":  index.Type.Elem(),
		} {
			if !pointerFree(typ) {
				t.Errorf("table %s: %s type %v holds a pointer", f.Name, what, typ)
			}
		}
	}
	if pointerFree(reflect.TypeOf(map[string]*passedRecord{})) {
		t.Error("pointerFree passes a map of pointers")
	}
}

// arenaBytes sums the bytes of t's arena chunks.
func arenaBytes[R any, P record[R]](t *table[R, P]) int {
	n := 0
	for _, c := range t.arena {
		n += len(c)
	}
	return n
}

// TestTableDeleteReuseCompact: deleted slots are reused, and once dead
// key bytes outnumber live ones the arena is rewritten with the live
// keys only, which every lookup still finds, along chains of colliding
// keys too.
func TestTableDeleteReuseCompact(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 1} {
		g := newGreylister(DefaultPolicy(), nil, mask)
		tb := &g.passed
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
		for i := 0; i < 1000; i++ {
			r, ok := tb.put(key(i))
			if ok {
				t.Fatalf("mask %#x: put(%s) found a record in an empty slot", mask, key(i))
			}
			r.passedAt = int64(i)
		}
		for i := 0; i < 1000; i += 4 {
			if !tb.del(key(i)) {
				t.Fatalf("mask %#x: del(%s) found nothing", mask, key(i))
			}
		}
		if tb.del(key(0)) {
			t.Fatalf("mask %#x: deleted key-0000 twice", mask)
		}
		for i := 1000; i < 1250; i++ {
			r, _ := tb.put(key(i))
			r.passedAt = int64(i)
		}
		if tb.used != 1000 {
			t.Errorf("mask %#x: 250 inserts after 250 deletes grew the slab from 1000 to %d slots", mask, tb.used)
		}
		before := arenaBytes(tb)
		n := tb.deleteFunc(func(r *passedRecord) bool { return r.passedAt%8 != 1 })
		tb.compactIfSparse()
		// Left: every i%8 == 1 below 1250, none of them deleted before.
		if live := tb.len(); n != 843 || live != 157 {
			t.Fatalf("mask %#x: deleteFunc dropped %d, left %d; want 843, 157", mask, n, live)
		}
		if want := 157 * len(key(0)); arenaBytes(tb) != want || tb.dead != 0 || before <= want {
			t.Errorf("mask %#x: arena %d bytes (%d dead) after compaction from %d; want %d, 0 dead",
				mask, arenaBytes(tb), tb.dead, before, want)
		}
		for i := 0; i < 1250; i++ {
			r := tb.get(key(i))
			if keep := i%8 == 1; (r != nil) != keep || (r != nil && r.passedAt != int64(i)) {
				t.Fatalf("mask %#x: get(%s) = %+v after compaction, want present=%v", mask, key(i), r, keep)
			}
		}
	}
}

// stateWithDuplicate returns tinyWorkload's checkpoint body with its
// passed triplet framed a second time, with other values, before the
// end record, and the key it repeats.
func stateWithDuplicate(t testing.TB) ([]byte, []byte) {
	clock := simtime.NewSim(simtime.Epoch)
	g := New(legacyStatePolicy(), clock)
	tinyWorkload(g, clock)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	var recs [][]byte
	off := stateHeaderSize
	for off < len(body) {
		n := 3 + int(binary.LittleEndian.Uint16(body[off+1:])) + ckptPayloadSize(body[off]) + 4
		recs = append(recs, body[off:off+n])
		off += n
	}
	var out []byte
	out = append(out, body[:stateHeaderSize]...)
	var key []byte
	for _, r := range recs[:len(recs)-1] {
		out = append(out, r...)
		if r[0] == ckptOpPassed {
			key = r[3 : len(r)-24-4]
		}
	}
	var p [24]byte
	binary.LittleEndian.PutUint64(p[0:], 7)
	binary.LittleEndian.PutUint64(p[8:], 8)
	binary.LittleEndian.PutUint64(p[16:], 9)
	out = appendRecord(out, ckptOpPassed, key, p[:])
	out = append(out, endRecord(len(recs))...)
	return out, key
}

// TestLoadDuplicateKey: a checkpoint holding one key twice loads as one
// entry carrying the last record's values.
func TestLoadDuplicateKey(t *testing.T) {
	body, key := stateWithDuplicate(t)
	g := New(legacyStatePolicy(), simtime.NewSim(simtime.Epoch))
	if err := g.Load(bytes.NewReader(body)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if n := g.PassedCount(); n != 1 {
		t.Fatalf("%d passed entries, want 1", n)
	}
	r := g.passed.get(key)
	if r == nil || r.passedAt != 7 || r.lastUsed.Load() != 8 || r.deliveries.Load() != 9 {
		t.Fatalf("passed %q = %+v, want the last record's 7, 8, 9", key, r)
	}
}

// TestRecordReaderNoAllocs: once the first record has sized its
// buffer, reading framed records allocates nothing.
func TestRecordReaderNoAllocs(t *testing.T) {
	var body []byte
	for i := 0; i < 300; i++ {
		body = appendRecord(body, walOpTouch, fmt.Sprintf("192.0.2.1\x00s@x.example\x00u%04d@y.example", i), make([]byte, 8))
	}
	rr := recordReader{br: bufio.NewReader(bytes.NewReader(body)), size: walPayloadSize}
	if _, _, _, err := rr.next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := rr.next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("recordReader.next = %v allocs per record, want 0", allocs)
	}
}
