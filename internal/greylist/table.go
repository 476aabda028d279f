package greylist

import "hash/maphash"

// Pointer-free tables. The engine keeps its four tables (pending,
// passed, clients, earned) in one table type whose storage holds no Go
// pointer, so the garbage collector's mark phase skips the state: a
// span whose element type holds no pointer is never scanned, however
// many entries it holds. Map-of-pointer tables made every entry two or
// three heap objects (key string, record, its time.Location) that every
// collection traced.
//
//   - Records live in a slab of fixed-size structs holding only
//     integers: times are Unix nanoseconds, not time.Time, whose
//     *Location is a pointer. Deleted slots go on a free list and are
//     reused by the next insert.
//   - Keys live in the table's arena; a record holds its key's offset
//     and length. Deleting a record leaves its bytes dead until
//     compactIfSparse rewrites the arena.
//   - The slab and the arena grow a chunk at a time, and a chunk never
//     moves: growing copies nothing and leaves no outgrown array
//     behind, so the heap holds the tables once, and a record pointer
//     stays valid until its record is deleted. The GC scans one
//     pointer per chunk.
//   - The index maps a seeded 64-bit hash of the key to the first slot
//     of a chain of records whose keys hash alike, linked through their
//     next fields. Every lookup compares the full key bytes, so a
//     collision costs a probe, never a wrong verdict, and the seed is
//     drawn per engine, so a sender who cannot learn it cannot aim
//     collisions.
//
// The slab, the arena and the index change only under the engine's
// exclusive lock; the read-locked fast path looks records up and
// updates their atomic fields in place.

// slot is the bookkeeping every table record starts with.
type slot struct {
	// keyOff locates the key: arena chunk keyOff>>32, from byte
	// uint32(keyOff) of it.
	keyOff uint64
	keyLen uint32 // freeSlot on the free list
	// next is 1 + the slot of the next record in this record's hash
	// chain or, for a free slot, of the next free slot; 0 ends either.
	next uint32
}

// freeSlot is the keyLen of a slot on the free list.
const freeSlot = ^uint32(0)

func (s *slot) hdr() *slot { return s }

// record is the constraint on a table's record type R: a struct that
// embeds slot, reached through its pointer type.
type record[R any] interface {
	*R
	hdr() *slot
}

const (
	// slabChunkBits sizes slab chunks: 512 records, 16 or 20 KiB.
	slabChunkBits = 9
	slabChunk     = 1 << slabChunkBits
	// arenaChunk is the size of an arena chunk; a longer key gets a
	// chunk of its own.
	arenaChunk = 64 << 10
)

// table is one of the engine's pointer-free tables. The zero value is
// not usable; newTable makes one. An empty table allocates nothing.
type table[R any, P record[R]] struct {
	// A key's index hash is maphash.Bytes(seed, key) & mask. Engines
	// keep every bit; a test can mask them all off to force every key
	// into one chain. (A hash function value would do, but calling
	// through it would move every caller's stack-built key to the
	// heap.)
	seed  maphash.Seed
	mask  uint64
	index map[uint64]uint32 // key hash -> first slot of its chain
	slab  [][]R             // chunks of slabChunk records
	used  uint32            // slots handed out, free or not
	arena [][]byte          // chunks; a key never spans two
	free  uint32            // 1 + the first free slot; 0 when none is free
	n     int               // live records
	live  int               // arena bytes of live keys
	dead  int               // arena bytes of deleted keys
}

func newTable[R any, P record[R]](seed maphash.Seed, mask uint64) table[R, P] {
	return table[R, P]{seed: seed, mask: mask}
}

// hash returns key's index hash.
func (t *table[R, P]) hash(key []byte) uint64 {
	return maphash.Bytes(t.seed, key) & t.mask
}

// reserve sizes an empty table's index and slab directory for n
// records.
func (t *table[R, P]) reserve(n int) {
	t.index = make(map[uint64]uint32, n)
	t.slab = make([][]R, 0, (n+slabChunk-1)/slabChunk)
}

// len reports the number of live records.
func (t *table[R, P]) len() int { return t.n }

// at returns slot i's record.
func (t *table[R, P]) at(i uint32) P {
	return &t.slab[i>>slabChunkBits][i&(slabChunk-1)]
}

// keyOf returns a live record's key, aliasing the arena.
func (t *table[R, P]) keyOf(h *slot) []byte {
	off := uint32(h.keyOff)
	return t.arena[h.keyOff>>32][off : off+h.keyLen]
}

// lookup returns the record for key and its chain position: prev is
// 1 + the slot before it in the chain (0 when it heads the chain). A
// nil record means key is absent.
func (t *table[R, P]) lookup(hk uint64, key []byte) (r P, i, prev uint32) {
	i, ok := t.index[hk]
	for ok {
		r = t.at(i)
		h := r.hdr()
		if string(t.keyOf(h)) == string(key) {
			return r, i, prev
		}
		prev, i, ok = i+1, h.next-1, h.next != 0
	}
	return nil, 0, 0
}

// get returns key's record, or nil. Safe under the read lock.
func (t *table[R, P]) get(key []byte) P {
	if t.n == 0 {
		return nil
	}
	r, _, _ := t.lookup(t.hash(key), key)
	return r
}

// put returns key's record, inserting a zeroed one if key is absent,
// and reports whether it was already there. Callers hold the exclusive
// lock.
func (t *table[R, P]) put(key []byte) (P, bool) {
	hk := t.hash(key)
	if r, _, _ := t.lookup(hk, key); r != nil {
		return r, true
	}
	if t.index == nil {
		t.index = make(map[uint64]uint32)
	}
	var i uint32
	if t.free != 0 {
		i = t.free - 1
		t.free = t.at(i).hdr().next
		var zero R
		*t.at(i) = zero
	} else {
		if t.used == uint32(len(t.slab))*slabChunk {
			t.slab = append(t.slab, make([]R, slabChunk))
		}
		i = t.used
		t.used++
	}
	if !t.fits(len(key)) {
		t.compactIfSparse()
	}
	r := t.at(i)
	h := r.hdr()
	h.keyOff, h.keyLen = t.store(key), uint32(len(key))
	t.live += len(key)
	if head, ok := t.index[hk]; ok {
		h.next = head + 1
	}
	t.index[hk] = i
	t.n++
	return r, false
}

// fits reports whether n more bytes fit the arena's last chunk.
func (t *table[R, P]) fits(n int) bool {
	last := len(t.arena) - 1
	return last >= 0 && len(t.arena[last])+n <= cap(t.arena[last])
}

// store copies key into the arena, in a new chunk if it does not fit
// the last one, and returns its keyOff.
func (t *table[R, P]) store(key []byte) uint64 {
	if !t.fits(len(key)) {
		t.arena = append(t.arena, make([]byte, 0, max(arenaChunk, len(key))))
	}
	last := len(t.arena) - 1
	off := uint64(last)<<32 | uint64(len(t.arena[last]))
	t.arena[last] = append(t.arena[last], key...)
	return off
}

// del removes key's record, reporting whether there was one. Callers
// hold the exclusive lock.
func (t *table[R, P]) del(key []byte) bool {
	if t.n == 0 {
		return false
	}
	hk := t.hash(key)
	r, i, prev := t.lookup(hk, key)
	if r == nil {
		return false
	}
	t.unlink(hk, r, i, prev)
	return true
}

// unlink takes the record r at slot i, found behind prev in hk's
// chain, out of the index and onto the free list.
func (t *table[R, P]) unlink(hk uint64, r P, i, prev uint32) {
	h := r.hdr()
	switch {
	case prev != 0:
		t.at(prev - 1).hdr().next = h.next
	case h.next != 0:
		t.index[hk] = h.next - 1
	default:
		delete(t.index, hk)
	}
	t.live -= int(h.keyLen)
	t.dead += int(h.keyLen)
	h.keyLen, h.next = freeSlot, t.free
	t.free = i + 1
	t.n--
}

// each calls fn with every live record and its key, in slot order. fn
// may delete the record it was given (deleteFunc does), but must not
// insert.
func (t *table[R, P]) each(fn func(key []byte, r P)) {
	for i := uint32(0); i < t.used; i++ {
		r := t.at(i)
		if h := r.hdr(); h.keyLen != freeSlot {
			fn(t.keyOf(h), r)
		}
	}
}

// deleteFunc removes every record for which drop reports true and
// returns how many it removed. Callers hold the exclusive lock.
func (t *table[R, P]) deleteFunc(drop func(P) bool) int {
	dropped := 0
	t.each(func(key []byte, r P) {
		if drop(r) {
			hk := t.hash(key)
			_, i, prev := t.lookup(hk, key)
			t.unlink(hk, r, i, prev)
			dropped++
		}
	})
	return dropped
}

// compactIfSparse rewrites the arena with only the live records' keys,
// in slot order, once its dead bytes outnumber its live ones. Callers
// hold the exclusive lock.
func (t *table[R, P]) compactIfSparse() {
	if t.dead <= t.live {
		return
	}
	old := t.arena
	t.arena = nil
	for i := uint32(0); i < t.used; i++ {
		if h := t.at(i).hdr(); h.keyLen != freeSlot {
			off := uint32(h.keyOff)
			h.keyOff = t.store(old[h.keyOff>>32][off : off+h.keyLen])
		}
	}
	t.dead = 0
}
