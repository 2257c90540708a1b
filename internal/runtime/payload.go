package runtime

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// fillActivation fills an emulated payload with plausible activation data:
// little-endian float32 values in [-8, 8), deterministically derived from
// the length and the seed. The runtime's payloads carry no real tensor
// values — only their byte counts matter to the protocol — but the wire
// codecs do look at the bytes: deflate's ratio and the quant codec's error
// bounds are meaningless on the all-zero buffers a fresh pool hands out
// (all-zero compresses ~1000x, which would wreck the predicted-vs-measured
// fidelity comparison).
//
// Generating every byte is not cheap enough: at full activation bytes an
// xorshift fill per payload took ~70% of the serving path's CPU, more than
// the framework and the wire together. So the payload is copied from a
// 4-byte-aligned window of a shared template arena (see
// fillActivationArena), which makes its cost a memmove. Every word is still
// an xorshift float, so one payload is as incompressible to deflate as a
// freshly generated one; windows of different images overlap, which no
// codec can see because deflate resets its writer per message.
//
// The window start folds the seed's high half into its low half, so chunk
// coordinates stamped in above bit 16 still move the window, and is taken
// modulo the smallest power of two covering the payload's words. It
// depends on the length and the seed alone, never on how large the arena
// has grown, so a payload's contents are the same for the whole process.
// The payload is copied, never aliased: Send hands ownership to the
// transport, which recycles it into a pool a later decode overwrites.
func fillActivation(buf []byte, seed uint32) {
	n := len(buf)
	if n == 0 {
		return
	}
	span := 1 << bits.Len(uint((n+3)/4-1)) // window starts, in words
	off := int((seed^seed>>16)&uint32(span-1)) * 4
	copy(buf, fillActivationArena(8 * span)[off:off+n])
}

// activationArena is the process-wide template fillActivation copies from:
// a prefix of the xorshift stream seeded with arenaSeed. It only grows, so
// every arena ever published is a prefix of every later one and a window
// reads the same bytes whichever arena a caller loaded. Readers take the
// published slice with one atomic load; growth replaces it under mu. The
// arena is never written after it is published.
var activationArena struct {
	cur atomic.Pointer[[]byte]
	mu  sync.Mutex // serialises growth
}

// arenaSeed seeds the template arena's xorshift stream.
const arenaSeed = 0x9e3779b9

// fillActivationArena returns the template arena, growing it to size bytes
// first if it is shorter. fillActivation asks for twice the payload's
// length rounded up to a power of two, so the arena tracks the largest
// payload the process has sent rather than a fixed worst case.
func fillActivationArena(size int) []byte {
	if a := activationArena.cur.Load(); a != nil && len(*a) >= size {
		return *a
	}
	activationArena.mu.Lock()
	defer activationArena.mu.Unlock()
	if a := activationArena.cur.Load(); a != nil && len(*a) >= size {
		return *a
	}
	a := make([]byte, size)
	fillActivationXorshift(a, arenaSeed)
	activationArena.cur.Store(&a)
	return a
}

// fillActivationXorshift writes an xorshift32 stream seeded with seed into
// buf as little-endian float32 values in [-8, 8) with full mantissa
// entropy; a trailing partial word is left untouched. It builds the
// template arena.
func fillActivationXorshift(buf []byte, seed uint32) {
	x := seed | 1 // xorshift must not start at 0
	for i := 0; i+4 <= len(buf); {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		// int32(x) spans [-2^31, 2^31); dividing by 2^28 spreads values
		// across [-8, 8) with full mantissa entropy.
		v := float32(int32(x)) / float32(1<<28)
		if v == 8 {
			continue // the top 64 int32 values round up to 2^31 in float32
		}
		binary.LittleEndian.PutUint32(buf[i:], math.Float32bits(v))
		i += 4
	}
}
