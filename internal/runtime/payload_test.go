package runtime

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
)

// fillOf returns a fresh n-byte payload filled for seed.
func fillOf(n int, seed uint32) []byte {
	b := make([]byte, n)
	fillActivation(b, seed)
	return b
}

// checkWords fails unless every full little-endian word of b is a finite
// float32 in [-8, 8).
func checkWords(t *testing.T, b []byte) {
	t.Helper()
	for i := 0; i+4 <= len(b); i += 4 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(b[i:]))
		if math.IsNaN(float64(v)) || v < -8 || v >= 8 {
			t.Fatalf("word at byte %d of %d = %v, want a finite float32 in [-8, 8)", i, len(b), v)
		}
	}
}

// TestFillActivationDeterministic: a payload's contents depend on its
// length and seed alone — not on what the buffer held before, and not on
// whether a larger request grew the arena in between. Lengths that are not
// a multiple of 4, and length 0, work too.
func TestFillActivationDeterministic(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 100, 4097, 64 << 10}
	seeds := []uint32{0, 1, 0xdeadbeef, 7<<16 | 3}
	resetArena()
	want := map[string][]byte{}
	for _, n := range lengths {
		for _, seed := range seeds {
			want[fmt.Sprint(n, seed)] = fillOf(n, seed)
		}
	}
	fillOf(200<<10, 1) // grows the arena
	for _, n := range lengths {
		for _, seed := range seeds {
			dirty := bytes.Repeat([]byte{0xa5}, n)
			fillActivation(dirty, seed)
			if w := want[fmt.Sprint(n, seed)]; !bytes.Equal(dirty, w) {
				t.Errorf("len %d seed %#x: refill differs from the first fill", n, seed)
			}
			checkWords(t, dirty)
		}
	}
}

// TestFillActivationImagesDiffer: chunks that differ only in image id —
// the requester's and the providers' seed expressions — get different
// payloads.
func TestFillActivationImagesDiffer(t *testing.T) {
	for _, n := range []int{64, 4096, 300 << 10} {
		for _, seedOf := range []func(img uint32) uint32{
			func(img uint32) uint32 { return img ^ 5<<16 },         // sendInput
			func(img uint32) uint32 { return img ^ 3<<8 ^ 40<<16 }, // computeLoop
		} {
			seen := map[string]uint32{}
			for img := uint32(1); img <= 16; img++ {
				k := string(fillOf(n, seedOf(img)))
				if prev, dup := seen[k]; dup {
					t.Fatalf("len %d: images %d and %d got the same payload", n, prev, img)
				}
				seen[k] = img
			}
		}
	}
}

// TestFillActivationArenaGrows: a request larger than any earlier one
// grows the arena to a power of two at least twice its length. The grown
// arena keeps the old one as its prefix (which is what keeps payloads
// deterministic) and repeats no window: it is one xorshift stream, not
// the old arena tiled.
func TestFillActivationArenaGrows(t *testing.T) {
	resetArena()
	fillOf(64<<10, 1)
	old := append([]byte(nil), *activationArena.cur.Load()...)
	const n = 100 << 10
	checkWords(t, fillOf(n, 99))
	grown := *activationArena.cur.Load()
	if len(grown) < 2*n || len(grown)&(len(grown)-1) != 0 {
		t.Fatalf("arena is %d bytes after a %d-byte request, want a power of two >= %d", len(grown), n, 2*n)
	}
	if !bytes.Equal(grown[:len(old)], old) {
		t.Fatal("growth changed the arena's existing prefix")
	}
	const block = 1 << 10
	seen := map[string]int{}
	for off := 0; off+block <= len(grown); off += block {
		k := string(grown[off : off+block])
		if prev, dup := seen[k]; dup {
			t.Fatalf("arena repeats: blocks at %d and %d are equal", prev, off)
		}
		seen[k] = off
	}
	checkWords(t, grown)
}

// TestFillActivationConcurrentGrowth fills from several goroutines whose
// requests race to grow the arena; every payload must match the one a
// serial fill gives afterwards.
func TestFillActivationConcurrentGrowth(t *testing.T) {
	resetArena()
	const workers = 8
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = fillOf((w+1)*10000, uint32(w))
		}(w)
	}
	wg.Wait()
	for w, b := range got {
		if !bytes.Equal(b, fillOf(len(b), uint32(w))) {
			t.Errorf("worker %d: concurrent fill of %d bytes differs from a serial one", w, len(b))
		}
	}
}

// resetArena drops the published arena, so a test's growth starts from
// nothing however many times it runs. Payload contents do not depend on the
// arena's size, so fills running concurrently elsewhere are unaffected.
func resetArena() {
	activationArena.mu.Lock()
	activationArena.cur.Store(nil)
	activationArena.mu.Unlock()
}

// TestFillActivationDeflateRatio: a 64 KiB arena-filled payload is as
// incompressible to flate.BestSpeed as a freshly generated xorshift
// stream, to within 1%.
func TestFillActivationDeflateRatio(t *testing.T) {
	ratio := func(b []byte) float64 {
		var out bytes.Buffer
		w, err := flate.NewWriter(&out, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(len(b)) / float64(out.Len())
	}
	const n = 64 << 10
	for _, seed := range []uint32{1, 0x12345, 0xdeadbeef} {
		stream := make([]byte, n)
		fillActivationXorshift(stream, seed)
		want, got := ratio(stream), ratio(fillOf(n, seed))
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("seed %#x: arena payload deflates %.4fx, xorshift stream %.4fx (want within 1%%)", seed, got, want)
		}
	}
}

// TestFillActivationZeroAlloc: once the arena covers a length, filling a
// payload allocates nothing.
func TestFillActivationZeroAlloc(t *testing.T) {
	buf := make([]byte, 64<<10)
	fillActivation(buf, 1)
	seed := uint32(0)
	if allocs := testing.AllocsPerRun(50, func() {
		seed++
		fillActivation(buf, seed)
	}); allocs != 0 {
		t.Errorf("fillActivation allocated %v times per call, want 0", allocs)
	}
}

// FuzzFillActivation: any seed and any length up to 1 MiB fills without
// panicking, deterministically, with every full word in range.
func FuzzFillActivation(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(1), uint32(3))
	f.Add(uint32(0xdeadbeef), uint32(64<<10+1))
	f.Add(uint32(0xffffffff), uint32(1<<20))
	f.Fuzz(func(t *testing.T, seed, length uint32) {
		n := int(length % (1<<20 + 1))
		a := fillOf(n, seed)
		b := bytes.Repeat([]byte{0xff}, n)
		fillActivation(b, seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("len %d seed %#x: two fills differ", n, seed)
		}
		checkWords(t, a)
	})
}

// BenchmarkFillActivation measures the payload fill at the runtime's
// typical chunk sizes. Steady state allocates nothing.
func BenchmarkFillActivation(b *testing.B) {
	for _, n := range []int{512, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			buf := make([]byte, n)
			fillActivation(buf, 0) // size the arena outside the timed loop
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fillActivation(buf, uint32(i))
			}
		})
	}
}
