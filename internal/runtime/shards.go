package runtime

import "sync"

// numRegShards stripes the requester's per-image registration state. 16
// single-mutex shards keep the scatter/assembly hot path — concurrent
// Submit callers registering images while provider fan-in clears pending
// chunks — off one global lock; image ids are dense and monotone, so
// img & (numRegShards-1) spreads in-flight images evenly. Must be a power
// of two.
const numRegShards = 16

// regShard is one stripe of the registration table: the pending chunk sets
// and completion channels of the images that hash to it.
type regShard struct {
	mu      sync.Mutex
	pending map[uint32]map[chunkKey]bool // guarded by mu
	arrived map[uint32]chan struct{}     // guarded by mu
}

// register arms completion tracking for img: done is closed once every
// key in pending has been cleared by chunkArrived.
func (s *regShard) register(img uint32, pending map[chunkKey]bool, done chan struct{}) {
	s.mu.Lock()
	s.pending[img] = pending
	s.arrived[img] = done
	s.mu.Unlock()
}

// chunkArrived clears one awaited chunk, closing the image's done channel
// when the last one lands. Chunks for unknown images (already completed,
// already dropped, or from a torn-down epoch) are ignored.
func (s *regShard) chunkArrived(img uint32, key chunkKey) {
	s.mu.Lock()
	if m, ok := s.pending[img]; ok {
		delete(m, key)
		if len(m) == 0 {
			delete(s.pending, img)
			if done, ok := s.arrived[img]; ok {
				close(done)
				delete(s.arrived, img)
			}
		}
	}
	s.mu.Unlock()
}

// drop discards an image's registration without completing it (failed
// scatter, timed-out try, aborted image): no result will complete it.
func (s *regShard) drop(img uint32) {
	s.mu.Lock()
	delete(s.pending, img)
	delete(s.arrived, img)
	s.mu.Unlock()
}

// regTable is the sharded registration state: images route to shards by
// id, so concurrent registrations and result fan-in for different images
// contend only 1/numRegShards of the time.
type regTable struct {
	shards [numRegShards]regShard
}

func newRegTable() *regTable {
	t := &regTable{}
	for i := range t.shards {
		t.shards[i].pending = make(map[uint32]map[chunkKey]bool)
		t.shards[i].arrived = make(map[uint32]chan struct{})
	}
	return t
}

// shard returns the stripe owning img.
func (t *regTable) shard(img uint32) *regShard {
	return &t.shards[img&(numRegShards-1)]
}

// watermark is the window-aware gc cursor, split off the registration
// shards onto its own small mutex: completions from any shard funnel here,
// but the critical section is a map insert plus a cursor walk — orders of
// magnitude shorter than the per-chunk bookkeeping that used to share its
// lock.
type watermark struct {
	mu        sync.Mutex
	completed map[uint32]bool // guarded by mu
	low       uint32          // guarded by mu; provider state below this is collectable
}

func newWatermark() *watermark {
	return &watermark{completed: make(map[uint32]bool), low: 1}
}

// complete records img as finished and returns the new low watermark: the
// lowest image id that has not yet completed. The cursor only advances
// past contiguously-completed ids, so an early finisher never exposes a
// straggler's provider state to gc.
func (w *watermark) complete(img uint32) uint32 {
	w.mu.Lock()
	w.completed[img] = true
	for w.completed[w.low] {
		delete(w.completed, w.low)
		w.low++
	}
	low := w.low
	w.mu.Unlock()
	return low
}

// bookkeeping is a consistent-enough snapshot of the requester's
// registration state, for tests asserting nothing leaked after a run.
type bookkeeping struct {
	pending   int // images with unarrived chunks, across all shards
	arrived   int // images with an open completion channel
	completed int // ids parked above the gc cursor
	gcLow     uint32
	nextImg   uint32
}

// bookkeeping snapshots the sharded registration state shard by shard.
func (c *Cluster) bookkeeping() bookkeeping {
	var b bookkeeping
	for i := range c.reg.shards {
		s := &c.reg.shards[i]
		s.mu.Lock()
		b.pending += len(s.pending)
		b.arrived += len(s.arrived)
		s.mu.Unlock()
	}
	c.wm.mu.Lock()
	b.completed = len(c.wm.completed)
	b.gcLow = c.wm.low
	c.wm.mu.Unlock()
	b.nextImg = c.nextImg.Load()
	return b
}
