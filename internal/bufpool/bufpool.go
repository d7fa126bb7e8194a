// Package bufpool is the process-wide recycler for stage-2 scratch: the
// stream pipeline's slice buffers, the group executor's union buffers,
// the shard workers' batch buffers and the coalescing backend's
// gapped-merge buffers all come from here instead of a fresh make per
// job, so a daemon serving a steady job mix stops allocating, zeroing
// and collecting the same buffers over and over.
//
// Buffers are kept in power-of-two size classes, each a FreeList: a
// bounded free list that holds at most keep buffers and drops the rest
// to the collector. A class therefore never retains more than keep
// buffers, nor more than were ever in use at once. (sync.Pool is not
// used because under the race detector it discards a quarter of the
// buffers put into it, which would make the zero-allocation steady state
// untestable there.)
//
// Get does NOT zero what it returns: callers must overwrite every byte
// they later read. Every stage-2 user reads into the buffer before
// comparing from it, and every aio backend fails a read the file ends
// inside rather than returning it with the buffer's tail unwritten.
package bufpool

import (
	"math/bits"
	"runtime"
	"sync"
)

const (
	// minShift is the smallest class (4 KiB): smaller requests round up.
	minShift = 12
	// maxShift is the largest class (64 MiB): larger requests are
	// allocated and dropped, never pooled.
	maxShift = 26
)

// keep is how many free items one FreeList holds: four per processor,
// the stage-2 buffers of one size live at once when every processor runs
// a double-buffered comparison (two slices in flight, each holding one
// buffer per run).
var keep = 4 * runtime.GOMAXPROCS(0)

// FreeList is a bounded LIFO free list, safe for concurrent use. It holds
// at most keep items; Put drops what does not fit. The zero value is an
// empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get takes the most recently put item, or reports false when the list
// is empty.
func (l *FreeList[T]) Get() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var x T
	k := len(l.free)
	if k == 0 {
		return x, false
	}
	x, l.free[k-1] = l.free[k-1], x
	l.free = l.free[:k-1]
	return x, true
}

// Put adds x to the list, or drops it when the list is full.
func (l *FreeList[T]) Put(x T) {
	l.mu.Lock()
	if len(l.free) < keep {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// drain drops every item.
func (l *FreeList[T]) drain() {
	l.mu.Lock()
	clear(l.free)
	l.free = l.free[:0]
	l.mu.Unlock()
}

var classes [maxShift - minShift + 1]FreeList[[]byte]

// classOf returns the size class of an n-byte buffer, or -1 when n is
// outside the pooled range.
func classOf(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minShift
	if c >= len(classes) {
		return -1
	}
	return c
}

// Get returns an n-byte buffer with unspecified contents. Its capacity
// is n rounded up to the size class; pass it back with Put when done.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := classOf(n)
	if c < 0 {
		return make([]byte, n)
	}
	if b, ok := classes[c].Get(); ok {
		return b[:n]
	}
	return make([]byte, n, 1<<(c+minShift))
}

// Put returns a buffer obtained from Get for reuse. The caller must not
// touch b, or any slice of it, afterwards. Buffers whose capacity is not
// exactly a size class (not from Get, or too large to pool) are dropped.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minShift || c&(c-1) != 0 {
		return
	}
	k := bits.Len(uint(c)) - 1 - minShift
	if k >= len(classes) {
		return
	}
	classes[k].Put(b[:0])
}

// Grow returns a buffer of length n, reusing b when its capacity
// suffices and otherwise recycling b and taking a larger one from Get.
func Grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	Put(b)
	return Get(n)
}

// Drain drops every pooled buffer, so the next Get of every class
// returns fresh, zeroed memory — what a test needs to compare a run on
// recycled buffers with one on fresh ones.
func Drain() {
	for i := range classes {
		classes[i].drain()
	}
}
