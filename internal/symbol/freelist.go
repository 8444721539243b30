package symbol

import (
	"sync"
	"sync/atomic"
)

// FreeListCap bounds every FreeList: room for the closed decoders of two
// window-4 casts of one code.
const FreeListCap = 8

// lifo is the package's one free list: a mutex-guarded LIFO, so Get hands
// out the item Put took last in every build, and what it retains is
// bounded by the caller's cap whatever the GC does. The byte size
// classes, the slab tables, every ViewPool and every FreeList are lifos.
// The zero lifo is ready to use and safe for concurrent use.
type lifo[T any] struct {
	mu   sync.Mutex
	free []T
}

// FreeList recycles closed per-object state: a code's payload decoders,
// the session's reassemblies. It holds at most FreeListCap items; its
// Get returns the item put last, or nil when the list is empty, and its
// Put drops the item when the list is full. The caller must not use an
// item after Put.
type FreeList[E any] = lifo[*E]

// Get pops the item put last, or returns the zero value when the list is
// empty.
func (l *lifo[T]) Get() T {
	e, _ := l.pop()
	return e
}

// Put pushes e when the list holds fewer than FreeListCap items and
// drops it otherwise.
func (l *lifo[T]) Put(e T) { l.push(e, FreeListCap, 0) }

// pop removes and returns the item pushed last. The caller gives its
// bytes back to the retained count (unretain).
func (l *lifo[T]) pop() (e T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		var zero T
		e, l.free[n-1], l.free, ok = l.free[n-1], zero, l.free[:n-1], true
	}
	l.mu.Unlock()
	return e, ok
}

// push keeps e, which holds size bytes, when the list has fewer than max
// items and the lists together stay within maxRetained bytes with it; it
// reports whether e was kept.
func (l *lifo[T]) push(e T, max int, size int64) bool {
	l.mu.Lock()
	ok := len(l.free) < max && retain(size)
	if ok {
		l.free = append(l.free, e)
	}
	l.mu.Unlock()
	return ok
}

// retained is the number of bytes the byte classes, the slab tables and
// the ViewPools hold between a Put and the next Get: Stats.Retained.
var retained atomic.Int64

// retain counts size more bytes unless that would take retained past
// maxRetained, and reports whether it did.
func retain(size int64) bool {
	for {
		r := retained.Load()
		if r+size > maxRetained {
			return false
		}
		if retained.CompareAndSwap(r, r+size) {
			return true
		}
	}
}

func unretain(size int64) { retained.Add(-size) }
