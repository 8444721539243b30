package symbol

import "sync"

// FreeListCap bounds every FreeList: room for the closed decoders of two
// window-4 casts of one code.
const FreeListCap = 8

// FreeList recycles closed per-object state: a code's payload decoders,
// the session's reassemblies. It is a LIFO of at most FreeListCap items,
// so Get hands out the item Put took last in every build, and what a list
// retains is bounded whatever the GC does. The zero FreeList is ready to
// use and safe for concurrent use.
type FreeList[E any] struct {
	mu   sync.Mutex
	free []*E
}

// Get pops the item put last, or returns nil when the list is empty.
func (l *FreeList[E]) Get() (e *E) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		e, l.free[n-1], l.free = l.free[n-1], nil, l.free[:n-1]
	}
	l.mu.Unlock()
	return e
}

// Put pushes e when the list holds fewer than FreeListCap items and
// drops it otherwise. The caller must not use e afterwards.
func (l *FreeList[E]) Put(e *E) {
	l.mu.Lock()
	if len(l.free) < FreeListCap {
		l.free = append(l.free, e)
	}
	l.mu.Unlock()
}
