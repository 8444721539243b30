package symbol

import "sync"

// viewTables recycles the tables of symbol views the datapath builds per
// object or per block — an encode's payload views, a block decoder's
// solve table: 24 bytes a symbol, more than the rest of an encode or a
// block decode allocates put together. They are plain [][]byte, not pool
// buffers: PoolStats does not count them.
var viewTables sync.Pool // of *[][]byte

// GetViews returns a table of n nil views. The caller owns it, and the
// box it came in, until PutViews.
func GetViews(n int) *[][]byte {
	if v, _ := viewTables.Get().(*[][]byte); v != nil && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	v := make([][]byte, n)
	return &v
}

// PutViews takes a table from GetViews back. It is cleared first, so an
// idle table pins no slab buffer.
func PutViews(v *[][]byte) {
	clear(*v)
	viewTables.Put(v)
}
