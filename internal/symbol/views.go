package symbol

// ViewPool recycles the tables of symbol views one kind of caller builds
// per object or per block — an encode's payload views, a block decoder's
// solve table: 24 bytes a symbol, more than the rest of an encode or a
// block decode allocates put together. Each kind keeps a list of its own,
// so tables of one size do not displace tables of another. They are plain
// [][]byte, not pool buffers: PoolStats counts their bytes in Retained
// while they are idle, not in Gets or Live. The zero ViewPool is ready to
// use.
type ViewPool struct{ tables lifo[*[][]byte] }

// Get returns a table of n nil views. The caller owns it, and the box it
// came in, until Put.
func (p *ViewPool) Get(n int) *[][]byte {
	v, ok := p.tables.pop()
	if ok {
		unretain(int64(viewBytes * cap(*v)))
	} else {
		v = new([][]byte)
	}
	if cap(*v) < n {
		*v = make([][]byte, n)
	}
	*v = (*v)[:n]
	return v
}

// Put takes a table from Get back. It is cleared first, so an idle table
// pins no slab buffer.
func (p *ViewPool) Put(v *[][]byte) {
	clear(*v)
	p.tables.push(v, classCap, int64(viewBytes*cap(*v)))
}
