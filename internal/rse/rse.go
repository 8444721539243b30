// Package rse implements the Reed-Solomon erasure code (RSE) used as the
// small-block reference code in the reproduced paper.
//
// The construction follows Rizzo's classic erasure codec: a systematic code
// derived from a Vandermonde matrix over GF(2^8). Because the field bounds
// the block length at n <= 255 encoding symbols, large objects are segmented
// into blocks — an integer function of the (k, n) every datagram carries
// (New; RFC 5052 §9.1's even split, applied to sources and parities), so a
// receiver rebuilds the sender's blocks from the header alone.
// Segmentation is what costs RSE its global efficiency in the
// paper: a parity packet can only repair losses inside its own block, so a
// receiver effectively plays a coupon-collector game across blocks.
//
// The code is MDS: a block with k_b source symbols decodes from any k_b of
// its n_b symbols. That counting rule is core.BlockDecoder, the one receive
// state machine the simulations (structurally) and the wire (with payloads)
// both run; this package supplies the algebra. Encoding multiplies the
// sources by the (n_b-k_b)×k_b parity generator G. Decoding (codec.go) is
// systematic erasure decoding:
// received sources are final as they arrive, and a block missing e sources
// folds the received ones into its e buffered parity symbols to form
// syndromes, inverts the e×e submatrix of G that couples those parity rows
// to the missing columns, and multiplies: an O(e³) inversion plus e·k_b
// symbol-length multiply-accumulates, four rows per pass, where inverting
// the full k_b×k_b system cost O(k_b³) before any data moved. The
// inversion is Gauss-Jordan over augmented rows (matrix.Invert), each
// pivot column cleared from all other rows by one gf256.EliminateColumn
// call: one assembly pass on the gfni tier, one AddMulRows call on the
// others.
package rse

import (
	"fmt"
	"runtime"
	"sync"

	"fecperf/internal/core"
	"fecperf/internal/matrix"
	"fecperf/internal/symbol"
)

// MaxBlock is the maximum number of encoding symbols per block permitted by
// GF(2^8) with Rizzo's construction (one row per non-zero field element).
const MaxBlock = 255

// Params is a Code's whole identity: the integers its datagrams carry.
type Params struct {
	// K is the number of source packets in the object, N the total number
	// of encoding symbols (source plus parity).
	K, N int
	// MaxBlock caps n_b per block; defaults to MaxBlock (255) when zero.
	// Lowering it is useful for ablation studies.
	MaxBlock int
}

// Code is a Reed-Solomon erasure code over a segmented object.
// It is immutable after construction and safe for concurrent receivers.
type Code struct {
	layout core.Layout
	blocks []blockDef

	// Generator matrices are built lazily per distinct (k_b, n_b) pair:
	// simulations never need them, payload encoders do.
	genMu  sync.Mutex
	genFor map[[2]int]*matrix.Matrix
}

// blockDef records per-block geometry in global-ID space.
type blockDef struct {
	kb, nb int
	srcOff int // first global source ID
	parOff int // first global parity ID
}

func checkMaxBlock(maxBlock int) (int, error) {
	if maxBlock == 0 {
		return MaxBlock, nil
	}
	if maxBlock < 2 || maxBlock > MaxBlock {
		return 0, fmt.Errorf("rse: MaxBlock %d outside [2,%d]", maxBlock, MaxBlock)
	}
	return maxBlock, nil
}

// N turns a configured expansion ratio into the symbol count a sender
// announces: k sources cut into blocks of at most ⌊maxBlock/ratio⌋, each
// block rounded to its own n_b. It is sender-side configuration and the
// package's only float arithmetic — the result travels in the header and
// New lays the blocks out from the integers alone.
func N(k int, ratio float64, maxBlock int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("rse: k must be positive, got %d", k)
	}
	if !(ratio >= 1) { // also rejects NaN
		return 0, fmt.Errorf("rse: expansion ratio must be >= 1, got %g", ratio)
	}
	maxBlock, err := checkMaxBlock(maxBlock)
	if err != nil {
		return 0, err
	}
	kmax := int(float64(maxBlock) / ratio)
	if kmax < 1 {
		return 0, fmt.Errorf("rse: ratio %g leaves no room for source symbols in blocks of %d", ratio, maxBlock)
	}
	b := (k + kmax - 1) / kmax
	nbOf := func(kb int) int {
		return min(max(int(float64(kb)*ratio+0.5), kb), maxBlock)
	}
	large := k % b // blocks holding ⌈k/b⌉ sources; the rest hold ⌊k/b⌋
	return large*nbOf(k/b+1) + (b-large)*nbOf(k/b), nil
}

// New constructs the segmented code for exactly p.N symbols. The blocking
// is an integer function of (K, N, MaxBlock), so every party that reads
// those off a datagram builds the same blocks: b is the smallest block
// count, from ⌈N/MaxBlock⌉ up, with ⌈K/b⌉ + ⌈(N−K)/b⌉ <= MaxBlock; the K
// sources and the N−K parities are each dealt FLUTE-style, the first
// K mod b (resp. (N−K) mod b) blocks taking one more. A geometry that
// would need more blocks than sources is an error.
func New(p Params) (*Code, error) {
	if p.K <= 0 {
		return nil, fmt.Errorf("rse: k must be positive, got %d", p.K)
	}
	if p.N < p.K {
		return nil, fmt.Errorf("rse: n=%d below k=%d", p.N, p.K)
	}
	maxBlock, err := checkMaxBlock(p.MaxBlock)
	if err != nil {
		return nil, err
	}
	par := p.N - p.K
	b := (p.N + maxBlock - 1) / maxBlock
	for b <= p.K && (p.K+b-1)/b+(par+b-1)/b > maxBlock {
		b++
	}
	if b > p.K {
		return nil, fmt.Errorf("rse: k=%d, n=%d needs more than k blocks of %d symbols", p.K, p.N, maxBlock)
	}

	c := &Code{
		layout: core.Layout{K: p.K, N: p.N, Blocks: make([]core.Block, b)},
		blocks: make([]blockDef, b),
		genFor: make(map[[2]int]*matrix.Matrix),
	}
	srcOff, parOff := 0, p.K // parity IDs follow all source IDs
	for bi := range c.blocks {
		kb, pb := p.K/b, par/b
		if bi < p.K%b {
			kb++
		}
		if bi < par%b {
			pb++
		}
		c.blocks[bi] = blockDef{kb: kb, nb: kb + pb, srcOff: srcOff, parOff: parOff}
		blk := core.Block{Source: make([]int, kb), Parity: make([]int, pb)}
		for i := range blk.Source {
			blk.Source[i] = srcOff + i
		}
		for i := range blk.Parity {
			blk.Parity[i] = parOff + i
		}
		c.layout.Blocks[bi] = blk
		srcOff += kb
		parOff += pb
	}
	if err := c.layout.Validate(); err != nil {
		return nil, fmt.Errorf("rse: internal layout error: %w", err)
	}
	c.layout.IndexBlocks()
	return c, nil
}

// Name implements core.Code.
func (c *Code) Name() string { return "rse" }

// Layout implements core.Code.
func (c *Code) Layout() core.Layout { return c.layout }

// NumBlocks returns the number of blocks the object was segmented into.
func (c *Code) NumBlocks() int { return len(c.blocks) }

// BlockMDS implements core.BlockMDS: Reed-Solomon is MDS, so every block
// decodes at exactly k_b distinct symbols — the counting rule NewReceiver
// already embodies.
func (c *Code) BlockMDS() bool { return true }

// NewReceiver implements core.Code: the structural form of the package's
// one decoder, which embodies the MDS counting rule — a block is decodable
// as soon as it has k_b distinct symbols.
func (c *Code) NewReceiver() core.Receiver { return core.NewBlockDecoder(c.layout, 0, c) }

// generator returns the (nb-kb)×kb parity generator for a block geometry:
// the bottom rows of V·V_top^-1 where V is Vandermonde(nb, kb). The top kb
// rows of that product are the identity, which makes the code systematic.
func (c *Code) generator(kb, nb int) *matrix.Matrix {
	key := [2]int{kb, nb}
	c.genMu.Lock()
	defer c.genMu.Unlock()
	if g, ok := c.genFor[key]; ok {
		return g
	}
	v := matrix.Vandermonde(nb, kb)
	topIdx := make([]int, kb)
	for i := range topIdx {
		topIdx[i] = i
	}
	topInv, err := v.SubMatrix(topIdx).Inverse()
	if err != nil {
		// Vandermonde top-square is always invertible; reaching this is a bug.
		panic(fmt.Sprintf("rse: vandermonde top block singular for kb=%d: %v", kb, err))
	}
	sys := v.Mul(topInv)
	botIdx := make([]int, nb-kb)
	for i := range botIdx {
		botIdx[i] = kb + i
	}
	g := sys.SubMatrix(botIdx)
	c.genFor[key] = g
	return g
}

// EncodeBlock computes the parity payloads of block bi from its source
// payloads. src must hold exactly k_b equal-length slices; the returned
// slice holds n_b-k_b parity payloads in pooled buffers owned by the
// caller.
func (c *Code) EncodeBlock(bi int, src [][]byte) ([][]byte, error) {
	if bi < 0 || bi >= len(c.blocks) {
		return nil, fmt.Errorf("rse: block %d outside [0,%d)", bi, len(c.blocks))
	}
	bd := c.blocks[bi]
	if len(src) != bd.kb {
		return nil, fmt.Errorf("rse: block %d expects %d source symbols, got %d", bi, bd.kb, len(src))
	}
	symLen, err := uniformLen(src)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, bd.nb-bd.kb)
	for i := range parity {
		parity[i] = symbol.GetDirty(symLen)
	}
	c.encodeBlockInto(bd, src, parity)
	return parity, nil
}

// encodeBlockInto overwrites parity (nb-kb slices) with the block's parity
// symbols: the generator times the source vector, one matrix.MulVec.
func (c *Code) encodeBlockInto(bd blockDef, src [][]byte, parity [][]byte) {
	if bd.nb == bd.kb {
		// Ratio 1 leaves a block with no parity; there is no generator
		// to build (and Vandermonde-derived 0-row matrices don't exist).
		return
	}
	for _, p := range parity {
		clear(p) // MulVec accumulates
	}
	c.generator(bd.kb, bd.nb).MulVec(parity, src)
}

// encodeBlockOf is encodeBlockInto on block bd's share of the object's
// source and parity vectors.
func (c *Code) encodeBlockOf(bd blockDef, src, parity [][]byte) {
	par := bd.parOff - c.layout.K
	c.encodeBlockInto(bd, src[bd.srcOff:bd.srcOff+bd.kb], parity[par:par+bd.nb-bd.kb])
}

// parallelEncodeMinBytes is the total source size below which EncodeInto
// stays sequential: goroutine fan-out only pays once there are several
// blocks' worth of kernel work to hide the scheduling cost behind.
const parallelEncodeMinBytes = 1 << 18

// EncodeInto FEC-encodes the whole object into caller-supplied memory. src
// holds the K source payloads in global-ID order; parity holds N-K slices
// of the same length, overwritten with the parity payloads in global
// parity ID order (parity ID K+i is parity[i]).
//
// Blocks are independent, so segmented objects encode in parallel across
// GOMAXPROCS goroutines once the object is large enough for the fan-out
// to pay; the output is identical either way.
func (c *Code) EncodeInto(src, parity [][]byte) error {
	if len(src) != c.layout.K {
		return fmt.Errorf("rse: expected %d source payloads, got %d", c.layout.K, len(src))
	}
	if len(parity) != c.layout.N-c.layout.K {
		return fmt.Errorf("rse: expected %d parity buffers, got %d", c.layout.N-c.layout.K, len(parity))
	}
	symLen, err := uniformLen(src)
	if err != nil {
		return err
	}
	for i, p := range parity {
		if len(p) != symLen {
			return fmt.Errorf("rse: parity buffer %d has length %d, want %d", i, len(p), symLen)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(c.blocks) {
		workers = len(c.blocks)
	}
	if workers <= 1 || c.layout.K*symLen < parallelEncodeMinBytes {
		for _, bd := range c.blocks {
			c.encodeBlockOf(bd, src, parity)
		}
		return nil
	}
	var wg sync.WaitGroup
	blockCh := make(chan blockDef)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bd := range blockCh {
				c.encodeBlockOf(bd, src, parity)
			}
		}()
	}
	for _, bd := range c.blocks {
		blockCh <- bd
	}
	close(blockCh)
	wg.Wait()
	return nil
}

// Encode implements core.Codec: EncodeInto with one pooled buffer per
// parity symbol, owned by the caller.
func (c *Code) Encode(src [][]byte) ([][]byte, error) { return core.EncodePooled(c, src) }

func uniformLen(symbols [][]byte) (int, error) {
	if len(symbols) == 0 {
		return 0, fmt.Errorf("rse: no symbols")
	}
	l := len(symbols[0])
	for i, s := range symbols {
		if len(s) != l {
			return 0, fmt.Errorf("rse: symbol %d has length %d, want %d", i, len(s), l)
		}
	}
	return l, nil
}
