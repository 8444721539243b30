// Package rse implements the Reed-Solomon erasure code (RSE) used as the
// small-block reference code in the reproduced paper.
//
// The construction follows Rizzo's classic erasure codec: a systematic code
// derived from a Vandermonde matrix over GF(2^8). Because the field bounds
// the block length at n <= 255 encoding symbols, large objects are segmented
// into blocks (the partitioner below follows the FLUTE/ALC blocking
// algorithm). Segmentation is what costs RSE its global efficiency in the
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
// inversion runs on the same kernel as the data passes: Gauss-Jordan over
// augmented rows, each pivot column cleared from all other rows by one
// gf256.AddMulRows call (matrix.Invert).
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

// Params configures a Code.
type Params struct {
	// K is the total number of source packets in the object.
	K int
	// Ratio is the FEC expansion ratio n/k (e.g. 1.5 or 2.5).
	Ratio float64
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

// New constructs the segmented code. It returns an error when the geometry
// is unsatisfiable (k <= 0, ratio < 1, or a block too small to honour the
// ratio within MaxBlock).
func New(p Params) (*Code, error) {
	if p.K <= 0 {
		return nil, fmt.Errorf("rse: k must be positive, got %d", p.K)
	}
	if p.Ratio < 1 {
		return nil, fmt.Errorf("rse: expansion ratio must be >= 1, got %g", p.Ratio)
	}
	if p.MaxBlock == 0 {
		p.MaxBlock = MaxBlock
	}
	if p.MaxBlock < 2 || p.MaxBlock > MaxBlock {
		return nil, fmt.Errorf("rse: MaxBlock %d outside [2,%d]", p.MaxBlock, MaxBlock)
	}
	kmax := int(float64(p.MaxBlock) / p.Ratio)
	if kmax < 1 {
		return nil, fmt.Errorf("rse: ratio %g leaves no room for source symbols in blocks of %d", p.Ratio, p.MaxBlock)
	}

	// FLUTE-style blocking: B blocks, the first iLarge of size aLarge,
	// the rest aSmall, so block sizes differ by at most one.
	b := (p.K + kmax - 1) / kmax
	aLarge := (p.K + b - 1) / b
	aSmall := p.K / b
	iLarge := p.K - aSmall*b

	c := &Code{genFor: make(map[[2]int]*matrix.Matrix)}
	srcOff, parCount := 0, 0
	for bi := 0; bi < b; bi++ {
		kb := aSmall
		if bi < iLarge {
			kb = aLarge
		}
		nb := int(float64(kb)*p.Ratio + 0.5)
		if nb > p.MaxBlock {
			nb = p.MaxBlock
		}
		if nb < kb {
			nb = kb
		}
		c.blocks = append(c.blocks, blockDef{kb: kb, nb: nb, srcOff: srcOff})
		srcOff += kb
		parCount += nb - kb
	}
	// Assign parity IDs after all source IDs.
	n := p.K + parCount
	parOff := p.K
	for i := range c.blocks {
		c.blocks[i].parOff = parOff
		parOff += c.blocks[i].nb - c.blocks[i].kb
	}

	c.layout = core.Layout{K: p.K, N: n}
	for _, bd := range c.blocks {
		blk := core.Block{}
		for i := 0; i < bd.kb; i++ {
			blk.Source = append(blk.Source, bd.srcOff+i)
		}
		for i := 0; i < bd.nb-bd.kb; i++ {
			blk.Parity = append(blk.Parity, bd.parOff+i)
		}
		c.layout.Blocks = append(c.layout.Blocks, blk)
	}
	if err := c.layout.Validate(); err != nil {
		return nil, fmt.Errorf("rse: internal layout error: %w", err)
	}
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
