package ldpc

// The tests' maximum-likelihood oracle: Gaussian elimination over GF(2)
// on the full parity-check system, from scratch for one erasure pattern.
// Peeling success must imply its success, never the reverse, and the
// hybrid receiver of a Params.Gauss code (peeling, then SolveGauss on
// the residual system) must decode exactly the patterns it accepts.

// GaussDecodable reports whether the erasure pattern given by `received`
// (indexed by packet ID, length n) is decodable by full Gaussian
// elimination: every missing source symbol must be expressible from the
// check equations restricted to missing variables.
func (c *Code) GaussDecodable(received []bool) bool {
	if len(received) != c.n {
		panic("ldpc: received vector has wrong length")
	}
	// Unknown variables and their dense column index.
	colOf := make(map[int32]int)
	var unknownSrc int
	for v := 0; v < c.n; v++ {
		if !received[v] {
			colOf[int32(v)] = len(colOf)
			if v < c.k {
				unknownSrc++
			}
		}
	}
	if unknownSrc == 0 {
		return true
	}
	nUnk := len(colOf)

	// Build the binary system: one row per equation, columns = unknowns.
	// Bit-packed rows keep this tractable for a few thousand unknowns.
	words := (nUnk + 63) / 64
	rows := make([][]uint64, 0, c.m)
	for i := 0; i < c.m; i++ {
		var row []uint64
		for _, v := range c.EquationVars(i) {
			if j, ok := colOf[v]; ok {
				if row == nil {
					row = make([]uint64, words)
				}
				row[j/64] ^= 1 << (j % 64)
			}
		}
		if row != nil {
			rows = append(rows, row)
		}
	}

	// Forward elimination; count pivots. The system is solvable for all
	// unknowns iff rank equals the number of unknown variables that the
	// source symbols depend on; we need every unknown *source* column to be
	// pivotable. Simplest sufficient criterion (and the one matching MDS
	// semantics): rank == nUnk, i.e. the whole unknown set is recoverable.
	// When rank < nUnk we fall back to checking whether the source columns
	// are in the span, which Gaussian elimination gives us almost for free.
	rank := 0
	pivotCols := make([]int, 0, nUnk)
	for col := 0; col < nUnk && rank < len(rows); col++ {
		w, b := col/64, uint(col%64)
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r][w]>>b&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		for r := 0; r < len(rows); r++ {
			if r != rank && rows[r][w]>>b&1 == 1 {
				for t := 0; t < words; t++ {
					rows[r][t] ^= rows[rank][t]
				}
			}
		}
		pivotCols = append(pivotCols, col)
		rank++
	}
	if rank == nUnk {
		return true
	}
	// Some unknowns are free. Decoding the *object* only needs the source
	// unknowns to be determined; a source unknown is determined iff its
	// column is a pivot column and its reduced row has no free columns set
	// among non-source unknowns... For erasure codes the standard statement
	// is simpler: a variable is recoverable iff it is not part of any
	// solution-space difference, i.e. its column is zero in the null space.
	// With reduced row echelon form, free columns span the null space;
	// a pivot column col with pivot row r is determined iff row r has no
	// free column set.
	isPivot := make([]bool, nUnk)
	for _, pc := range pivotCols {
		isPivot[pc] = true
	}
	determined := make(map[int]bool, rank)
	for r, pc := range pivotCols {
		ok := true
		for col := 0; col < nUnk; col++ {
			if col == pc || isPivot[col] {
				continue
			}
			if rows[r][col/64]>>(uint(col%64))&1 == 1 {
				ok = false
				break
			}
		}
		if ok {
			determined[pc] = true
		}
	}
	for v, col := range colOf {
		if int(v) < c.k && !determined[col] {
			return false
		}
	}
	return true
}
