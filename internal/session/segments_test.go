package session

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// TestEncodeSegmentsMatchesContiguous: an object handed over in pieces
// encodes to exactly the frames of the same bytes in one slice, however
// it is cut — into the Caster's 64 KiB stage pieces, with a cut inside the
// first symbol (and so inside or just past the length prefix), with empty
// segments anywhere, or at random — for a full chunk, a short final chunk,
// a chunk that ends exactly on a piece boundary and a few tiny objects.
func TestEncodeSegmentsMatchesContiguous(t *testing.T) {
	const piece = symbol.MaxPooled
	rng := rand.New(rand.NewSource(43))
	for _, cfg := range []SenderConfig{
		{ObjectID: 3, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 1024, Seed: 1},
		{ObjectID: 4, Family: wire.CodeLDGMStaircase, Ratio: 1.5, PayloadSize: 128, Seed: 5},
		{ObjectID: 5, Family: wire.CodeLDGMTriangle, Ratio: 2, PayloadSize: 5, Seed: 9}, // symbols shorter than the prefix
	} {
		full := ChunkDataSize(4*piece/cfg.PayloadSize, cfg.PayloadSize) // four pieces less the prefix
		if cfg.PayloadSize < 64 {
			full = ChunkDataSize(1000, cfg.PayloadSize)
		}
		for _, size := range []int{1, 7, 8, 9, cfg.PayloadSize, full, full - 1000, 2 * piece, piece + 1} {
			if size > full {
				continue
			}
			data := testObject(size, int64(size))
			ref, err := EncodeObject(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, segs := range segmentations(rng, data, piece, cfg.PayloadSize) {
				obj, err := EncodeSegments(segs, cfg)
				if err != nil {
					t.Fatalf("%v size %d %s: %v", cfg.Family, size, name, err)
				}
				for id := range ref.N() {
					want, _ := ref.Frame(id)
					got, _ := obj.Frame(id)
					if !bytes.Equal(got, want) {
						t.Fatalf("%v size %d %s: frame %d differs from the contiguous encode", cfg.Family, size, name, id)
					}
				}
				obj.Close()
			}
			ref.Close()
		}
		if _, err := EncodeSegments([][]byte{nil, {}}, cfg); err == nil {
			t.Fatalf("%v: accepted an object of empty segments", cfg.Family)
		}
	}
}

// segmentations returns ways to cut data into segments, by name.
func segmentations(rng *rand.Rand, data []byte, piece, symLen int) map[string][][]byte {
	cutAt := func(cuts ...int) [][]byte {
		cuts = append(slices.Clone(cuts), 0, len(data))
		slices.Sort(cuts)
		var segs [][]byte
		for i := 1; i < len(cuts); i++ {
			segs = append(segs, data[cuts[i-1]:cuts[i]])
		}
		return segs
	}
	var pieces []int
	for off := piece; off < len(data); off += piece {
		pieces = append(pieces, off)
	}
	out := map[string][][]byte{
		"64KiB-pieces": cutAt(pieces...),
		// Every cut twice, and two more at each end: empty segments first,
		// last and between the pieces.
		"pieces-and-empties": cutAt(slices.Concat(pieces, pieces, []int{0, 0, len(data), len(data)})...),
		"first-symbol":       cutAt(rng.Intn(min(symLen, len(data))) + 1),
	}
	for i := range 4 {
		cuts := make([]int, rng.Intn(12))
		for j := range cuts {
			cuts[j] = rng.Intn(len(data) + 1) // repeats make empty segments
		}
		out[fmt.Sprint("random-", i)] = cutAt(cuts...)
	}
	return out
}
