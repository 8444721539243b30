package ldpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
)

// graphHash digests a code's graph: its row CSR (rowOff, rowIdx) and,
// variable by variable, the equations the variable→equation index lists
// for it, in the order the peeler walks them.
func graphHash(c *Code) string {
	h := sha256.New()
	put := func(v int32) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, v := range c.rowOff {
		put(v)
	}
	for _, v := range c.rowIdx {
		put(v)
	}
	for v := 0; v < c.n; v++ {
		put(-1) // separates the variables' lists
		for _, eq := range c.equationsOf(int32(v)) {
			put(eq)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGraphsPinned pins every LDGM variant's construction over a k ×
// ratio grid that includes ratios above 1 + LeftDegree (rows patched
// with one source) and non-default triangle densities (parities of
// degree above four). A construction or index-layout change that moves
// any edge fails here before it can move a golden.
func TestGraphsPinned(t *testing.T) {
	want := map[string]string{}
	for _, v := range allVariants() {
		for _, k := range []int{1, 7, 100, 1000} {
			for _, ratio := range []float64{1.5, 2.5, 5} {
				for _, dens := range []float64{0, 0.5, 3} {
					if dens != 0 && v != Triangle {
						continue
					}
					n := int(float64(k)*ratio + 0.5)
					if n <= k {
						n = k + 1
					}
					p := Params{K: k, N: n, Variant: v, Seed: int64(k) + 11, TriangleDensity: dens}
					name := fmt.Sprintf("%v/k=%d/n=%d/dens=%g", v, k, n, dens)
					want[name] = graphHash(mustNew(t, p))
				}
			}
		}
	}
	for name, got := range want {
		if pinned, ok := graphPins[name]; !ok || pinned != got {
			t.Errorf("%s: graph hash %s, pinned %s", name, got, pinned)
		}
	}
	if len(graphPins) != len(want) {
		t.Errorf("%d pins for %d graphs", len(graphPins), len(want))
	}
}

// graphPins were recorded on the map-based construction and the CSR
// variable index, before either was replaced.
var graphPins = map[string]string{
	"ldgm-staircase/k=1/n=2/dens=0":        "b28256b2f5f389ca",
	"ldgm-staircase/k=1/n=3/dens=0":        "cc76b2ea8aa15f80",
	"ldgm-staircase/k=1/n=5/dens=0":        "19b71fcafa38bc5f",
	"ldgm-staircase/k=100/n=150/dens=0":    "5ea78e53665ad0df",
	"ldgm-staircase/k=100/n=250/dens=0":    "4c6f7ef4d28dc126",
	"ldgm-staircase/k=100/n=500/dens=0":    "ddc1b7b31b60fba7",
	"ldgm-staircase/k=1000/n=1500/dens=0":  "e38b558b97fe2823",
	"ldgm-staircase/k=1000/n=2500/dens=0":  "1184da664e21fa3c",
	"ldgm-staircase/k=1000/n=5000/dens=0":  "4f10ff123e888964",
	"ldgm-staircase/k=7/n=11/dens=0":       "02ae149a9185a314",
	"ldgm-staircase/k=7/n=18/dens=0":       "afa7fae812ad4de2",
	"ldgm-staircase/k=7/n=35/dens=0":       "3c9bb3c1bc122ffb",
	"ldgm-triangle/k=1/n=2/dens=0":         "b28256b2f5f389ca",
	"ldgm-triangle/k=1/n=2/dens=0.5":       "b28256b2f5f389ca",
	"ldgm-triangle/k=1/n=2/dens=3":         "b28256b2f5f389ca",
	"ldgm-triangle/k=1/n=3/dens=0":         "cc76b2ea8aa15f80",
	"ldgm-triangle/k=1/n=3/dens=0.5":       "cc76b2ea8aa15f80",
	"ldgm-triangle/k=1/n=3/dens=3":         "cc76b2ea8aa15f80",
	"ldgm-triangle/k=1/n=5/dens=0":         "3303c289ea2d6712",
	"ldgm-triangle/k=1/n=5/dens=0.5":       "c8e2f8249c04d91f",
	"ldgm-triangle/k=1/n=5/dens=3":         "3303c289ea2d6712",
	"ldgm-triangle/k=100/n=150/dens=0":     "9583339270e5e116",
	"ldgm-triangle/k=100/n=150/dens=0.5":   "a2b4e9c73fb8589d",
	"ldgm-triangle/k=100/n=150/dens=3":     "495366c9ca51fb95",
	"ldgm-triangle/k=100/n=250/dens=0":     "ca5260a203b3b1d9",
	"ldgm-triangle/k=100/n=250/dens=0.5":   "70dae8d7af4ba5fe",
	"ldgm-triangle/k=100/n=250/dens=3":     "96bfb03c3b39b36e",
	"ldgm-triangle/k=100/n=500/dens=0":     "d5886c3f1e9414c6",
	"ldgm-triangle/k=100/n=500/dens=0.5":   "12a1760fcee07ae1",
	"ldgm-triangle/k=100/n=500/dens=3":     "5277236524a7a109",
	"ldgm-triangle/k=1000/n=1500/dens=0":   "58fb9c506b967eca",
	"ldgm-triangle/k=1000/n=1500/dens=0.5": "8041ba0161b750de",
	"ldgm-triangle/k=1000/n=1500/dens=3":   "e231cc389567bb3e",
	"ldgm-triangle/k=1000/n=2500/dens=0":   "374d797720ef11e6",
	"ldgm-triangle/k=1000/n=2500/dens=0.5": "dacb76f2f47097cf",
	"ldgm-triangle/k=1000/n=2500/dens=3":   "8e7bed7027166b66",
	"ldgm-triangle/k=1000/n=5000/dens=0":   "a7034ec1b1cbf2f5",
	"ldgm-triangle/k=1000/n=5000/dens=0.5": "550c347b9e28e29a",
	"ldgm-triangle/k=1000/n=5000/dens=3":   "1de2037e1a08fde2",
	"ldgm-triangle/k=7/n=11/dens=0":        "047f38204d5fe56a",
	"ldgm-triangle/k=7/n=11/dens=0.5":      "1a55d128d98cab6b",
	"ldgm-triangle/k=7/n=11/dens=3":        "6efb827cba923af1",
	"ldgm-triangle/k=7/n=18/dens=0":        "a7572b9f8d9b4f1b",
	"ldgm-triangle/k=7/n=18/dens=0.5":      "7af1b09000301c9b",
	"ldgm-triangle/k=7/n=18/dens=3":        "f8eece1a56d0734a",
	"ldgm-triangle/k=7/n=35/dens=0":        "bafd782d9b92d5d0",
	"ldgm-triangle/k=7/n=35/dens=0.5":      "f50d3d85feec09fe",
	"ldgm-triangle/k=7/n=35/dens=3":        "d293051543d79979",
	"ldgm/k=1/n=2/dens=0":                  "b28256b2f5f389ca",
	"ldgm/k=1/n=3/dens=0":                  "8d2c252c26596b67",
	"ldgm/k=1/n=5/dens=0":                  "e32ab7df1e655614",
	"ldgm/k=100/n=150/dens=0":              "be83bd003739d6e7",
	"ldgm/k=100/n=250/dens=0":              "707282ab0c71812b",
	"ldgm/k=100/n=500/dens=0":              "56f434645150f5a1",
	"ldgm/k=1000/n=1500/dens=0":            "a574b5203af92d56",
	"ldgm/k=1000/n=2500/dens=0":            "ab8b51bad6e4111d",
	"ldgm/k=1000/n=5000/dens=0":            "edf4f762a0334510",
	"ldgm/k=7/n=11/dens=0":                 "07c435513c48acaa",
	"ldgm/k=7/n=18/dens=0":                 "a8cf091c91d86ab1",
	"ldgm/k=7/n=35/dens=0":                 "5b873ff1c4cceb62",
}

// equationsOf lists variable v's equations from the variable index.
func (c *Code) equationsOf(v int32) []int32 {
	lo, hi := equations(c.varEq, v)
	eqs := c.varEq[lo:hi]
	if i := slices.Index(eqs, -1); i >= 0 {
		eqs = eqs[:i]
	}
	return eqs
}
