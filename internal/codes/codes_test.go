package codes

import "testing"

func TestMakeAllNames(t *testing.T) {
	for _, name := range Names {
		c, err := Spec{Family: name, K: 100, Ratio: 1.5, Seed: 1}.New()
		if err != nil {
			t.Fatalf("Spec{%q}.New(): %v", name, err)
		}
		l := c.Layout()
		if l.K != 100 || l.N < 149 || l.N > 151 {
			t.Fatalf("%s layout k=%d n=%d", name, l.K, l.N)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s layout invalid: %v", name, err)
		}
	}
}

func TestMakeUnknown(t *testing.T) {
	if _, err := (Spec{Family: "turbo", K: 100, Ratio: 1.5, Seed: 1}).New(); err == nil {
		t.Fatal("accepted unknown code family")
	}
}

func TestMakeReproducibleConstruction(t *testing.T) {
	a, err := Spec{Family: "ldgm-staircase", K: 200, Ratio: 2.5, Seed: 7}.New()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Spec{Family: "ldgm-staircase", K: 200, Ratio: 2.5, Seed: 7}.New()
	// Same seed: identical pseudo-random construction, so a no-loss
	// sequential reception decodes after the same packet count.
	ra, rb := a.NewReceiver(), b.NewReceiver()
	for id := 0; id < a.Layout().N; id++ {
		da, db := ra.Receive(id), rb.Receive(id)
		if da != db {
			t.Fatalf("construction differs at packet %d", id)
		}
		if da {
			return
		}
	}
	t.Fatal("never decoded")
}
