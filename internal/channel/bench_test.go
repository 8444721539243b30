package channel

import (
	"math/rand"
	"testing"
)

func BenchmarkGilbertLost(b *testing.B) {
	g := NewGilbert(0.05, 0.3, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Lost()
	}
}

func BenchmarkMarkov3StateLost(b *testing.B) {
	m, err := NewMarkov(MarkovSpec{
		Transition: [][]float64{
			{0.95, 0.04, 0.01},
			{0.30, 0.60, 0.10},
			{0.10, 0.30, 0.60},
		},
		LossProb: []float64{0, 0.1, 0.9},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lost()
	}
}

func BenchmarkEstimateGilbert(b *testing.B) {
	g := NewGilbert(0.02, 0.5, rand.New(rand.NewSource(2)))
	trace := make([]bool, 100000)
	for i := range trace {
		trace[i] = g.Lost()
	}
	b.SetBytes(int64(len(trace)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EstimateGilbert(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepMask64 steps one chain a full word per call: the word
// kernel where the CPU has it; the scalar sub-benchmark is the
// reference loop on every CPU.
func BenchmarkStepMask64(b *testing.B) {
	st := NewStepper(0.05, 0.5)
	var sink uint64
	b.Run("dispatch", func(b *testing.B) {
		state, lost := uint64(1), false
		for b.Loop() {
			sink ^= st.StepMask(&state, &lost, 64)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		state, lost := uint64(1), false
		for b.Loop() {
			sink ^= st.stepScalar(&state, &lost, 64)
		}
	})
	stepMaskSink = sink
}

var stepMaskSink uint64
