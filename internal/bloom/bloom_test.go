package bloom

import (
	"math/rand"
	"testing"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewOptimal(100, 1024, 3)
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	n := 1000
	f := NewOptimal(n, 10*n, 7) // 10 bits/key, k=7 → fp ≈ 0.8%
	rng := rand.New(rand.NewSource(12))
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		seen[k] = true
		f.Add(k)
	}
	fp := 0
	trials := 20000
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		if seen[k] {
			continue
		}
		if f.MayContain(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	if rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestNewOptimalRespectsCap(t *testing.T) {
	f := NewOptimal(1_000_000, 4096*8, 10)
	if f.Bits() > 4096*8 {
		t.Fatalf("Bits = %d exceeds cap", f.Bits())
	}
	if f.k < 1 || f.k > 10 {
		t.Fatalf("k = %d out of range", f.k)
	}
	small := NewOptimal(3, 4096*8, 10)
	if small.Bits() > 4096*8 {
		t.Fatalf("small Bits = %d", small.Bits())
	}
	if !small.MayContain(99) {
		small.Add(99)
		if !small.MayContain(99) {
			t.Fatal("added key missing")
		}
	}
}

func TestEmptyFilterContainsNothingMostly(t *testing.T) {
	f := NewOptimal(700, 4096, 4)
	hits := 0
	for k := uint64(0); k < 1000; k++ {
		if f.MayContain(k) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("empty filter reported %d hits", hits)
	}
}
