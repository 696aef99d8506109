package prng

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestNewSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources diverged: %d != %d", i, got, want)
		}
	}
}

func TestNewSourceDifferentSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestReseedRestoresStream(t *testing.T) {
	s := NewSource(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Reseed: got %d, want %d", i, got, first[i])
		}
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	s := NewSource(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if s.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("zero seed produced %d zero outputs out of 100", zeros)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := NewSource(3)
	for _, n := range []uint64{1, 2, 3, 7, 16, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewSource(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	s := NewSource(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", b, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	s := NewSource(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(1, 100)
		if v < 1 || v > 100 {
			t.Fatalf("IntRange(1,100) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 90 {
		t.Fatalf("IntRange covered only %d/100 values in 1000 draws", len(seen))
	}
	if got := s.IntRange(7, 7); got != 7 {
		t.Fatalf("IntRange(7,7) = %d, want 7", got)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(13)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestExpMeanMatchesRate(t *testing.T) {
	for _, lambda := range []float64{0.5, 1, 2, 4} {
		s := NewSource(17)
		const draws = 200000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += s.Exp(lambda)
		}
		mean := sum / draws
		want := 1 / lambda
		if math.Abs(mean-want) > 0.02*want+0.005 {
			t.Errorf("lambda=%v: sample mean %v, want about %v", lambda, mean, want)
		}
	}
}

func TestExpVarianceMatchesRate(t *testing.T) {
	const lambda = 1.0
	s := NewSource(19)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := s.Exp(lambda)
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	// Var of Exp(1) is 1.
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance %v, want about 1", variance)
	}
}

func TestExpPanicsOnNonPositiveLambda(t *testing.T) {
	for _, lambda := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Exp(%v) did not panic", lambda)
				}
			}()
			NewSource(1).Exp(lambda)
		}()
	}
}

func TestExpRoundMeanNearOne(t *testing.T) {
	// E[round(Exp(1))] ~ 0.9597 — the paper's "one free block on average".
	s := NewSource(51)
	const draws = 300000
	var sum int
	for i := 0; i < draws; i++ {
		sum += s.ExpRound(1)
	}
	mean := float64(sum) / draws
	if math.Abs(mean-0.96) > 0.02 {
		t.Fatalf("ExpRound(1) mean %v, want about 0.96", mean)
	}
}

func TestExpRoundZeroFraction(t *testing.T) {
	// P(round(Exp(1)) == 0) = P(X < 0.5) = 1 - e^{-0.5} ~ 0.3935.
	s := NewSource(53)
	const draws = 200000
	zeros := 0
	for i := 0; i < draws; i++ {
		if s.ExpRound(1) == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / draws
	want := 1 - math.Exp(-0.5)
	if math.Abs(frac-want) > 0.01 {
		t.Fatalf("zero fraction %v, want about %v", frac, want)
	}
}

func TestExpRoundNeverNegative(t *testing.T) {
	s := NewSource(55)
	for i := 0; i < 10000; i++ {
		if m := s.ExpRound(0.25); m < 0 {
			t.Fatalf("ExpRound returned %d", m)
		}
	}
}

func TestReadFillsDeterministically(t *testing.T) {
	a := NewSource(31)
	b := NewSource(31)
	bufA := make([]byte, 1000)
	bufB := make([]byte, 1000)
	if _, err := a.Read(bufA); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("same-seed Read produced different bytes")
	}
	var all byte
	for _, c := range bufA {
		all |= c
	}
	if all == 0 {
		t.Fatal("Read produced all-zero output")
	}
}

func TestReadShortBuffers(t *testing.T) {
	s := NewSource(37)
	for n := 0; n < 17; n++ {
		buf := make([]byte, n)
		got, err := s.Read(buf)
		if err != nil || got != n {
			t.Fatalf("Read(%d bytes) = (%d, %v)", n, got, err)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(41)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := NewSource(43)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestSeededEntropyDeterminism(t *testing.T) {
	a := NewSeededEntropy(99)
	b := NewSeededEntropy(99)
	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)
	if _, err := a.Read(bufA); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("same-seed entropy streams differ")
	}
	c := NewSeededEntropy(100)
	bufC := make([]byte, 4096)
	if _, err := c.Read(bufC); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if bytes.Equal(bufA, bufC) {
		t.Fatal("different-seed entropy streams identical")
	}
}

func TestSeededEntropyStreamAdvances(t *testing.T) {
	e := NewSeededEntropy(7)
	first := make([]byte, 64)
	second := make([]byte, 64)
	if _, err := e.Read(first); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := e.Read(second); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if bytes.Equal(first, second) {
		t.Fatal("consecutive reads returned identical bytes")
	}
}

func TestSeededEntropyOverwritesInput(t *testing.T) {
	// Read must not XOR into caller garbage; two reads of the same length
	// from identical seeds must match even if the destination was dirty.
	a := NewSeededEntropy(55)
	b := NewSeededEntropy(55)
	dirty := bytes.Repeat([]byte{0xAB}, 128)
	clean := make([]byte, 128)
	if _, err := a.Read(dirty); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := b.Read(clean); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(dirty, clean) {
		t.Fatal("entropy output depends on destination buffer contents")
	}
}

func TestSystemEntropyReads(t *testing.T) {
	buf, err := Bytes(SystemEntropy(), 32)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	if len(buf) != 32 {
		t.Fatalf("got %d bytes, want 32", len(buf))
	}
	var all byte
	for _, c := range buf {
		all |= c
	}
	if all == 0 {
		t.Fatal("system entropy returned 32 zero bytes")
	}
}

func TestBytesLength(t *testing.T) {
	e := NewSeededEntropy(1)
	for _, n := range []int{0, 1, 16, 31, 4096} {
		buf, err := Bytes(e, n)
		if err != nil {
			t.Fatalf("Bytes(%d): %v", n, err)
		}
		if len(buf) != n {
			t.Fatalf("Bytes(%d) returned %d bytes", n, len(buf))
		}
	}
}

func TestSeededEntropyMonobitBalance(t *testing.T) {
	// Entropy output should look uniform: roughly half the bits set.
	e := NewSeededEntropy(123)
	buf := make([]byte, 1<<16)
	if _, err := e.Read(buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	ones := 0
	for _, b := range buf {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				ones++
			}
		}
	}
	total := len(buf) * 8
	ratio := float64(ones) / float64(total)
	if math.Abs(ratio-0.5) > 0.01 {
		t.Fatalf("ones ratio %v, want about 0.5", ratio)
	}
}

func BenchmarkSourceUint64(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkSourceExp(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(1)
	}
}

func BenchmarkSeededEntropyRead4K(b *testing.B) {
	e := NewSeededEntropy(1)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, err := e.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}
